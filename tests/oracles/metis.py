"""Reference MAA and TAA on the expression layer.

:func:`solve_maa` and :func:`solve_taa` are the two algorithms as they ran
on the symbolic build: the RL-SPM / BL-SPM relaxation stated by
:mod:`tests.oracles.formulations`, solved through
:class:`~tests.oracles.lp.model.Model`, weights read back per variable,
and (TAA) the estimator built and walked by
:mod:`tests.oracles.estimator`.  Everything else — rounding, the ``mu``
selection, repair and augmentation — is the runtime's own code from
``repro.core.maa`` / ``repro.core.taa``, so a comparison isolates the
model build, the read-back and the estimator.

:func:`swap_into_metis` makes :class:`~repro.core.metis.Metis` call
these two; run it inside :func:`tests.oracles.reuse.no_reuse` to
reproduce the reference alternation, which never shared a local-search
memo.

Test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import maa, metis, taa
from repro.core.chernoff import invert_lower_bound, select_mu
from repro.core.instance import SPMInstance
from repro.core.maa import MAAResult
from repro.core.schedule import Schedule
from repro.core.taa import TAAResult
from repro.exceptions import AlgorithmError, InfeasibleError, SolverError
from repro.lp.result import SolveStatus

from tests.oracles.estimator import build_estimator
from tests.oracles.formulations import build_bl_spm, build_rl_spm, fractional_x

__all__ = ["solve_maa", "solve_taa", "swap_into_metis"]

EdgeKey = tuple


def solve_maa(
    instance: SPMInstance,
    *,
    rng: int | np.random.Generator | None = None,
) -> MAAResult:
    """Algorithm 1 (MAA) with the RL-SPM relaxation on the expression layer."""
    problem = build_rl_spm(instance, integral=False)
    solution = problem.model.solve()
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("RL-SPM relaxation is infeasible")
    if not solution.is_optimal:
        raise SolverError(f"RL-SPM relaxation failed: {solution.status}")

    weights = fractional_x(problem, solution)
    c_hat = np.array(
        [solution.values[problem.c_vars[idx]] for idx in range(instance.num_edges)]
    )
    positive = c_hat[c_hat > maa._ALPHA_TOL]
    alpha = float(positive.min()) if positive.size else 0.0

    assignment = maa.round_paths(instance, weights, rng)
    schedule = Schedule(instance, assignment)
    return MAAResult(
        schedule=schedule,
        fractional_cost=float(solution.objective),
        fractional_weights=weights,
        alpha=alpha,
    )


def solve_taa(
    instance: SPMInstance,
    capacities: dict[EdgeKey, int],
    *,
    fallback_mu: float = 0.5,
    augment: bool = True,
) -> TAAResult:
    """Algorithm 2 (TAA) with the BL-SPM relaxation and estimator of reference."""
    for key in instance.edges:
        cap = capacities.get(key)
        # bool is an int subclass, but True/False are not valid capacities.
        if (
            cap is None
            or isinstance(cap, bool)
            or not isinstance(cap, (int, np.integer))
            or cap < 0
        ):
            raise AlgorithmError(
                f"BL-SPM needs a finite non-negative integer capacity for every "
                f"edge; edge {key!r} has {cap!r}"
            )
    if not (0 < fallback_mu < 1):
        raise ValueError(f"fallback_mu must be in (0, 1), got {fallback_mu}")

    if instance.num_requests == 0:
        empty = Schedule(instance, {})
        return TAAResult(
            empty, dict(capacities), 0.0, 1.0, 0.0, math.nan, math.nan, 0
        )

    problem = build_bl_spm(instance, capacities, integral=False)
    solution = problem.model.solve()
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("BL-SPM relaxation is infeasible")
    if not solution.is_optimal:
        raise SolverError(f"BL-SPM relaxation failed: {solution.status}")
    weights = fractional_x(problem, solution)
    relaxation_revenue = float(solution.objective)

    requests = instance.requests.requests
    rate_max = max(req.rate for req in requests)
    value_max = max(req.value for req in requests)
    if value_max <= 0:
        assignment = {req.request_id: None for req in requests}
        schedule = Schedule(instance, assignment)
        return TAAResult(
            schedule, dict(capacities), relaxation_revenue, 1.0, 0.0,
            math.nan, math.nan, 0,
        )

    num_edges = instance.num_edges
    num_slots = instance.num_slots
    positive_caps = [capacities[key] for key in instance.edges if capacities[key] > 0]
    if positive_caps:
        min_cap_norm = min(positive_caps) / rate_max
        try:
            mu = select_mu(min_cap_norm, num_slots, num_edges)
        except AlgorithmError:
            mu = fallback_mu
    else:
        mu = fallback_mu

    scaled_revenue = mu * relaxation_revenue / value_max  # I_S
    one_over_n1 = 1.0 / (num_edges + 1)
    if scaled_revenue > 0:
        gamma = invert_lower_bound(scaled_revenue, one_over_n1)
    else:
        gamma = 1.0
    revenue_floor_norm = scaled_revenue * (1.0 - gamma)
    t0 = -math.log1p(-gamma) if gamma < 1.0 else 1.0
    t_cap = math.log(1.0 / mu)

    estimator = build_estimator(
        instance,
        weights,
        capacities,
        mu=mu,
        t0=t0,
        t_cap=t_cap,
        rate_max=rate_max,
        value_max=value_max,
        revenue_floor_norm=revenue_floor_norm,
    )
    initial = estimator.initial_log_value()
    choices, final = estimator.walk()

    assignment: dict[int, int | None] = {}
    for req, branch in zip(requests, choices):
        n_paths = instance.num_paths(req.request_id)
        assignment[req.request_id] = branch if branch < n_paths else None

    num_repairs = taa._repair_capacity_violations(instance, assignment, capacities)
    num_augmented = (
        taa._augment_with_declined(instance, assignment, capacities)
        if augment
        else 0
    )

    schedule = Schedule(instance, assignment)
    schedule.check_capacities(dict(capacities))
    return TAAResult(
        schedule=schedule,
        capacities=dict(capacities),
        relaxation_revenue=relaxation_revenue,
        mu=mu,
        revenue_floor=revenue_floor_norm * value_max,
        estimator_initial=initial,
        estimator_final=final,
        num_repairs=num_repairs,
        num_augmented=num_augmented,
    )


def swap_into_metis(monkeypatch) -> None:
    """Make ``repro.core.metis`` call the reference MAA and TAA."""
    monkeypatch.setattr(metis, "solve_maa", solve_maa)
    monkeypatch.setattr(metis, "solve_taa", solve_taa)
