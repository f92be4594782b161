"""TAA — the Tree-based Approximation Algorithm for BL-SPM (paper §IV).

Given fixed integer link bandwidth, TAA maximizes service revenue by
accepting and routing a subset of the requests (Algorithm 2):

1. **Normalize** rates and values into ``[0, 1]`` (divide by their maxima)
   so the Chernoff-Hoeffding bounds of Theorem 5 apply.
2. **Relax** BL-SPM to its LP and solve for the fractional weights
   ``x_hat`` with optimum revenue ``I_hat``.
3. **Scale** the rounding probabilities by ``mu`` chosen per inequality (6)
   so each capacity constraint is violated with probability below
   ``1/(T (N+1))``; the expected revenue becomes ``I_S = mu * I_hat``, and
   Theorem 6 guarantees a schedule with revenue at least
   ``I_B = I_S (1 - D(I_S, 1/(N+1)))`` violating nothing.
4. **Walk** the decision tree with the pessimistic estimator
   (:mod:`repro.core.estimator`), fixing for each request the branch (a
   path, or decline) minimizing the bad-leaf probability bound.

On small instances the Chernoff bounds can be too weak for inequality (6)
to admit any ``mu`` (or for the initial estimator to sit below 1).  The
paper's asymptotic guarantee says nothing there; we keep the construction
total by falling back to ``mu = fallback_mu`` and, after the walk, greedily
declining lowest-value requests until every capacity holds
(``TAAResult.num_repairs`` counts these; it is zero whenever the estimator
started below 1, which the tests assert).

Because the ``mu``-scaled rounding is deliberately conservative (expected
load only ``mu c_e``), the walk's leaf usually leaves capacity unused.  A
final **augmentation** pass re-admits declined requests greedily (highest
bid first, first fitting path) while every capacity still holds.  This can
only increase revenue above the certified floor, so Theorem 6's guarantee
is preserved; disable with ``augment=False`` to run the bare Algorithm 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.chernoff import invert_lower_bound, select_mu
from repro.core.estimator import VectorizedEstimator
from repro.core.fastform import CompiledFormulation, FormulationCompiler
from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.core.sweep import RunSums
from repro.exceptions import AlgorithmError, InfeasibleError, SolverError
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw  # noqa: F401  (bound for perfbench/spans.py)

__all__ = ["TAAResult", "solve_taa"]

EdgeKey = tuple

_CAP_TOL = 1e-9


@dataclass
class TAAResult:
    """Outcome of one TAA run.

    ``relaxation_revenue`` is ``I_hat`` (the BL-SPM LP optimum, an upper
    bound on any feasible revenue); ``revenue_floor`` is ``I_B`` in original
    value units (0 when the bounds were too weak to certify a floor);
    ``estimator_initial`` is ``ln u_root`` before the walk.
    """

    schedule: Schedule
    capacities: dict[EdgeKey, int]
    relaxation_revenue: float
    mu: float
    revenue_floor: float
    estimator_initial: float
    estimator_final: float
    num_repairs: int
    num_augmented: int = 0

    @property
    def revenue(self) -> float:
        return self.schedule.revenue

    @property
    def accepted_ids(self) -> list[int]:
        return self.schedule.accepted_ids

    @property
    def certified(self) -> bool:
        """Whether Theorem 6's premise held (initial estimator below 1).

        Degenerate early-return runs (empty instance, all-zero bids) never
        build an estimator; they report ``estimator_initial = nan`` and are
        *not* certified — no walk happened, so no Theorem 6 premise was
        checked.
        """
        return (
            not math.isnan(self.estimator_initial)
            and self.estimator_initial < 0.0
        )


def solve_taa(
    instance: SPMInstance,
    capacities: dict[EdgeKey, int],
    *,
    fallback_mu: float = 0.5,
    augment: bool = True,
) -> TAAResult:
    """Run Algorithm 2 (TAA) on ``instance`` under ``capacities``.

    ``capacities`` must give a finite integer bandwidth for every directed
    edge of the instance.  TAA is deterministic: no RNG is involved.

    The BL-SPM relaxation is assembled by the instance's cached
    :class:`~repro.core.fastform.FormulationCompiler` (weights read
    straight from the raw solution columns) and the pessimistic estimator
    is built and walked by the vectorized kernel.

    The relaxation is solved through the formulation's
    :class:`~repro.lp.warmstart.ResolveSession`.  The Metis shrink loop
    re-solves BL-SPM over the same request set with only capacity
    right-hand sides moving, so shrinks that the previous optimum's dual
    certificate covers (slack rows with zero duals) skip the solver
    dispatch entirely — with bitwise-identical solutions by the session's
    certification rules.  A relaxation that stops short of optimal raises
    even when an incumbent exists (the rounding analysis assumes the true
    LP optimum ``I_hat``).
    """
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
        # Degenerate: no estimator is built; nan marks "no walk happened"
        # (certified is False — unlike -inf, nan never reads as a held
        # Theorem 6 premise).
        empty = Schedule(instance, {})
        return TAAResult(
            empty, dict(capacities), 0.0, 1.0, 0.0, math.nan, math.nan, 0
        )

    formulation = instance.formulation_compiler().compile_bl_spm(
        instance, capacities, integral=False
    )
    solution = formulation.session.solve(formulation.compiled)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("BL-SPM relaxation is infeasible")
    if not solution.is_optimal:
        raise SolverError(f"BL-SPM relaxation failed: {solution.status}")
    weights = FormulationCompiler.weights_from_raw(formulation, solution.x)
    relaxation_revenue = float(solution.objective)

    requests = instance.requests.requests
    rate_max = max(req.rate for req in requests)
    value_max = max(req.value for req in requests)
    if value_max <= 0:
        # All bids are zero: declining everything is optimal and feasible.
        # Degenerate like the empty case — nan, not certified.
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

    # Revenue floor I_B and the tilt parameters (normalized units).
    scaled_revenue = mu * relaxation_revenue / value_max  # I_S
    one_over_n1 = 1.0 / (num_edges + 1)
    if scaled_revenue > 0:
        gamma = invert_lower_bound(scaled_revenue, one_over_n1)
    else:
        gamma = 1.0
    revenue_floor_norm = scaled_revenue * (1.0 - gamma)
    # Optimal lower-tail tilt exp(-t0 I); gamma=1 degenerates, use a unit tilt.
    t0 = -math.log1p(-gamma) if gamma < 1.0 else 1.0
    t_cap = math.log(1.0 / mu)

    estimator = _build_estimator_fast(
        instance,
        weights,
        capacities,
        mu=mu,
        t0=t0,
        t_cap=t_cap,
        rate_max=rate_max,
        value_max=value_max,
        revenue_floor_norm=revenue_floor_norm,
        formulation=formulation,
    )
    initial = estimator.initial_log_value()
    choices, final = estimator.walk()

    assignment: dict[int, int | None] = {}
    for req, branch in zip(requests, choices):
        n_paths = instance.num_paths(req.request_id)
        assignment[req.request_id] = branch if branch < n_paths else None

    num_repairs = _repair_capacity_violations(instance, assignment, capacities)
    num_augmented = (
        _augment_with_declined(instance, assignment, capacities) if augment else 0
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


def _build_estimator_fast(
    instance: SPMInstance,
    weights: dict[int, list[float]],
    capacities: dict[EdgeKey, int],
    *,
    mu: float,
    t0: float,
    t_cap: float,
    rate_max: float,
    value_max: float,
    revenue_floor_norm: float,
    formulation: CompiledFormulation,
) -> VectorizedEstimator:
    """Assemble the vectorized estimator from the compiled BL formulation.

    The capacity terms of the estimator are exactly the capacity rows of
    BL-SPM (same (edge, slot) pairs, same first-appearance order), so the
    incidence the :class:`~repro.core.fastform.FormulationCompiler`
    already flattened — per entry its capacity-row rank and x column —
    is reused verbatim instead of re-walking requests × paths × edges ×
    slots in Python.  The result's ``initial_log_value``/``walk`` match
    the test-suite's reference estimator (``tests/oracles/estimator.py``)
    to exact float equality — asserted by the fuzz tests.

    The build has no per-request loop, and every float keeps the
    reference's operation order:

    * a request's ``total_p`` is its row of ``p`` summed by
      :class:`~repro.core.sweep.RunSums` (the bits of ``p.sum()``);
    * a capacity term's mass is the sum of its entries' ``p`` from
      ``0.0``, left to right in entry order (the reference's dict
      accumulation): entries are grouped by a stable argsort of
      ``row * num_terms + 1 + term`` and added one rank at a time.
      ``np.add.reduceat`` would sum a 3-entry group in another order and
      change the last bit of ``log_phi``;
    * element-wise products and sums are the reference's IEEE
      operations; the transcendentals are scalar ``math.log``/
      ``math.exp`` (numpy's SIMD ``np.log``/``np.exp`` are not
      bitwise-equal to libm on this platform).
    """
    requests = instance.requests.requests
    num_requests = len(requests)
    offsets = formulation.x_offsets
    entry_terms = formulation.entry_terms
    entry_x_cols = formulation.entry_x_cols
    entries_per_x = formulation.entries_per_x
    num_cap = formulation.cap_edges.size
    num_terms = 1 + num_cap
    num_x = int(offsets[-1])

    # Term constants: revenue term 0, then one per capacity row.
    edge_caps = np.array([capacities[key] for key in instance.edges], dtype=float)
    log_consts = np.empty(num_terms)
    log_consts[0] = t0 * revenue_floor_norm
    log_consts[1:] = -t_cap * (edge_caps[formulation.cap_edges] / rate_max)

    paths_per_req = np.diff(offsets)
    values_arr = np.array([req.value for req in requests])
    rates_arr = np.array([req.rate for req in requests])
    rev_deltas = -t0 * (values_arr / value_max)  # per request
    cap_deltas = t_cap * (rates_arr / rate_max)  # per request

    # Entry spans: entries of x column j live at xe_ptr[j]:xe_ptr[j+1].
    xe_ptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(entries_per_x)]
    )
    req_entry_lo = xe_ptr[offsets[:-1]]
    req_entry_hi = xe_ptr[offsets[1:]]

    # Rounding probabilities of every x column, in column order.
    flat_weights = np.fromiter(
        (w for req in requests for w in weights[req.request_id]),
        dtype=float,
        count=num_x,
    )
    p = np.clip(mu * flat_weights, 0.0, 1.0)
    log_phi = np.zeros((num_requests, num_terms))

    # Revenue factor: accepted with prob total_p, contributing e^{rev}.
    total_p = np.minimum(RunSums(paths_per_req)(p), 1.0)
    rev_em1 = np.array([math.exp(d) for d in rev_deltas.tolist()]) - 1.0
    rev_arg = 1.0 + total_p * rev_em1
    # ``max(arg, 0.0) or 1e-300``: a non-positive argument becomes 1e-300.
    rev_arg = np.where(rev_arg > 0.0, rev_arg, 1e-300)
    log_phi[:, 0] = list(map(math.log, rev_arg.tolist()))

    # Capacity factors: phi = 1 + min(mass, 1) (e^{cap} - 1) per touched
    # term, mass summed per (request, term) group in entry order.
    entry_row = np.repeat(
        np.arange(num_requests, dtype=np.int64), req_entry_hi - req_entry_lo
    )
    keys = entry_row * num_terms + 1 + entry_terms
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_p = p[entry_x_cols[order]]
    first = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    sizes = np.diff(np.append(first, sorted_keys.size))
    mass = 0.0 + sorted_p[first]
    for rank in range(1, int(sizes.max(initial=1))):
        longer = sizes > rank
        mass[longer] += sorted_p[first[longer] + rank]
    group_keys = sorted_keys[first]
    bump = np.array([math.exp(d) for d in cap_deltas.tolist()]) - 1.0
    cap_arg = 1.0 + np.minimum(mass, 1.0) * bump[group_keys // num_terms]
    log_phi.ravel()[group_keys] = list(map(math.log, cap_arg.tolist()))

    # Choice deltas, CSR over branches.  Path branch ``j`` of a request:
    # the revenue delta first, then one cap delta per incidence entry of
    # x column ``j`` in entry order; the trailing decline branch is empty.
    counts_per_x = 1 + entries_per_x
    dptr_x = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts_per_x)])
    total_deltas = int(dptr_x[-1])
    starts = dptr_x[:-1]
    cap_pos = np.ones(total_deltas, dtype=bool)
    cap_pos[starts] = False
    delta_terms = np.empty(total_deltas, dtype=np.int64)
    delta_terms[starts] = 0
    delta_terms[cap_pos] = 1 + entry_terms
    delta_vals = np.empty(total_deltas)
    delta_vals[starts] = np.repeat(rev_deltas, paths_per_req)
    delta_vals[cap_pos] = np.repeat(cap_deltas, req_entry_hi - req_entry_lo)

    # Branch layout: request i owns branches offsets[i]+i .. offsets[i+1]+i,
    # the last one its (delta-free) decline.
    branch_offsets = offsets + np.arange(num_requests + 1, dtype=np.int64)
    branch_counts = np.zeros(num_x + num_requests, dtype=np.int64)
    path_branch = np.ones(num_x + num_requests, dtype=bool)
    path_branch[branch_offsets[1:] - 1] = False
    branch_counts[path_branch] = counts_per_x
    delta_ptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(branch_counts)]
    )

    return VectorizedEstimator(
        num_requests=num_requests,
        branch_offsets=branch_offsets,
        delta_ptr=delta_ptr,
        delta_terms=delta_terms,
        delta_vals=delta_vals,
        log_consts=log_consts,
        log_phi=log_phi,
    )


def _repair_capacity_violations(
    instance: SPMInstance,
    assignment: dict[int, int | None],
    capacities: dict[EdgeKey, int],
) -> int:
    """Decline lowest-value requests until every capacity constraint holds.

    Mutates ``assignment`` in place; returns the number of declines.  This
    is a no-op whenever the estimator certified a good leaf.
    """
    caps = np.array([float(capacities[key]) for key in instance.edges])
    loads = instance.loads(assignment)
    repairs = 0
    while True:
        excess = loads - caps[:, None]
        edge_idx, slot = np.unravel_index(int(np.argmax(excess)), excess.shape)
        if excess[edge_idx, slot] <= _CAP_TOL:
            return repairs
        # Requests routed across this (edge, slot), cheapest bid first.
        offenders = []
        for req in instance.requests:
            path_idx = assignment[req.request_id]
            if path_idx is None or not req.is_active(int(slot)):
                continue
            if int(edge_idx) in instance.path_edges[req.request_id][path_idx]:
                offenders.append(req)
        if not offenders:
            raise AlgorithmError(
                "capacity violation with no assigned request — inconsistent loads"
            )
        victim = min(offenders, key=lambda r: r.value)
        path_idx = assignment[victim.request_id]
        edge_indices = instance.path_edges[victim.request_id][path_idx]
        loads[edge_indices, victim.start : victim.end + 1] -= victim.rate
        assignment[victim.request_id] = None
        repairs += 1


def _augment_with_declined(
    instance: SPMInstance,
    assignment: dict[int, int | None],
    capacities: dict[EdgeKey, int],
) -> int:
    """Re-admit declined requests that still fit, highest value density first.

    Density is the bid per unit of network resource the request occupies
    (``value / (rate * duration * shortest-path hops)``), the natural greedy
    order for packing under capacity: it prefers many small valuable
    requests over one large one of equal total bid.

    Mutates ``assignment`` in place and returns the number of re-admitted
    requests.  Each candidate is placed on its first (cheapest) path whose
    residual capacity covers the full active window; feasibility is
    preserved by construction.
    """
    caps = np.array([float(capacities[key]) for key in instance.edges])
    residual = caps[:, None] - instance.loads(assignment)
    declined = [
        instance.request(rid) for rid, p in assignment.items() if p is None
    ]

    def density(req) -> float:
        hops = len(instance.path_edges[req.request_id][0])
        return req.value / (req.rate * req.duration * max(hops, 1))

    admitted = 0
    for req in sorted(declined, key=density, reverse=True):
        for path_idx in range(instance.num_paths(req.request_id)):
            edge_idx = instance.path_edges[req.request_id][path_idx]
            window = residual[edge_idx, req.start : req.end + 1]
            if window.min() >= req.rate - _CAP_TOL:
                assignment[req.request_id] = path_idx
                residual[edge_idx, req.start : req.end + 1] -= req.rate
                admitted += 1
                break
    return admitted
