"""The exact optima: OPT(SPM) and OPT(RL-SPM) (paper §V-B.1).

Both are the ILPs of §II solved to optimality — the paper uses Gurobi, we
use HiGHS through :mod:`repro.lp` (cross-checked against the from-scratch
branch-and-bound solver in the tests).  OPT(SPM) jointly optimizes
acceptance, routing and purchased bandwidth; OPT(RL-SPM) is the "current
service mode" yardstick that must accept *every* request and can only
optimize routing and bandwidth.  Both models come from the instance's
:class:`~repro.core.fastform.FormulationCompiler`.  It reads the
topology's capacity ceilings (OPT(SPM)'s bounds on ``c_e``) once, at its
first ``compile_spm``; nothing in the library changes a topology's
ceilings after an instance is built on it.

Exact solves are exponential in the worst case (SPM is NP-hard, Theorem 1):
the paper reports >1000 s at 400 requests.  ``time_limit`` keeps benchmark
sweeps bounded; hitting it raises rather than silently returning a
suboptimal answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fastform import CompiledFormulation
from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.exceptions import InfeasibleError, ModelError, SolverError
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw

__all__ = ["OptResult", "solve_opt_spm", "solve_opt_rl_spm"]


@dataclass
class OptResult:
    """An exact optimum: the schedule and the solver's objective value."""

    schedule: Schedule
    objective: float

    @property
    def profit(self) -> float:
        return self.schedule.profit


def solve_opt_spm(
    instance: SPMInstance, *, time_limit: float | None = None
) -> OptResult:
    """The exact SPM optimum: accept/route/purchase to maximize profit."""
    formulation = instance.formulation_compiler().compile_spm(
        instance, integral=True
    )
    return _solve_exact(instance, formulation, "SPM", time_limit)


def solve_opt_rl_spm(
    instance: SPMInstance, *, time_limit: float | None = None
) -> OptResult:
    """The exact RL-SPM optimum: accept everything, minimize cost.

    The returned ``objective`` is the minimum cost; the schedule's profit is
    ``total request value - objective``.
    """
    formulation = instance.formulation_compiler().compile_rl_spm(
        instance, integral=True
    )
    return _solve_exact(instance, formulation, "RL-SPM", time_limit)


def _solve_exact(
    instance: SPMInstance,
    formulation: CompiledFormulation,
    name: str,
    time_limit: float | None,
) -> OptResult:
    """Solve one exact ILP and build the schedule of its optimum.

    The schedule charges each edge the ceiling of its peak load rather
    than the solver's ``c`` columns: at an optimum the two coincide on
    every priced edge, and recomputing also trims the slack HiGHS may
    leave in ``c`` on zero-price or zero-load edges.
    """
    solution = solve_compiled_raw(formulation.compiled, time_limit=time_limit)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError(f"{name} ILP is infeasible")
    if not solution.is_optimal:
        raise SolverError(
            f"OPT({name}) did not reach optimality (status {solution.status}); "
            "raise time_limit or shrink the instance"
        )
    assignment = _assignment_from_x(formulation, solution.x)
    return OptResult(
        schedule=Schedule(instance, assignment),
        objective=float(solution.objective),
    )


def _assignment_from_x(
    formulation: CompiledFormulation, x: np.ndarray, *, tol: float = 1e-6
) -> dict[int, int | None]:
    """Read an integral solution back as an assignment map.

    The x columns are rounded to integers first (HiGHS may return
    0.999998 for a binary); a column left strictly between ``tol`` and
    ``1 - tol``, or two chosen paths for one request, raise
    :class:`~repro.exceptions.ModelError`.
    """
    rounded = np.rint(x[: formulation.num_x])
    offsets = formulation.x_offsets
    assignment: dict[int, int | None] = {}
    for i, rid in enumerate(formulation.request_ids):
        chosen = None
        for j, value in enumerate(rounded[offsets[i] : offsets[i + 1]].tolist()):
            if value > 1 - tol:
                if chosen is not None:
                    raise ModelError(f"request {rid}: multiple paths selected")
                chosen = j
            elif value > tol:
                raise ModelError(f"request {rid}: fractional x[{j}] = {value:.6f}")
        assignment[rid] = chosen
    return assignment
