"""The scipy wrapper backend the runtime HiGHS driver replaced.

:mod:`repro.lp.solvers` passes HiGHS the model through scipy's own
bindings.  Until then every pure LP went through
``scipy.optimize.linprog(method="highs")`` and every MILP through
``scipy.optimize.milp``.  Those two paths are kept here verbatim (with the
linprog row split they used) as the differential oracle: the driver must
return byte-identical ``x``, objective, status and ``upper_duals``.

:func:`solve_compiled_raw` dispatches exactly as the runtime entry point
does.  It builds its row split per call and never touches the model's
``split_cache``, which belongs to the driver.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from repro.exceptions import SolverError
from repro.lp.model import CompiledModel
from repro.lp.result import RawSolution, SolveStatus

__all__ = ["solve_compiled_raw", "solve_lp_with_duals"]


def solve_compiled_raw(
    compiled: CompiledModel, *, time_limit: float | None = None
) -> RawSolution:
    """Solve ``compiled`` through ``linprog``/``milp``, as the runtime did."""
    if np.any(compiled.integrality):
        return _solve_milp(compiled, time_limit=time_limit)
    return _solve_linprog(compiled, time_limit=time_limit)


def solve_lp_with_duals(
    compiled: CompiledModel, *, time_limit: float | None = None
) -> RawSolution:
    """A pure LP through ``linprog``, with its ``upper_duals`` attached."""
    return _solve_linprog(compiled, time_limit=time_limit, duals=True)


#: scipy status code for "iteration or time limit reached" (both backends).
#: Mapped to ``FEASIBLE`` when an incumbent is present, ``TIME_LIMIT``
#: otherwise — never to ``ERROR``, so callers can keep a usable incumbent.
_LIMIT_CODE = 1

# scipy linprog/milp status codes -> normalized status (limit handled above)
_STATUS = {
    0: SolveStatus.OPTIMAL,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def _finish(compiled: CompiledModel, result) -> RawSolution:
    """Map a scipy result to a :class:`RawSolution` (shared by both paths)."""
    if result.status == _LIMIT_CODE:
        status = (
            SolveStatus.FEASIBLE if result.x is not None else SolveStatus.TIME_LIMIT
        )
    else:
        status = _STATUS.get(result.status, SolveStatus.ERROR)
    if status not in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        return RawSolution(status=status, objective=float("nan"))
    if result.x is None:
        raise SolverError(
            f"solver reported {status.value} but returned no solution"
        )
    return RawSolution(
        status=status,
        objective=compiled.sign * float(result.fun) + compiled.objective_constant,
        x=np.asarray(result.x),
    )


class _RowSplit:
    """The linprog-side standard-form split of one constraint structure.

    scipy's ``linprog`` wants ``A_ub x <= b_ub`` and ``A_eq x == b_eq``,
    so every solve must partition the model's ranged rows into equality /
    finite-upper / finite-lower sets and stack the (negated-lower) pieces.
    The partition and the stacked matrices depend only on *which* bounds
    are finite or equal, never on their values.  (The runtime cached them
    on the :class:`CompiledModel`; here they are built per call, and
    ``validate`` is kept as it was.)

    The per-solve leftovers are pure takes: ``b_ub``/``b_eq`` gather the
    current bound values through the precomputed index arrays, in exactly
    the order the unsplit path concatenated them, so the solver sees
    bitwise-identical inputs.
    """

    __slots__ = (
        "finite_eq", "rows_ub", "rows_lb", "eq_idx", "ub_idx", "lb_idx",
        "a_ub", "a_eq", "bounds", "num_ub",
    )

    def __init__(self, compiled: CompiledModel) -> None:
        finite_eq = compiled.row_lower == compiled.row_upper
        rows_ub = ~finite_eq & np.isfinite(compiled.row_upper)
        rows_lb = ~finite_eq & np.isfinite(compiled.row_lower)
        self.finite_eq = finite_eq
        self.rows_ub = rows_ub
        self.rows_lb = rows_lb
        self.eq_idx = np.flatnonzero(finite_eq)
        self.ub_idx = np.flatnonzero(rows_ub)
        self.lb_idx = np.flatnonzero(rows_lb)
        self.num_ub = self.ub_idx.size
        a_matrix = compiled.a_matrix
        a_ub_parts = []
        if self.ub_idx.size:
            a_ub_parts.append(a_matrix[rows_ub])
        if self.lb_idx.size:
            a_ub_parts.append(-a_matrix[rows_lb])
        self.a_ub = sparse.vstack(a_ub_parts).tocsr() if a_ub_parts else None
        self.a_eq = a_matrix[finite_eq] if self.eq_idx.size else None
        self.bounds = np.column_stack((compiled.var_lower, compiled.var_upper))

    def validate(self, compiled: CompiledModel) -> bool:
        finite_eq = compiled.row_lower == compiled.row_upper
        if not np.array_equal(finite_eq, self.finite_eq):
            return False
        return np.array_equal(
            ~finite_eq & np.isfinite(compiled.row_upper), self.rows_ub
        ) and np.array_equal(
            ~finite_eq & np.isfinite(compiled.row_lower), self.rows_lb
        )


def _row_split(compiled: CompiledModel) -> _RowSplit:
    # Built per call: ``split_cache`` belongs to the runtime driver.
    return _RowSplit(compiled)


def _solve_linprog(
    compiled: CompiledModel,
    *,
    time_limit: float | None = None,
    duals: bool = False,
) -> RawSolution:
    split = _row_split(compiled)

    b_ub_parts = []
    if split.ub_idx.size:
        b_ub_parts.append(compiled.row_upper[split.rows_ub])
    if split.lb_idx.size:
        b_ub_parts.append(-compiled.row_lower[split.rows_lb])
    b_ub = np.concatenate(b_ub_parts) if b_ub_parts else None
    b_eq = compiled.row_upper[split.finite_eq] if split.eq_idx.size else None

    result = optimize.linprog(
        compiled.c,
        A_ub=split.a_ub,
        b_ub=b_ub,
        A_eq=split.a_eq,
        b_eq=b_eq,
        bounds=split.bounds,
        method="highs",
        options=None if time_limit is None else {"time_limit": float(time_limit)},
    )
    solution = _finish(compiled, result)
    if duals and solution.x is not None:
        upper_duals = np.zeros(compiled.row_upper.size)
        if split.eq_idx.size:
            upper_duals[split.eq_idx] = np.asarray(result.eqlin.marginals)
        if split.ub_idx.size:
            marginals = np.asarray(result.ineqlin.marginals)
            upper_duals[split.ub_idx] = marginals[: split.num_ub]
        solution.upper_duals = upper_duals
    return solution


def _solve_milp(
    compiled: CompiledModel, *, time_limit: float | None = None
) -> RawSolution:
    constraints = optimize.LinearConstraint(
        compiled.a_matrix, compiled.row_lower, compiled.row_upper
    )
    bounds = optimize.Bounds(compiled.var_lower, compiled.var_upper)
    options = {} if time_limit is None else {"time_limit": float(time_limit)}
    result = optimize.milp(
        compiled.c,
        constraints=constraints,
        bounds=bounds,
        integrality=compiled.integrality,
        options=options,
    )
    return _finish(compiled, result)
