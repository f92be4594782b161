"""The HiGHS driver: compiled models solved in process, through scipy's bindings.

scipy ships the HiGHS bindings its ``linprog``/``milp`` wrappers call
(``scipy.optimize._highspy._core``); this module calls them itself.  Each
solve hands HiGHS exactly the model and options those wrappers passed, so
solutions are byte-identical to them (``tests/oracles/lp/scipy_backend.py``
keeps the wrapper path as the differential oracle), without the wrappers'
per-call input re-validation, sparse re-stacking, option-name checks and
Python loop over bound marginals.

* **Pure LPs** go in linprog's standard form: finite-upper rows, then the
  negated finite-lower rows (both ``<= rhs``), then equality rows; dual
  simplex with presolve on.  The row split, the column-wise matrix in that
  row order and the column bounds depend only on the model's structure,
  so they are built once and kept on the model's ``split_cache``.
* **MILPs** go in milp's form: the compiled rows as they are, with the
  integrality pattern.

Statuses follow scipy's HiGHS table, and an "optimal" LP point that breaks
a bound or a row by more than linprog's tolerance is an ``ERROR``, as
linprog's result check made it.  :func:`solve_compiled_raw` returns a
:class:`~repro.lp.result.RawSolution` holding the raw column vector; the
builder that assembled the model maps columns back to problem entities.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.lp.model import CompiledModel
from repro.lp.result import RawSolution, SolveStatus

#: The first scipy release whose HiGHS bindings this driver calls.
SCIPY_FLOOR = "1.15.0"

try:
    from scipy.optimize._highspy import _core as _highs

    _Highs = _highs._Highs
    _HighsLp = _highs.HighsLp
    _HighsOptions = _highs.HighsOptions
    _HighsSparseMatrix = _highs.HighsSparseMatrix
    _HighsVarType = _highs.HighsVarType
    _COLWISE = _highs.MatrixFormat.kColwise
    _DEBUG_NONE = _highs.HighsDebugLevel.kHighsDebugLevelNone
    _MODEL_STATUS = _highs.HighsModelStatus
    _ERROR = _highs.HighsStatus.kError
    _INF = _highs.kHighsInf
except (ImportError, AttributeError) as exc:  # pragma: no cover - old scipy
    raise ImportError(
        f"repro.lp.solvers drives HiGHS through scipy's bindings "
        f"(scipy.optimize._highspy._core), which need scipy>={SCIPY_FLOOR}"
    ) from exc

__all__ = ["SCIPY_FLOOR", "solve_compiled_raw"]

# scipy's HiGHS status table (``_highs_to_scipy_status_message``), kept
# whole: kModelError -- a model HiGHS refused to load -- counts as
# INFEASIBLE there.  Any other status is an ERROR.
_STATUS = {
    _MODEL_STATUS.kOptimal: SolveStatus.OPTIMAL,
    _MODEL_STATUS.kInfeasible: SolveStatus.INFEASIBLE,
    _MODEL_STATUS.kModelError: SolveStatus.INFEASIBLE,
    _MODEL_STATUS.kUnbounded: SolveStatus.UNBOUNDED,
}
#: Limit hits: ``FEASIBLE`` with an incumbent, ``TIME_LIMIT`` without one.
_LIMITS = (_MODEL_STATUS.kTimeLimit, _MODEL_STATUS.kIterationLimit)
#: A MILP that stops on one of these still carries its incumbent, if any.
_MILP_STOPS = (*_LIMITS, _MODEL_STATUS.kSolutionLimit)

#: linprog's feasibility tolerance for an "optimal" point: sqrt(tol) * 10
#: with its default ``tol`` of 1e-9.
_POINT_TOL = np.sqrt(1e-9) * 10


def _options(*, lp: bool, time_limit: float | None):
    """The options linprog (``lp=True``) or milp set, and nothing else."""
    options = _HighsOptions()
    options.log_to_console = False
    if lp:
        options.presolve = "on"
        options.simplex_strategy = 1  # kSimplexStrategyDual
        options.highs_debug_level = _DEBUG_NONE
        options.output_flag = False
    # A negative limit fails HiGHS's option check; the wrappers warned and
    # solved without one.
    if time_limit is not None and not time_limit < 0:
        options.time_limit = float(time_limit)
    return options


_LP_OPTIONS = _options(lp=True, time_limit=None)
_MILP_OPTIONS = _options(lp=False, time_limit=None)


def solve_compiled_raw(
    compiled: CompiledModel,
    *,
    time_limit: float | None = None,
    check_cancelled=None,
) -> RawSolution:
    """Solve a :class:`~repro.lp.model.CompiledModel`, returning raw arrays.

    ``time_limit`` (seconds) is HiGHS's own ``time_limit`` option on both
    paths, so serving-path solves are always bounded.  A solve that hits
    the limit returns the incumbent with status ``FEASIBLE`` when one
    exists, and ``TIME_LIMIT`` (no values) otherwise — feasible incumbents
    are first-class, never discarded.

    ``check_cancelled`` is an optional zero-argument callable polled before
    the solver is dispatched; returning truthy raises
    :class:`~repro.exceptions.SolverError`.  Solver worker pools use it to
    drain queued work cooperatively after a sibling task fails.

    A non-finite objective or constraint coefficient raises
    :class:`ValueError`.
    """
    if check_cancelled is not None and check_cancelled():
        raise SolverError("solve cancelled before dispatch")
    if np.any(compiled.integrality):
        return _solve_milp(compiled, time_limit=time_limit)
    return _solve_lp(compiled, time_limit=time_limit)


class _LpForm:
    """One constraint structure in linprog's standard form, ready for HiGHS.

    The row split (finite-upper, finite-lower and equality rows), the
    column-wise matrix with its rows in that order (lower rows negated) and
    the column bounds depend only on *which* row bounds are finite or
    equal, never on their values.  So the form is built once per structure
    and cached on :attr:`CompiledModel.split_cache`, which
    ``with_row_upper``/``with_objective`` derivatives inherit; ``matches``
    re-derives the masks per solve and rejects the cache if a bound rewrite
    ever changed the split.
    """

    __slots__ = (
        "finite_eq", "rows_ub", "rows_lb", "eq_idx", "ub_idx", "lb_idx",
        "matrix", "col_lower", "col_upper", "ineq_lower",
    )

    def __init__(self, compiled: CompiledModel) -> None:
        finite_eq = compiled.row_lower == compiled.row_upper
        self.finite_eq = finite_eq
        self.rows_ub = ~finite_eq & np.isfinite(compiled.row_upper)
        self.rows_lb = ~finite_eq & np.isfinite(compiled.row_lower)
        self.eq_idx = np.flatnonzero(finite_eq)
        self.ub_idx = np.flatnonzero(self.rows_ub)
        self.lb_idx = np.flatnonzero(self.rows_lb)
        num_ineq = self.ub_idx.size + self.lb_idx.size
        rows = compiled.a_matrix[
            np.concatenate((self.ub_idx, self.lb_idx, self.eq_idx))
        ]
        lower = slice(rows.indptr[self.ub_idx.size], rows.indptr[num_ineq])
        rows.data[lower] = -rows.data[lower]
        if not np.isfinite(rows.data).all():
            raise ValueError("constraint matrix holds inf or nan")
        self.matrix = _colwise(rows)
        # linprog reads a nan column bound as no bound.
        col_lower = np.where(
            np.isnan(compiled.var_lower), -np.inf, compiled.var_lower
        )
        col_upper = np.where(
            np.isnan(compiled.var_upper), np.inf, compiled.var_upper
        )
        self.col_lower = _highs_inf(col_lower)
        self.col_upper = _highs_inf(col_upper)
        self.ineq_lower = np.full(num_ineq, -_INF)

    def matches(self, compiled: CompiledModel) -> bool:
        finite_eq = compiled.row_lower == compiled.row_upper
        if not np.array_equal(finite_eq, self.finite_eq):
            return False
        return np.array_equal(
            ~finite_eq & np.isfinite(compiled.row_upper), self.rows_ub
        ) and np.array_equal(
            ~finite_eq & np.isfinite(compiled.row_lower), self.rows_lb
        )


def _lp_form(compiled: CompiledModel) -> _LpForm:
    form = compiled.split_cache
    if isinstance(form, _LpForm) and form.matches(compiled):
        return form
    form = _LpForm(compiled)
    compiled.split_cache = form
    return form


def _colwise(matrix) -> _HighsSparseMatrix:
    """``matrix`` as a HiGHS column-wise matrix (converted once, copied per use)."""
    csc = matrix.tocsc()
    out = _HighsSparseMatrix()
    out.format_ = _COLWISE
    out.num_row_, out.num_col_ = csc.shape
    # The integer setters copy element by element; from a list they copy
    # about a third faster than from an array.
    out.start_ = csc.indptr.tolist()
    out.index_ = csc.indices.tolist()
    out.value_ = csc.data
    return out


def _highs_inf(values: np.ndarray) -> np.ndarray:
    """``values`` with every ``±inf`` written as HiGHS's ``±kHighsInf``."""
    infinite = np.isinf(values)
    if infinite.any():
        values = values.copy()
        values[infinite] = np.sign(values[infinite]) * _INF
    return values


def _cost(compiled: CompiledModel) -> np.ndarray:
    c = compiled.c
    if c.size == 0 or not np.isfinite(c).all():
        raise ValueError("objective must be a non-empty vector of finite numbers")
    return c


def _run(lp, options) -> tuple:
    """Pass ``lp`` to a fresh HiGHS and run it: ``(model status, highs)``.

    A model HiGHS refuses to load reports ``kModelError``, as in scipy's
    wrapper; refused options or a failed run report whatever status HiGHS
    was left in.  The second item is ``None`` when there is no point to
    read.
    """
    highs = _Highs()
    if highs.passOptions(options) == _ERROR:
        return highs.getModelStatus(), None
    if highs.passModel(lp) == _ERROR:
        return _MODEL_STATUS.kModelError, None
    if highs.run() == _ERROR:
        return highs.getModelStatus(), None
    return highs.getModelStatus(), highs


def _finish(
    compiled: CompiledModel, model_status, x: np.ndarray | None, fun
) -> RawSolution:
    """Map a HiGHS outcome to a :class:`RawSolution` (both paths)."""
    if model_status in _LIMITS:
        status = SolveStatus.FEASIBLE if x is not None else SolveStatus.TIME_LIMIT
    else:
        status = _STATUS.get(model_status, SolveStatus.ERROR)
    if status not in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        return RawSolution(status=status, objective=float("nan"))
    if x is None:
        raise SolverError(
            f"solver reported {status.value} but returned no solution"
        )
    return RawSolution(
        status=status,
        objective=compiled.sign * float(fun) + compiled.objective_constant,
        x=x,
    )


def _solve_lp(
    compiled: CompiledModel,
    *,
    time_limit: float | None = None,
    duals: bool = False,
) -> RawSolution:
    """A pure LP in linprog's form; ``duals`` attaches ``upper_duals``."""
    c = _cost(compiled)
    form = _lp_form(compiled)
    b_eq = compiled.row_upper[form.eq_idx]
    if not np.isfinite(b_eq).all():
        raise ValueError("equality row bound is inf or nan")
    rhs = np.concatenate((
        compiled.row_upper[form.ub_idx], -compiled.row_lower[form.lb_idx], b_eq
    ))
    lp = _HighsLp()
    lp.num_col_ = c.size
    lp.num_row_ = rhs.size
    lp.a_matrix_ = form.matrix
    lp.col_cost_ = c
    lp.col_lower_ = form.col_lower
    lp.col_upper_ = form.col_upper
    lp.row_lower_ = np.concatenate((form.ineq_lower, b_eq))
    lp.row_upper_ = rhs
    options = (
        _LP_OPTIONS if time_limit is None
        else _options(lp=True, time_limit=time_limit)
    )
    model_status, highs = _run(lp, options)
    if model_status != _MODEL_STATUS.kOptimal:
        return _finish(compiled, model_status, None, None)
    if highs is None:
        # "Optimal", yet the run failed and left no point: linprog's
        # result check made that an error.
        return RawSolution(status=SolveStatus.ERROR, objective=float("nan"))
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = rhs - np.array(solution.row_value)
    if not _point_holds(form, x, fun, slack):
        return RawSolution(status=SolveStatus.ERROR, objective=float("nan"))
    result = _finish(compiled, model_status, x, fun)
    if duals:
        row_dual = np.array(solution.row_dual)
        upper_duals = np.zeros(compiled.row_upper.size)
        upper_duals[form.eq_idx] = row_dual[rhs.size - form.eq_idx.size:]
        upper_duals[form.ub_idx] = row_dual[: form.ub_idx.size]
        result.upper_duals = upper_duals
    return result


def _point_holds(form: _LpForm, x: np.ndarray, fun, slack: np.ndarray) -> bool:
    """linprog's check of an "optimal" point: bounds, slacks and residuals."""
    num_ineq = form.ineq_lower.size
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any():
        return False
    return bool(
        np.all(x >= form.col_lower - _POINT_TOL)
        and np.all(x <= form.col_upper + _POINT_TOL)
        and not (slack[:num_ineq] < -_POINT_TOL).any()
        and not (np.abs(slack[num_ineq:]) > _POINT_TOL).any()
    )


def _solve_milp(
    compiled: CompiledModel, *, time_limit: float | None = None
) -> RawSolution:
    """A model with integral columns, in milp's form."""
    c = _cost(compiled)
    integrality = compiled.integrality
    if integrality.min() < 0 or integrality.max() > 3:
        raise ValueError("integrality must hold integers 0-3")
    if not np.isfinite(compiled.a_matrix.data).all():
        raise ValueError("constraint matrix holds inf or nan")
    lp = _HighsLp()
    lp.num_col_ = c.size
    lp.num_row_ = compiled.row_upper.size
    lp.a_matrix_ = _colwise(compiled.a_matrix)
    lp.col_cost_ = c
    lp.col_lower_ = compiled.var_lower
    lp.col_upper_ = compiled.var_upper
    lp.row_lower_ = compiled.row_lower
    lp.row_upper_ = compiled.row_upper
    lp.integrality_ = [_HighsVarType(int(kind)) for kind in integrality]
    options = (
        _MILP_OPTIONS if time_limit is None
        else _options(lp=False, time_limit=time_limit)
    )
    model_status, highs = _run(lp, options)
    if highs is None or model_status not in (_MODEL_STATUS.kOptimal, *_MILP_STOPS):
        return _finish(compiled, model_status, None, None)
    fun = highs.getInfo().objective_function_value
    if model_status in _MILP_STOPS and fun == _INF:
        return _finish(compiled, model_status, None, None)  # no incumbent
    x = np.array(highs.getSolution().col_value)
    return _finish(compiled, model_status, x, fun)
