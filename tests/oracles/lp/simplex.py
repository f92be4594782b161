"""A from-scratch dense two-phase simplex LP solver.

Third, fully independent backend for the LP layer (after scipy-HiGHS and
the branch-and-bound/relaxation pair): a textbook tableau simplex with
Bland's anti-cycling rule.  It exists for *verification* — the test-suite
cross-checks HiGHS against it on randomly generated LPs and on the paper's
relaxations — not for performance; it is dense and O(rows x cols) per
pivot.

Scope (enough for every relaxation in this library):

* variables with lower bound 0 (finite upper bounds become rows);
* ``<=``, ``>=`` and ``==`` rows;
* minimization or maximization.

Unsupported variable lower bounds (< 0 or > 0) raise
:class:`~repro.exceptions.SolverError` rather than silently mis-solving.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import SolverError
from repro.lp.model import CompiledModel
from repro.lp.result import RawSolution, SolveStatus

from tests.oracles.lp.model import Model
from tests.oracles.lp.result import Solution

__all__ = ["simplex_solve", "simplex_solve_model", "WarmSimplex"]

_EPS = 1e-9
#: Entering threshold: a column must price out this negative to pivot in.
#: Bland's rule only guarantees termination in exact arithmetic — with a
#: threshold at float-noise level (1e-9), accumulated round-off can make a
#: reduced cost flicker around zero and the walk stall on degenerate
#: vertices.  1e-7 is far above tableau noise for the well-scaled LPs this
#: backend sees, and far below any meaningful reduced cost.
_ENTER_EPS = 1e-7
_MAX_PIVOTS = 50_000
#: Primal feasibility tolerance, HiGHS's default: phase 1 may leave this
#: much total artificial residue, and no basic value may sit further than
#: this below zero once the artificials are pivoted out.
_FEAS_TOL = 1e-7


def simplex_solve_model(model: Model) -> Solution:
    """Solve ``model``'s LP relaxation with the from-scratch simplex."""
    return simplex_solve(model.compile(relax_integrality=True))


def simplex_solve(compiled: CompiledModel) -> Solution:
    """Solve a compiled model (integrality ignored — LP relaxation)."""
    c, a_rows, b = _to_standard_form(compiled)
    status, x, objective = _two_phase_simplex(c, a_rows, b)
    if status is not SolveStatus.OPTIMAL:
        return Solution(status=status, objective=float("nan"))
    values = {
        var: float(x[var.index]) for var in compiled.variables
    }
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=compiled.sign * objective + compiled.objective_constant,
        values=values,
    )


def _to_standard_form(compiled: CompiledModel):
    """Convert to ``min c'x  s.t.  rows (<=, >=, ==),  x >= 0``.

    Returns ``(c, rows, b)`` where ``rows`` is a list of
    ``(coefficients, sense)`` with sense in {-1: <=, 0: ==, +1: >=}.
    """
    n = compiled.c.size
    bad = np.flatnonzero(np.asarray(compiled.var_lower) != 0.0)
    if bad.size:
        raise SolverError(
            f"simplex backend requires lower bound 0, column "
            f"{int(bad[0])} has {float(compiled.var_lower[bad[0]])}"
        )
    dense = compiled.a_matrix.toarray()
    rows: list[np.ndarray] = []
    senses: list[int] = []
    b: list[float] = []
    for i in range(dense.shape[0]):
        lower, upper = compiled.row_lower[i], compiled.row_upper[i]
        if lower == upper:
            rows.append(dense[i])
            senses.append(0)
            b.append(float(upper))
            continue
        if math.isfinite(upper):
            rows.append(dense[i])
            senses.append(-1)
            b.append(float(upper))
        if math.isfinite(lower):
            rows.append(dense[i])
            senses.append(1)
            b.append(float(lower))
    for col in range(n):
        if math.isfinite(compiled.var_upper[col]):
            row = np.zeros(n)
            row[col] = 1.0
            rows.append(row)
            senses.append(-1)
            b.append(float(compiled.var_upper[col]))
    return (
        compiled.c.astype(float),
        list(zip(rows, senses)),
        np.array(b, dtype=float),
    )


def _two_phase_simplex(c, a_rows, b):
    """Textbook two-phase tableau simplex with Bland's rule."""
    n = len(c)
    m = len(a_rows)
    if m == 0:
        # Unconstrained over x >= 0: finite iff c >= 0.
        if np.any(c < -_EPS):
            return SolveStatus.UNBOUNDED, None, math.nan
        return SolveStatus.OPTIMAL, np.zeros(n), 0.0

    # Normalize to b >= 0 by flipping rows.
    rows = []
    senses = []
    rhs = []
    for (row, sense), bi in zip(a_rows, b):
        if bi < 0:
            rows.append(-row)
            senses.append(-sense)
            rhs.append(-bi)
        else:
            rows.append(row.copy())
            senses.append(sense)
            rhs.append(bi)

    # Columns: original n | slacks/surplus | artificials.
    slack_count = sum(1 for s in senses if s != 0)
    artificial_needed = [s != -1 for s in senses]  # >= and == rows
    art_count = sum(artificial_needed)
    total = n + slack_count + art_count

    tableau = np.zeros((m, total))
    basis = np.empty(m, dtype=int)
    slack_idx = n
    art_idx = n + slack_count
    for i, (row, sense) in enumerate(zip(rows, senses)):
        tableau[i, :n] = row
        if sense == -1:
            tableau[i, slack_idx] = 1.0
            basis[i] = slack_idx
            slack_idx += 1
        elif sense == 1:
            tableau[i, slack_idx] = -1.0
            slack_idx += 1
        if sense != -1:
            tableau[i, art_idx] = 1.0
            basis[i] = art_idx
            art_idx += 1
    rhs = np.array(rhs, dtype=float)

    # Phase 1: minimize the sum of artificials.
    if art_count:
        phase1_c = np.zeros(total)
        phase1_c[n + slack_count :] = 1.0
        status = _optimize(tableau, rhs, basis, phase1_c)
        if status is not SolveStatus.OPTIMAL:
            raise SolverError("phase-1 simplex failed to terminate")
        phase1_value = phase1_c[basis] @ rhs
        if phase1_value > _FEAS_TOL:
            return SolveStatus.INFEASIBLE, None, math.nan
        # Pivot any artificial still in the basis out (or drop its row).
        for i in range(m):
            if basis[i] >= n + slack_count:
                pivot_col = next(
                    (
                        j
                        for j in range(n + slack_count)
                        if abs(tableau[i, j]) > _EPS
                    ),
                    None,
                )
                if pivot_col is not None:
                    _pivot(tableau, rhs, basis, i, pivot_col)
        # Pivoting out an artificial moves its residue into the variable it
        # swaps in, scaled by 1/coefficient: a residue within tolerance in
        # row space can still push a variable past its bound.
        if rhs.min() < -_FEAS_TOL:
            return SolveStatus.INFEASIBLE, None, math.nan
        # Freeze artificial columns at zero.
        tableau[:, n + slack_count :] = 0.0

    # Phase 2: original objective (zero cost on slack/artificials).
    phase2_c = np.zeros(total)
    phase2_c[:n] = c
    status = _optimize(tableau, rhs, basis, phase2_c)
    if status is not SolveStatus.OPTIMAL:
        return status, None, math.nan

    x = np.zeros(total)
    x[basis] = rhs
    return SolveStatus.OPTIMAL, x[:n], float(c @ x[:n])


def _optimize(tableau, rhs, basis, costs):
    """Primal simplex iterations on the tableau; Bland's rule throughout."""
    m, total = tableau.shape
    for _ in range(_MAX_PIVOTS):
        # Reduced costs: c_j - c_B' B^-1 A_j; tableau rows are already
        # B^-1 A, so reduced = costs - costs[basis] @ tableau.
        reduced = costs - costs[basis] @ tableau
        entering = next(
            (j for j in range(total) if reduced[j] < -_ENTER_EPS), None
        )
        if entering is None:
            return SolveStatus.OPTIMAL
        column = tableau[:, entering]
        candidates = [
            (rhs[i] / column[i], basis[i], i)
            for i in range(m)
            if column[i] > _EPS
        ]
        if not candidates:
            return SolveStatus.UNBOUNDED
        # Bland: min ratio, ties by smallest basis variable index.
        _, _, leaving_row = min(candidates, key=lambda t: (t[0], t[1]))
        _pivot(tableau, rhs, basis, leaving_row, entering)
    raise SolverError(f"simplex exceeded {_MAX_PIVOTS} pivots")


def _pivot(tableau, rhs, basis, row, col) -> None:
    pivot_value = tableau[row, col]
    tableau[row] /= pivot_value
    rhs[row] /= pivot_value
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > _EPS:
            factor = tableau[i, col]
            tableau[i] -= factor * tableau[row]
            rhs[i] -= factor * rhs[row]
    basis[row] = col


class WarmSimplex:
    """Dual-simplex re-solves of one LP structure under moving row bounds.

    The in-tree warm-start path: the first ``solve_raw`` runs the cold
    two-phase simplex and captures the oriented standard-form matrix and
    the optimal basis.  Later solves of the *same structure* (same
    constraint matrix and column bounds, changed ``row_lower`` /
    ``row_upper`` values) rebuild only the right-hand side, refactorize the
    stored basis, and run dual-simplex pivots from it: the basis stays dual
    feasible when ``b`` moves (reduced costs never involve ``b``), so the
    re-solve needs exactly as many pivots as the bound change displaced the
    optimum — typically zero for the slack-row tightenings of the Metis
    shrink loop.

    Like the cold backend this exists for *verification*, not speed: the
    equivalence suites cross-check :class:`~repro.lp.warmstart.ResolveSession`
    certificates against it on small LPs.  Dense, O(rows²·cols) per warm
    re-solve.
    """

    def __init__(self) -> None:
        self.cold_solves = 0
        self.warm_resolves = 0
        self.dual_pivots = 0
        self._structure: tuple | None = None
        self._state: tuple | None = None  # (a_std, orient, costs, basis)

    def solve_raw(self, compiled: CompiledModel) -> RawSolution:
        """Solve ``compiled`` (LP relaxation), warm when the basis is reusable."""
        structure = (
            id(compiled.a_matrix),
            id(compiled.var_lower),
            id(compiled.var_upper),
        )
        if structure != self._structure:
            self._structure = structure
            self._state = None
        if self._state is not None:
            warm = self._resolve(compiled)
            if warm is not None:
                self.warm_resolves += 1
                return warm
        return self._cold(compiled)

    # ---------------------------------------------------------------- cold

    def _cold(self, compiled: CompiledModel) -> RawSolution:
        self.cold_solves += 1
        self._state = None
        c, a_rows, b = _to_standard_form(compiled)
        n = c.size
        m = len(a_rows)
        if m == 0:
            if np.any(c < -_EPS):
                return RawSolution(SolveStatus.UNBOUNDED, math.nan)
            x = np.zeros(n)
            return RawSolution(
                SolveStatus.OPTIMAL,
                compiled.sign * 0.0 + compiled.objective_constant,
                x,
            )

        # Orient rows so the cold phase-1 sees b >= 0; the orientation is a
        # row scaling, so it stays valid for every later right-hand side.
        orient = np.where(b < 0, -1.0, 1.0)
        senses = np.array([s for _, s in a_rows], dtype=int)
        senses = np.where(orient < 0, -senses, senses)
        rows = np.array([row for row, _ in a_rows]) * orient[:, None]
        rhs = b * orient

        slack_count = int(np.sum(senses != 0))
        art_needed = senses != -1
        art_count = int(np.sum(art_needed))
        total = n + slack_count + art_count

        a_std = np.zeros((m, total))
        a_std[:, :n] = rows
        basis = np.empty(m, dtype=int)
        slack_idx, art_idx = n, n + slack_count
        for i in range(m):
            if senses[i] == -1:
                a_std[i, slack_idx] = 1.0
                basis[i] = slack_idx
                slack_idx += 1
            elif senses[i] == 1:
                a_std[i, slack_idx] = -1.0
                slack_idx += 1
            if senses[i] != -1:
                a_std[i, art_idx] = 1.0
                basis[i] = art_idx
                art_idx += 1

        tableau = a_std.copy()
        rhs = rhs.astype(float)
        if art_count:
            phase1_c = np.zeros(total)
            phase1_c[n + slack_count:] = 1.0
            status = _optimize(tableau, rhs, basis, phase1_c)
            if status is not SolveStatus.OPTIMAL:
                raise SolverError("phase-1 simplex failed to terminate")
            if phase1_c[basis] @ rhs > _FEAS_TOL:
                return RawSolution(SolveStatus.INFEASIBLE, math.nan)
            for i in range(m):
                if basis[i] >= n + slack_count:
                    pivot_col = next(
                        (
                            j
                            for j in range(n + slack_count)
                            if abs(tableau[i, j]) > _EPS
                        ),
                        None,
                    )
                    if pivot_col is not None:
                        _pivot(tableau, rhs, basis, i, pivot_col)
            if rhs.min() < -_FEAS_TOL:
                return RawSolution(SolveStatus.INFEASIBLE, math.nan)
            tableau[:, n + slack_count:] = 0.0

        costs = np.zeros(total)
        costs[:n] = c
        status = _optimize(tableau, rhs, basis, costs)
        if status is not SolveStatus.OPTIMAL:
            return RawSolution(status, math.nan)

        x = np.zeros(total)
        x[basis] = rhs
        solution = RawSolution(
            SolveStatus.OPTIMAL,
            compiled.sign * float(c @ x[:n]) + compiled.objective_constant,
            x[:n],
        )
        # An artificial stuck in the basis (degenerate) is not a reusable
        # starting point; simply skip capturing and stay cold next time.
        if not np.any(basis >= n + slack_count):
            self._state = (a_std, orient, costs, basis.copy(), n, slack_count)
        return solution

    # ---------------------------------------------------------------- warm

    def _resolve(self, compiled: CompiledModel) -> RawSolution | None:
        a_std, orient, costs, basis, n, slack_count = self._state
        _, _, b = _to_standard_form(compiled)
        if b.size != orient.size:
            return None
        b_std = b * orient
        basis = basis.copy()
        basis_matrix = a_std[:, basis]
        try:
            rhs = np.linalg.solve(basis_matrix, b_std)
            tableau = np.linalg.solve(basis_matrix, a_std)
        except np.linalg.LinAlgError:
            return None
        tableau[:, n + slack_count:] = 0.0  # artificials stay frozen

        for _ in range(_MAX_PIVOTS):
            negative = np.flatnonzero(rhs < -_EPS)
            if negative.size == 0:
                x = np.zeros(a_std.shape[1])
                x[basis] = rhs
                self._state = (a_std, orient, costs, basis, n, slack_count)
                c = costs[:n]
                return RawSolution(
                    SolveStatus.OPTIMAL,
                    compiled.sign * float(c @ x[:n])
                    + compiled.objective_constant,
                    x[:n],
                )
            # Bland-flavored leaving choice: most negative rhs, ties by
            # smallest basis variable index.
            leaving = min(negative, key=lambda i: (rhs[i], basis[i]))
            row = tableau[leaving]
            reduced = costs - costs[basis] @ tableau
            candidates = [
                j
                for j in range(n + slack_count)
                if row[j] < -_EPS
            ]
            if not candidates:
                return RawSolution(SolveStatus.INFEASIBLE, math.nan)
            entering = min(
                candidates,
                key=lambda j: (max(reduced[j], 0.0) / -row[j], j),
            )
            _pivot(tableau, rhs, basis, leaving, entering)
            self.dual_pivots += 1
        raise SolverError(f"dual simplex exceeded {_MAX_PIVOTS} pivots")
