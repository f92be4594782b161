"""Tests for repro.lp.solvers — LP and MILP solves on known problems.

Models are stated through the oracle expression layer; the oracle's
``solve_compiled`` hands them to the runtime backend.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.optimize._highspy._core import HighsModelStatus, kHighsInf

from repro.lp.fastbuild import compile_coo
from repro.lp.result import RawSolution, SolveStatus
from repro.lp.solvers import solve_compiled_raw

from tests.oracles.lp.model import Model


class TestLinearPrograms:
    def test_simple_maximization(self):
        # max x + y  s.t. x + 2y <= 4, x <= 3  ->  x=3, y=0.5
        m = Model()
        x = m.add_var("x", 0, 3)
        y = m.add_var("y")
        m.add_constr(x + 2 * y <= 4)
        m.set_objective(x + y, maximize=True)
        sol = m.solve()
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.5)
        assert sol[x] == pytest.approx(3.0)
        assert sol[y] == pytest.approx(0.5)

    def test_simple_minimization(self):
        # min 2x + y  s.t. x + y >= 3, x >= 1  ->  x=1, y=2
        m = Model()
        x = m.add_var("x", 1)
        y = m.add_var("y")
        m.add_constr(x + y >= 3)
        m.set_objective(2 * x + y, maximize=False)
        sol = m.solve()
        assert sol.objective == pytest.approx(4.0)

    def test_equality_constraint(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constr(x + y == 5)
        m.set_objective(x - y, maximize=True)
        sol = m.solve()
        assert sol.objective == pytest.approx(5.0)
        assert sol[x] == pytest.approx(5.0)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", 0, 1)
        m.add_constr(x >= 2)
        m.set_objective(x + 0, maximize=True)
        assert m.solve().status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x")
        m.add_constr(x >= 0)
        m.set_objective(x + 0, maximize=True)
        assert m.solve().status is SolveStatus.UNBOUNDED

    def test_objective_constant_included(self):
        m = Model()
        x = m.add_var("x", 0, 1)
        m.set_objective(x + 10, maximize=True)
        assert m.solve().objective == pytest.approx(11.0)

    def test_value_of_expression(self):
        m = Model()
        x = m.add_var("x", 0, 2)
        y = m.add_var("y", 0, 2)
        m.set_objective(x + y, maximize=True)
        sol = m.solve()
        assert sol.value_of(x + 2 * y) == pytest.approx(6.0)
        assert sol.value_of(x) == pytest.approx(2.0)


class TestMixedIntegerPrograms:
    def test_knapsack(self):
        values = [10, 7, 4, 3]
        weights = [5, 4, 3, 2]
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(4)]
        m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= 7)
        m.set_objective(sum(v * x for v, x in zip(values, xs)), maximize=True)
        sol = m.solve()
        assert sol.objective == pytest.approx(13.0)
        assert [sol[x] for x in xs] == [1, 0, 0, 1]

    def test_integer_values_are_exact_ints(self):
        m = Model()
        x = m.add_var("x", 0, 10, is_integer=True)
        m.add_constr(2 * x <= 7)
        m.set_objective(x + 0, maximize=True)
        sol = m.solve()
        assert sol[x] == 3
        assert float(sol[x]).is_integer()

    def test_relaxation_differs_from_milp(self):
        m = Model()
        x = m.add_var("x", 0, 10, is_integer=True)
        m.add_constr(2 * x <= 7)
        m.set_objective(x + 0, maximize=True)
        assert m.solve(relax_integrality=True).objective == pytest.approx(3.5)
        assert m.solve().objective == pytest.approx(3.0)

    def test_milp_infeasible(self):
        m = Model()
        x = m.add_var("x", 0, 1, is_integer=True)
        m.add_constr(2 * x == 1)  # x would need to be 0.5
        m.set_objective(x + 0, maximize=True)
        assert m.solve().status is SolveStatus.INFEASIBLE

    def test_mixed_continuous_integer(self):
        # max 2i + c  s.t. i + c <= 2.5, c <= 1  ->  i=2 (int), c=0.5
        m = Model()
        i = m.add_var("i", 0, 5, is_integer=True)
        c = m.add_var("c", 0, 1)
        m.add_constr(i + c <= 2.5)
        m.set_objective(2 * i + c, maximize=True)
        sol = m.solve()
        assert sol[i] == 2
        assert sol[c] == pytest.approx(0.5)
        assert sol.objective == pytest.approx(4.5)

    def test_time_limit_accepted(self):
        m = Model()
        x = m.add_var("x", 0, 10, is_integer=True)
        m.add_constr(x <= 5)
        m.set_objective(x + 0, maximize=True)
        sol = m.solve(time_limit=10.0)
        assert sol.objective == pytest.approx(5.0)

    def test_time_limit_accepted_on_lp_path(self):
        m = Model()
        x = m.add_var("x", 0, 10)
        m.add_constr(x <= 5)
        m.set_objective(x + 0, maximize=True)
        sol = m.solve(time_limit=10.0)
        assert sol.objective == pytest.approx(5.0)

    def test_check_cancelled_aborts_before_dispatch(self):
        from repro.exceptions import SolverError

        m = Model()
        x = m.add_var("x", 0, 10)
        m.set_objective(x + 0, maximize=True)
        with pytest.raises(SolverError, match="cancelled"):
            m.solve(check_cancelled=lambda: True)

    def test_check_cancelled_false_is_noop(self):
        m = Model()
        x = m.add_var("x", 0, 5)
        m.set_objective(x + 0, maximize=True)
        sol = m.solve(check_cancelled=lambda: False)
        assert sol.objective == pytest.approx(5.0)


def _bounded_milp():
    m = Model()
    x = m.add_var("x", 0, 10, is_integer=True)
    m.add_constr(x <= 5)
    m.set_objective(x + 0, maximize=True)
    return m, x


def _stub_highs(monkeypatch, status, *, objective=None, x=None, row_value=()):
    """Make the driver's HiGHS run end in ``status`` with the given point.

    ``repro.lp.solvers._run`` is the seam between the driver and HiGHS: it
    returns the model status and the solved HiGHS object, which the driver
    reads the objective and the point from.
    """
    highs = SimpleNamespace(
        getInfo=lambda: SimpleNamespace(objective_function_value=objective),
        getSolution=lambda: SimpleNamespace(
            col_value=x, row_value=list(row_value), row_dual=[0.0] * len(row_value)
        ),
    )
    monkeypatch.setattr(
        "repro.lp.solvers._run", lambda lp, options: (status, highs)
    )


class TestLimitStatuses:
    """HiGHS's limit statuses map to FEASIBLE-with-incumbent or TIME_LIMIT.

    The HiGHS outcome is stubbed at the driver's boundary so the mapping is
    deterministic — real limit hits on problems this small are not.
    """

    def test_limit_with_incumbent_is_feasible(self, monkeypatch):
        _stub_highs(
            monkeypatch, HighsModelStatus.kTimeLimit, objective=-4.0, x=[4.0]
        )
        m, x = _bounded_milp()
        sol = m.solve(time_limit=1.0)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.is_feasible and not sol.is_optimal
        assert sol.objective == pytest.approx(4.0)
        assert sol[x] == 4  # the incumbent is kept, not discarded

    def test_limit_without_incumbent_is_time_limit(self, monkeypatch):
        # A MILP that stops on its limit with no incumbent reports an
        # objective of kHighsInf.
        _stub_highs(
            monkeypatch, HighsModelStatus.kTimeLimit, objective=kHighsInf, x=[0.0]
        )
        m, _ = _bounded_milp()
        sol = m.solve(time_limit=1.0)
        assert sol.status is SolveStatus.TIME_LIMIT
        assert not sol.is_feasible
        assert math.isnan(sol.objective)
        assert sol.values == {}

    def test_lp_limit_without_incumbent_is_time_limit(self, monkeypatch):
        _stub_highs(
            monkeypatch, HighsModelStatus.kTimeLimit, objective=-3.0, x=[3.0]
        )
        m = Model()
        x = m.add_var("x", 0, 5)
        m.set_objective(x + 0, maximize=True)
        sol = m.solve(time_limit=1.0)
        assert sol.status is SolveStatus.TIME_LIMIT
        assert sol.values == {}  # an LP stopped on a limit has no point

    def test_milp_iteration_limit_with_incumbent_is_feasible(self, monkeypatch):
        _stub_highs(
            monkeypatch, HighsModelStatus.kIterationLimit, objective=-2.0, x=[2.0]
        )
        m, x = _bounded_milp()
        sol = m.solve()
        assert sol.status is SolveStatus.FEASIBLE
        assert sol[x] == 2

    def test_milp_solution_limit_is_error(self, monkeypatch):
        _stub_highs(
            monkeypatch, HighsModelStatus.kSolutionLimit, objective=-4.0, x=[4.0]
        )
        m, _ = _bounded_milp()
        sol = m.solve()
        assert sol.status is SolveStatus.ERROR
        assert sol.values == {}

    @pytest.mark.parametrize(
        "status",
        [HighsModelStatus.kUnknown, HighsModelStatus.kInterrupt,
         HighsModelStatus.kUnboundedOrInfeasible],
    )
    def test_unknown_status_is_error(self, monkeypatch, status):
        _stub_highs(monkeypatch, status, objective=-4.0, x=[4.0])
        m, _ = _bounded_milp()
        assert m.solve().status is SolveStatus.ERROR

    def test_model_error_reads_as_infeasible(self, monkeypatch):
        # scipy's status table maps kModelError to "infeasible"; the
        # driver keeps the table whole.
        _stub_highs(monkeypatch, HighsModelStatus.kModelError)
        m, _ = _bounded_milp()
        assert m.solve().status is SolveStatus.INFEASIBLE

    def test_optimal_lp_point_outside_a_bound_is_error(self, monkeypatch):
        # x in [0, 5]; an "optimal" x of 5.01 breaks the bound by more than
        # linprog's tolerance, sqrt(1e-9) * 10.
        _stub_highs(monkeypatch, HighsModelStatus.kOptimal, objective=-5.01, x=[5.01])
        m = Model()
        x = m.add_var("x", 0, 5)
        m.set_objective(x + 0, maximize=True)
        assert m.solve().status is SolveStatus.ERROR

    def test_optimal_lp_point_within_tolerance_is_optimal(self, monkeypatch):
        _stub_highs(monkeypatch, HighsModelStatus.kOptimal, objective=-5.0001, x=[5.0001])
        m = Model()
        x = m.add_var("x", 0, 5)
        m.set_objective(x + 0, maximize=True)
        sol = m.solve()
        assert sol.status is SolveStatus.OPTIMAL
        assert sol[x] == 5.0001

    def test_optimal_lp_point_breaking_an_inequality_row_is_error(self, monkeypatch):
        # x + y <= 4 with a row activity of 4.01.
        _stub_highs(
            monkeypatch, HighsModelStatus.kOptimal, objective=-4.01,
            x=[2.0, 2.01], row_value=[4.01],
        )
        m = Model()
        x = m.add_var("x", 0, 5)
        y = m.add_var("y", 0, 5)
        m.add_constr(x + y <= 4)
        m.set_objective(x + y, maximize=True)
        assert m.solve().status is SolveStatus.ERROR

    def test_optimal_lp_point_breaking_an_equality_row_is_error(self, monkeypatch):
        _stub_highs(
            monkeypatch, HighsModelStatus.kOptimal, objective=-3.0,
            x=[1.0, 1.999], row_value=[2.999],
        )
        m = Model()
        x = m.add_var("x", 0, 5)
        y = m.add_var("y", 0, 5)
        m.add_constr(x + y == 3)
        m.set_objective(x + y, maximize=True)
        assert m.solve().status is SolveStatus.ERROR

    @pytest.mark.parametrize("integral", [False, True])
    def test_nan_objective_raises_value_error(self, integral):
        compiled = compile_coo(
            objective=np.array([1.0, np.nan]), maximize=False,
            rows=np.array([0, 0]), cols=np.array([0, 1]), data=np.ones(2),
            num_rows=1, row_lower=np.array([-np.inf]), row_upper=np.array([3.0]),
            var_lower=np.zeros(2), var_upper=np.full(2, 5.0),
            integrality=np.array([int(integral), 0]),
        )
        with pytest.raises(ValueError, match="objective"):
            solve_compiled_raw(compiled)

    @pytest.mark.parametrize("integral", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises_value_error(self, integral, bad):
        compiled = compile_coo(
            objective=np.ones(2), maximize=False,
            rows=np.array([0, 0]), cols=np.array([0, 1]), data=np.array([1.0, bad]),
            num_rows=1, row_lower=np.array([-np.inf]), row_upper=np.array([3.0]),
            var_lower=np.zeros(2), var_upper=np.full(2, 5.0),
            integrality=np.array([int(integral), 0]),
        )
        with pytest.raises(ValueError, match="matrix"):
            solve_compiled_raw(compiled)

    def test_real_tiny_limit_never_raises(self):
        # Whatever HiGHS manages within ~0 seconds, the statuses stay in
        # the OPTIMAL/FEASIBLE/TIME_LIMIT triple — never an exception.
        m, _ = _bounded_milp()
        sol = m.solve(time_limit=1e-9)
        assert sol.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.TIME_LIMIT,
        )

    def test_raw_solution_flags(self):
        feas = RawSolution(
            status=SolveStatus.FEASIBLE, objective=1.0, x=np.ones(1)
        )
        limit = RawSolution(
            status=SolveStatus.TIME_LIMIT, objective=float("nan")
        )
        assert feas.is_feasible and not feas.is_optimal
        assert not limit.is_feasible and limit.x is None
