"""Tests for the from-scratch simplex backend, cross-checked against HiGHS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.formulations import build_bl_spm, build_rl_spm
from repro.exceptions import SolverError
from repro.lp.model import Model
from repro.lp.result import SolveStatus
from repro.lp.simplex import WarmSimplex, simplex_solve_model


class TestKnownProblems:
    def test_basic_maximization(self):
        m = Model()
        x = m.add_var("x", 0, 3)
        y = m.add_var("y")
        m.add_constr(x + 2 * y <= 4)
        m.set_objective(x + y, maximize=True)
        sol = simplex_solve_model(m)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.5)

    def test_minimization_with_ge(self):
        m = Model()
        x = m.add_var("x", 0)
        y = m.add_var("y", 0)
        m.add_constr(x + y >= 3)
        m.add_constr(x >= 1)
        m.set_objective(2 * x + y, maximize=False)
        sol = simplex_solve_model(m)
        assert sol.objective == pytest.approx(4.0)

    def test_equality(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constr(x + y == 5)
        m.set_objective(x - y, maximize=True)
        sol = simplex_solve_model(m)
        assert sol.objective == pytest.approx(5.0)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", 0, 1)
        m.add_constr(x >= 2)
        m.set_objective(x + 0, maximize=True)
        assert simplex_solve_model(m).status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.add_var("x")
        m.set_objective(x + 0, maximize=True)
        assert simplex_solve_model(m).status is SolveStatus.UNBOUNDED

    def test_objective_constant(self):
        m = Model()
        x = m.add_var("x", 0, 1)
        m.set_objective(x + 10, maximize=True)
        assert simplex_solve_model(m).objective == pytest.approx(11.0)

    def test_degenerate_no_cycle(self):
        # Classic Beale-style degeneracy; Bland's rule must terminate.
        m = Model()
        x1 = m.add_var("x1")
        x2 = m.add_var("x2")
        x3 = m.add_var("x3")
        m.add_constr(0.25 * x1 - 8 * x2 - x3 <= 0)
        m.add_constr(0.5 * x1 - 12 * x2 - 0.5 * x3 <= 0)
        m.add_constr(x3 <= 1)
        m.set_objective(0.75 * x1 - 20 * x2 + 0.5 * x3, maximize=True)
        sol = simplex_solve_model(m)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(1.25)

    def test_residue_within_row_tolerance_can_break_a_bound(self):
        # -0.5 x >= 5.69e-8 leaves a phase-1 residue under 1e-7, but the
        # only point satisfying the row has x = -1.14e-7, past x >= 0 by
        # more than the tolerance: infeasible, as HiGHS reports.
        m = Model()
        x = m.add_var("x", 0, 1)
        m.add_constr(-0.5 * x >= 5.69054685847928e-08)
        m.set_objective(x + 0, maximize=False)
        assert simplex_solve_model(m).status is SolveStatus.INFEASIBLE
        assert m.solve().status is SolveStatus.INFEASIBLE
        warm = WarmSimplex().solve_raw(m.compile(relax_integrality=True))
        assert warm.status is SolveStatus.INFEASIBLE

    def test_nonzero_lower_bound_rejected(self):
        m = Model()
        m.add_var("x", 1.0, 2.0)
        m.set_objective(m.variables[0] + 0, maximize=True)
        with pytest.raises(SolverError, match="lower bound 0"):
            simplex_solve_model(m)


@st.composite
def random_lp(draw):
    """A bounded random LP: box [0, ub] variables, <=/>=/== rows."""
    n = draw(st.integers(min_value=1, max_value=5))
    m_rows = draw(st.integers(min_value=0, max_value=5))
    model = Model("random")
    xs = [
        model.add_var(
            f"x{i}",
            0.0,
            draw(st.floats(min_value=0.5, max_value=10, allow_nan=False)),
        )
        for i in range(n)
    ]
    # Well-scaled coefficients only: a coefficient like 1e-9 (or 1e-266)
    # makes the answer depend on the solver's feasibility tolerance —
    # HiGHS (1e-7 primal tolerance) and an exact pivot then disagree by
    # design, not by bug — so draw exactly-zero or >= 1e-3 in magnitude.
    coef = st.one_of(
        st.just(0.0),
        st.floats(min_value=-5, max_value=5, allow_nan=False).filter(
            lambda c: abs(c) >= 1e-3
        ),
    )
    for _ in range(m_rows):
        coefs = [draw(coef) for _ in range(n)]
        expr = sum(c * x for c, x in zip(coefs, xs))
        if isinstance(expr, (int, float)):
            continue
        rhs = draw(st.floats(min_value=-10, max_value=20, allow_nan=False))
        kind = draw(st.sampled_from(["<=", ">="]))
        model.add_constr(expr <= rhs if kind == "<=" else expr >= rhs)
    objective = sum(draw(coef) * x for x in xs)
    model.set_objective(objective, maximize=draw(st.booleans()))
    return model


class TestAgainstHiGHS:
    @given(random_lp())
    @settings(max_examples=60, deadline=None)
    def test_random_lps_agree(self, model):
        ours = simplex_solve_model(model)
        highs = model.solve(relax_integrality=True)
        assert ours.status == highs.status
        if ours.is_optimal:
            assert ours.objective == pytest.approx(highs.objective, abs=1e-6)
            # The argmax may differ (alternate optima); feasibility must hold.
            assert model.check_feasible(ours.values, tol=1e-6)

    def test_rl_spm_relaxation_agrees(self, small_sub_b4_instance):
        problem = build_rl_spm(small_sub_b4_instance, integral=False)
        ours = simplex_solve_model(problem.model)
        highs = problem.model.solve()
        assert ours.objective == pytest.approx(highs.objective, abs=1e-6)

    def test_bl_spm_relaxation_agrees(self, small_sub_b4_instance):
        caps = {key: 2 for key in small_sub_b4_instance.edges}
        problem = build_bl_spm(small_sub_b4_instance, caps, integral=False)
        ours = simplex_solve_model(problem.model)
        highs = problem.model.solve()
        assert ours.objective == pytest.approx(highs.objective, abs=1e-6)
