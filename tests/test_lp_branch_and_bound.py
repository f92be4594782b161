"""Tests for the from-scratch branch-and-bound MILP solver.

The solver exists to cross-check HiGHS: the hypothesis suite generates
random knapsack-style MILPs and asserts both solvers agree on the optimal
objective.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.lp.result import SolveStatus

from tests.oracles.lp.branch_and_bound import branch_and_bound
from tests.oracles.lp.model import Model


def knapsack_model(values, weights, capacity):
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(len(values))]
    m.add_constr(sum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.set_objective(sum(v * x for v, x in zip(values, xs)), maximize=True)
    return m, xs


class TestBranchAndBound:
    def test_knapsack_optimal(self):
        m, xs = knapsack_model([10, 7, 4, 3], [5, 4, 3, 2], 7)
        sol = branch_and_bound(m)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(13.0)
        assert all(float(sol[x]).is_integer() for x in xs)

    def test_pure_lp_passthrough(self):
        m = Model()
        x = m.add_var("x", 0, 3)
        m.set_objective(x + 0, maximize=True)
        assert branch_and_bound(m).objective == pytest.approx(3.0)

    def test_minimization(self):
        # min x + y  s.t. 2x + y >= 3, integers  ->  x=1, y=1 or x=0, y=3
        m = Model()
        x = m.add_var("x", 0, 5, is_integer=True)
        y = m.add_var("y", 0, 5, is_integer=True)
        m.add_constr(2 * x + y >= 3)
        m.set_objective(x + y, maximize=False)
        sol = branch_and_bound(m)
        assert sol.objective == pytest.approx(2.0)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", 0, 1, is_integer=True)
        m.add_constr(2 * x == 1)
        m.set_objective(x + 0, maximize=True)
        assert branch_and_bound(m).status is SolveStatus.INFEASIBLE

    def test_node_limit_enforced(self):
        values = list(range(1, 12))
        weights = values
        m, _ = knapsack_model(values, weights, sum(values) // 2)
        with pytest.raises(SolverError, match="exceeded"):
            branch_and_bound(m, max_nodes=1)

    def test_mixed_integer_continuous(self):
        m = Model()
        i = m.add_var("i", 0, 5, is_integer=True)
        c = m.add_var("c", 0, 1)
        m.add_constr(i + c <= 2.5)
        m.set_objective(2 * i + c, maximize=True)
        sol = branch_and_bound(m)
        assert sol.objective == pytest.approx(4.5)
        assert sol[i] == 2


class TestAgainstHiGHS:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),  # value
                st.integers(min_value=1, max_value=15),  # weight
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_knapsack_objectives_agree(self, items, capacity):
        values = [v for v, _ in items]
        weights = [w for _, w in items]
        m, _ = knapsack_model(values, weights, capacity)
        ours = branch_and_bound(m)
        highs = m.solve()
        assert ours.is_optimal and highs.is_optimal
        assert ours.objective == pytest.approx(highs.objective)

    @given(
        st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=6),
        st.integers(min_value=2, max_value=25),
    )
    @settings(max_examples=20, deadline=None)
    def test_covering_objectives_agree(self, costs, demand):
        # min sum c_i x_i  s.t. sum x_i >= demand, x_i integer in [0, 5]
        m = Model()
        xs = [m.add_var(f"x{i}", 0, 5, is_integer=True) for i in range(len(costs))]
        m.add_constr(sum(xs) >= min(demand, 5 * len(costs)))
        m.set_objective(sum(c * x for c, x in zip(costs, xs)), maximize=False)
        ours = branch_and_bound(m)
        highs = m.solve()
        assert ours.objective == pytest.approx(highs.objective)
