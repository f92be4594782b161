"""Tests for the reference formulations (tests.oracles.formulations)."""

import pytest

from repro.exceptions import ModelError

from tests.oracles.formulations import (
    assignment_from_solution,
    build_bl_spm,
    build_rl_spm,
    build_spm,
    fractional_x,
)


class TestRlSpm:
    def test_relaxation_satisfies_everyone(self, diamond_instance):
        problem = build_rl_spm(diamond_instance, integral=False)
        sol = problem.model.solve()
        assert sol.is_optimal
        weights = fractional_x(problem, sol)
        for req in diamond_instance.requests:
            assert sum(weights[req.request_id]) == pytest.approx(1.0)

    def test_relaxation_cost_lower_bounds_ilp(self, small_sub_b4_instance):
        relaxed = build_rl_spm(small_sub_b4_instance, integral=False).model.solve()
        exact = build_rl_spm(small_sub_b4_instance, integral=True).model.solve()
        assert relaxed.objective <= exact.objective + 1e-6

    def test_ilp_charges_integer_bandwidth(self, diamond_instance):
        problem = build_rl_spm(diamond_instance, integral=True)
        sol = problem.model.solve()
        for var in problem.c_vars.values():
            assert float(sol[var]).is_integer()

    def test_diamond_optimal_routing(self, diamond_instance):
        # Cheap path can carry everything within 2 units; LP should not pay
        # for the expensive route.
        problem = build_rl_spm(diamond_instance, integral=True)
        sol = problem.model.solve()
        assert sol.objective == pytest.approx(4.0)  # 2 units x 2 links x price 1


class TestBlSpm:
    def test_zero_capacity_declines_all(self, diamond_instance):
        caps = {key: 0 for key in diamond_instance.edges}
        problem = build_bl_spm(diamond_instance, caps, integral=True)
        sol = problem.model.solve()
        assert sol.objective == pytest.approx(0.0)
        assignment = assignment_from_solution(problem, sol)
        assert all(p is None for p in assignment.values())

    def test_ample_capacity_accepts_all(self, diamond_instance):
        caps = {key: 100 for key in diamond_instance.edges}
        problem = build_bl_spm(diamond_instance, caps, integral=True)
        sol = problem.model.solve()
        assert sol.objective == pytest.approx(
            diamond_instance.requests.total_value
        )

    def test_capacity_forces_choice(self, diamond, diamond_requests):
        from repro.core.instance import SPMInstance

        inst = SPMInstance.build(diamond, diamond_requests, k_paths=1)
        # One unit on the single candidate path: requests 0 and 1 (rate .6)
        # cannot share a slot with each other plus request 2 (rate .3)...
        # slot 1 has all three -> load 1.5 > 1, so the ILP must drop value.
        caps = {key: 1 for key in inst.edges}
        problem = build_bl_spm(inst, caps, integral=True)
        sol = problem.model.solve()
        assert sol.objective < inst.requests.total_value

    def test_missing_capacity_rejected(self, diamond_instance):
        with pytest.raises(ModelError, match="capacities missing"):
            build_bl_spm(diamond_instance, {}, integral=False)


class TestSpm:
    def test_profit_at_least_zero(self, small_sub_b4_instance):
        sol = build_spm(small_sub_b4_instance, integral=True).model.solve()
        assert sol.objective >= -1e-9, "declining everything gives zero"

    def test_spm_at_least_rl_spm_profit(self, small_sub_b4_instance):
        spm = build_spm(small_sub_b4_instance, integral=True).model.solve()
        rl = build_rl_spm(small_sub_b4_instance, integral=True).model.solve()
        accept_all_profit = small_sub_b4_instance.requests.total_value - rl.objective
        assert spm.objective >= accept_all_profit - 1e-6

    def test_topology_capacity_bounds_purchase(self, diamond, diamond_requests):
        from repro.core.instance import SPMInstance

        capped = diamond.copy()
        capped.set_uniform_capacity(1)
        inst = SPMInstance.build(capped, diamond_requests, k_paths=2)
        problem = build_spm(inst, integral=True)
        sol = problem.model.solve()
        for var in problem.c_vars.values():
            assert sol[var] <= 1 + 1e-9


class TestSolutionReaders:
    def test_assignment_from_integral_solution(self, diamond_instance):
        problem = build_rl_spm(diamond_instance, integral=True)
        sol = problem.model.solve()
        assignment = assignment_from_solution(problem, sol)
        assert set(assignment) == {0, 1, 2}
        assert all(p is not None for p in assignment.values())

    def test_fractional_rejected_by_assignment_reader(self, diamond_instance):
        problem = build_rl_spm(diamond_instance, integral=False)
        sol = problem.model.solve()
        weights = fractional_x(problem, sol)
        has_fraction = any(
            0.01 < w < 0.99 for ws in weights.values() for w in ws
        )
        if has_fraction:
            with pytest.raises(ModelError):
                assignment_from_solution(problem, sol)

    def test_fractional_x_clipped(self, diamond_instance):
        problem = build_rl_spm(diamond_instance, integral=False)
        sol = problem.model.solve()
        for ws in fractional_x(problem, sol).values():
            assert all(0.0 <= w <= 1.0 for w in ws)
