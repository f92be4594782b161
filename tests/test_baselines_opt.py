"""Tests for the exact OPT baselines."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines.ecoflow import solve_ecoflow
from repro.baselines.mincost import solve_mincost
from repro.baselines.opt import solve_opt_rl_spm, solve_opt_spm
from repro.core.metis import Metis
from repro.sim.validator import validate_schedule

from tests.oracles.formulations import (
    assignment_from_solution,
    build_rl_spm,
    build_spm,
)
from tests.test_properties import random_instance

fuzz_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_opt_matches_reference(instance):
    """Both OPT baselines against the expression build through ``Model``.

    Same objective bits and the same assignment: the compiled ILPs are
    bitwise identical, and the read-back rounds the integer columns
    before its integrality test exactly as ``Model.solve`` did.
    """
    pairs = ((solve_opt_spm, build_spm), (solve_opt_rl_spm, build_rl_spm))
    for solve, build in pairs:
        got = solve(instance)
        problem = build(instance, integral=True)
        solution = problem.model.solve()
        assert solution.is_optimal
        assert got.objective.hex() == float(solution.objective).hex()
        assert got.schedule.assignment == assignment_from_solution(
            problem, solution
        )


class TestOptSpm:
    def test_dominates_every_heuristic(self, small_sub_b4_instance):
        opt = solve_opt_spm(small_sub_b4_instance)
        metis = Metis(theta=4).solve(small_sub_b4_instance, rng=0)
        ecoflow = solve_ecoflow(small_sub_b4_instance)
        assert opt.profit >= metis.best.profit - 1e-6
        assert opt.profit >= ecoflow.profit - 1e-6

    def test_profit_nonnegative(self, small_sub_b4_instance):
        assert solve_opt_spm(small_sub_b4_instance).profit >= -1e-9

    def test_objective_matches_schedule_profit(self, small_sub_b4_instance):
        opt = solve_opt_spm(small_sub_b4_instance)
        assert opt.objective == pytest.approx(opt.profit, abs=1e-6)

    def test_schedule_validates(self, small_sub_b4_instance):
        opt = solve_opt_spm(small_sub_b4_instance)
        assert validate_schedule(opt.schedule).ok

    def test_diamond_declines_negative_value_mix(self, diamond):
        from repro.core.instance import SPMInstance
        from repro.workload.request import RequestSet

        from tests.conftest import make_request

        requests = RequestSet(
            [
                make_request(0, rate=0.6, value=5.0),
                make_request(1, rate=0.6, value=0.1),  # would force a 2nd unit
            ],
            num_slots=1,
        )
        inst = SPMInstance.build(diamond, requests, k_paths=2)
        opt = solve_opt_spm(inst)
        assert opt.schedule.assignment[0] is not None
        assert opt.schedule.assignment[1] is None
        assert opt.profit == pytest.approx(3.0)  # 5 - 2 links x 1 unit


class TestOptRlSpm:
    def test_accepts_everything(self, small_sub_b4_instance):
        opt = solve_opt_rl_spm(small_sub_b4_instance)
        assert opt.schedule.num_accepted == small_sub_b4_instance.num_requests

    def test_cost_not_above_mincost(self, small_sub_b4_instance):
        opt = solve_opt_rl_spm(small_sub_b4_instance)
        mincost = solve_mincost(small_sub_b4_instance)
        assert opt.schedule.cost <= mincost.cost + 1e-6

    def test_objective_is_min_cost(self, small_sub_b4_instance):
        opt = solve_opt_rl_spm(small_sub_b4_instance)
        assert opt.objective == pytest.approx(opt.schedule.cost, abs=1e-6)

    def test_spm_profit_at_least_rl_spm(self, small_sub_b4_instance):
        spm = solve_opt_spm(small_sub_b4_instance)
        rl = solve_opt_rl_spm(small_sub_b4_instance)
        assert spm.profit >= rl.schedule.profit - 1e-6


class TestOptMatchesReference:
    def test_diamond(self, diamond_instance):
        assert_opt_matches_reference(diamond_instance)

    def test_sub_b4(self, small_sub_b4_instance):
        assert_opt_matches_reference(small_sub_b4_instance)

    @given(random_instance())
    @fuzz_settings
    def test_random_instances(self, instance):
        assert_opt_matches_reference(instance)

    @given(random_instance(capacitated=True))
    @fuzz_settings
    def test_random_instances_with_ceilings(self, instance):
        assert_opt_matches_reference(instance)
