"""End-to-end integration tests: cross-solver invariants on one instance.

These tests run every solver in the library on the same seeded instances
and assert the dominance/feasibility web that must hold regardless of
workload: LP bounds, exact-vs-approximate orderings, validator agreement.
"""

import pytest

from repro.baselines.amoeba import solve_amoeba
from repro.baselines.ecoflow import solve_ecoflow
from repro.baselines.mincost import solve_mincost
from repro.baselines.opt import solve_opt_rl_spm, solve_opt_spm
from repro.core.instance import SPMInstance
from repro.core.maa import solve_maa
from repro.core.metis import Metis
from repro.core.taa import solve_taa
from repro.net.topologies import sub_b4
from repro.sim.validator import validate_schedule
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.value_models import FlatRateValueModel

from tests.oracles.formulations import build_bl_spm, build_rl_spm
from tests.oracles.lp.branch_and_bound import branch_and_bound


@pytest.fixture(scope="module", params=[3, 17])
def instance(request):
    topo = sub_b4()
    workload = generate_workload(
        topo,
        WorkloadConfig(
            num_requests=20,
            max_duration=4,
            value_model=FlatRateValueModel(0.8),
        ),
        rng=request.param,
    )
    return SPMInstance.build(topo, workload, k_paths=3)


class TestCostChain:
    """RL-SPM: LP <= OPT ILP <= MAA rounding, and MinCost above LP."""

    def test_lp_below_ilp_below_rounding(self, instance):
        lp = build_rl_spm(instance, integral=False).model.solve()
        ilp = solve_opt_rl_spm(instance)
        maa = solve_maa(instance, rng=0)
        assert lp.objective <= ilp.objective + 1e-6
        assert ilp.objective <= maa.cost + 1e-6

    def test_mincost_at_least_opt(self, instance):
        ilp = solve_opt_rl_spm(instance)
        mincost = solve_mincost(instance)
        assert mincost.cost >= ilp.objective - 1e-6


class TestProfitChain:
    """SPM: OPT dominates every heuristic; all profits validated."""

    def test_opt_dominates(self, instance):
        opt = solve_opt_spm(instance)
        metis = Metis(theta=6, maa_rounds=2).solve(instance, rng=0)
        ecoflow = solve_ecoflow(instance)
        rl = solve_opt_rl_spm(instance)
        assert opt.profit >= metis.best.profit - 1e-6
        assert opt.profit >= ecoflow.profit - 1e-6
        assert opt.profit >= rl.schedule.profit - 1e-6

    def test_every_schedule_validates(self, instance):
        schedules = {
            "opt": solve_opt_spm(instance).schedule,
            "rl": solve_opt_rl_spm(instance).schedule,
            "maa": solve_maa(instance, rng=1).schedule,
            "mincost": solve_mincost(instance),
            "ecoflow": solve_ecoflow(instance).schedule,
        }
        metis = Metis(theta=4).solve(instance, rng=1)
        if metis.best.schedule is not None:
            schedules["metis"] = metis.best.schedule
        for name, schedule in schedules.items():
            report = validate_schedule(schedule)
            assert report.ok, f"{name}: {report.errors}"


class TestRevenueChain:
    """BL-SPM under uniform capacity: LP >= ILP >= TAA, Amoeba feasible."""

    @pytest.fixture(scope="class")
    def caps(self):
        return 2

    def test_chain(self, instance, caps):
        capacities = {key: caps for key in instance.edges}
        lp = build_bl_spm(instance, capacities, integral=False).model.solve()
        ilp = build_bl_spm(instance, capacities, integral=True).model.solve()
        taa = solve_taa(instance, capacities)
        amoeba = solve_amoeba(instance, capacities)
        assert lp.objective >= ilp.objective - 1e-6
        assert ilp.objective >= taa.revenue - 1e-6
        assert ilp.objective >= amoeba.revenue - 1e-6
        taa.schedule.check_capacities(capacities)
        amoeba.schedule.check_capacities(capacities)


class TestSolverCrossCheck:
    """HiGHS MILP and the from-scratch branch and bound agree on SPM."""

    def test_spm_objective_agreement(self, instance):
        from tests.oracles.formulations import build_spm

        small = instance.restrict(instance.requests.request_ids[:8])
        problem = build_spm(small, integral=True)
        highs = problem.model.solve()
        bnb = branch_and_bound(problem.model, max_nodes=200_000)
        assert highs.objective == pytest.approx(bnb.objective, abs=1e-6)
