"""Tests for repro.core.flexible — slideable-window SPM."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.opt import solve_opt_spm
from repro.core.flexible import (
    compile_flexible_spm,
    flexibility_gain,
    solve_flexible_spm,
)
from repro.core.instance import SPMInstance
from repro.exceptions import WorkloadError
from repro.net.topologies import sub_b4
from repro.sim.validator import validate_schedule
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.request import RequestSet
from repro.workload.value_models import FlatRateValueModel

from tests.conftest import make_request
from tests.oracles.formulations import build_flexible_spm
from tests.test_core_fastform import assert_models_bitwise_equal
from tests.test_properties import random_instance


@pytest.fixture
def peak_pair(diamond):
    """Two rate-0.6 requests forced onto the same slot unless one slides.

    Together at slot 0 they need 2 units on each cheap link (cost 4);
    serialized over slots 0 and 1 they share 1 unit (cost 2).
    """
    requests = RequestSet(
        [
            make_request(0, start=0, end=0, rate=0.6, value=3.0),
            make_request(1, start=0, end=0, rate=0.6, value=3.0),
        ],
        num_slots=3,
    )
    return SPMInstance.build(diamond, requests, k_paths=2)


class TestSolveFlexibleSpm:
    def test_zero_slack_equals_opt_spm(self, small_sub_b4_instance):
        flexible = solve_flexible_spm(small_sub_b4_instance, 0)
        exact = solve_opt_spm(small_sub_b4_instance)
        assert flexible.profit == pytest.approx(exact.profit, abs=1e-6)
        assert flexible.num_shifted == 0

    def test_slack_depeaks_the_pair(self, peak_pair):
        rigid = solve_flexible_spm(peak_pair, 0)
        flexible = solve_flexible_spm(peak_pair, 1)
        assert rigid.profit == pytest.approx(6.0 - 4.0)
        assert flexible.profit == pytest.approx(6.0 - 2.0)
        assert flexible.num_shifted == 1

    def test_offsets_respect_cycle_end(self, peak_pair):
        # Slack beyond the cycle cannot push windows outside it.
        result = solve_flexible_spm(peak_pair, 99)
        for request_id, offset in result.offsets.items():
            req = peak_pair.request(request_id)
            assert req.end + offset < peak_pair.num_slots

    def test_schedule_validates(self, small_sub_b4_instance):
        result = solve_flexible_spm(small_sub_b4_instance, 2)
        assert validate_schedule(result.schedule).ok

    def test_objective_matches_schedule_profit(self, small_sub_b4_instance):
        result = solve_flexible_spm(small_sub_b4_instance, 1)
        assert result.objective == pytest.approx(result.profit, abs=1e-6)

    def test_per_request_slack_map(self, peak_pair):
        # Only request 1 may slide.
        result = solve_flexible_spm(peak_pair, {0: 0, 1: 1})
        assert result.profit == pytest.approx(4.0)
        assert result.offsets.get(0, 0) == 0

    def test_negative_slack_rejected(self, peak_pair):
        with pytest.raises(WorkloadError):
            solve_flexible_spm(peak_pair, -1)
        with pytest.raises(WorkloadError):
            solve_flexible_spm(peak_pair, {0: -2, 1: 0})


class TestFlexibilityGain:
    def test_profit_monotone_in_slack(self, small_sub_b4_instance):
        curve = flexibility_gain(small_sub_b4_instance, (0, 1, 2))
        profits = [profit for _, profit, _ in curve]
        assert profits == sorted(profits), (
            "more scheduling freedom can never lower the exact optimum"
        )

    def test_curve_shape(self, peak_pair):
        curve = flexibility_gain(peak_pair, (0, 1))
        assert curve[0][0] == 0 and curve[1][0] == 1
        assert curve[1][1] > curve[0][1]

    def test_bad_levels(self, peak_pair):
        with pytest.raises(WorkloadError):
            flexibility_gain(peak_pair, (0, -1))


@pytest.fixture
def capped_instance():
    """Sub-B4 with every link capped at 1 unit and bids worth buying past it."""
    topology = sub_b4()
    topology.set_uniform_capacity(1)
    workload = generate_workload(
        topology,
        WorkloadConfig(
            num_requests=30,
            num_slots=6,
            max_duration=4,
            value_model=FlatRateValueModel(3.0),
        ),
        rng=0,
    )
    return SPMInstance.build(topology, workload, k_paths=3)


class TestCapacityCeilings:
    def test_zero_slack_equals_opt_spm_under_ceilings(self, capped_instance):
        flexible = solve_flexible_spm(capped_instance, 0)
        exact = solve_opt_spm(capped_instance)
        assert flexible.profit == exact.profit
        flexible.schedule.check_capacities(capped_instance.topology.capacities())

    def test_slack_never_buys_past_the_ceilings(self, capped_instance):
        result = solve_flexible_spm(capped_instance, 1)
        result.schedule.check_capacities(capped_instance.topology.capacities())
        assert result.profit >= solve_opt_spm(capped_instance).profit - 1e-9

    @given(random_instance(), st.integers(min_value=0, max_value=2))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_uncapacitated_model_matches_expression_build(self, instance, slack):
        slacks = {rid: slack for rid in instance.requests.request_ids}
        assert_models_bitwise_equal(
            build_flexible_spm(instance, slacks)[0],
            compile_flexible_spm(instance, slacks)[0],
        )
