"""Tests for repro.core.taa (Algorithm 2)."""

import math

import pytest

from repro.core.instance import SPMInstance
from repro.core.taa import solve_taa
from repro.exceptions import AlgorithmError
from repro.workload.request import RequestSet

from tests.conftest import make_request
from tests.oracles.formulations import build_bl_spm


def uniform_caps(instance, units):
    return {key: units for key in instance.edges}


class TestFeasibility:
    def test_respects_capacities(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 1)
        result = solve_taa(small_sub_b4_instance, caps)
        result.schedule.check_capacities(caps)  # no raise

    def test_zero_capacity_declines_everything(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 0)
        result = solve_taa(small_sub_b4_instance, caps)
        assert result.schedule.num_accepted == 0
        assert result.revenue == 0.0

    def test_ample_capacity_accepts_everything(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 1000)
        result = solve_taa(small_sub_b4_instance, caps)
        assert (
            result.schedule.num_accepted == small_sub_b4_instance.num_requests
        ), "with no scarcity nothing should be declined"

    def test_missing_capacity_rejected(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 5)
        caps.pop(next(iter(caps)))
        with pytest.raises(AlgorithmError, match="every"):
            solve_taa(small_sub_b4_instance, caps)

    def test_non_integer_capacity_rejected(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 5)
        caps[next(iter(caps))] = 2.5  # type: ignore[assignment]
        with pytest.raises(AlgorithmError):
            solve_taa(small_sub_b4_instance, caps)


class TestRevenueQuality:
    def test_revenue_bounded_by_relaxation(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 2)
        result = solve_taa(small_sub_b4_instance, caps)
        assert result.revenue <= result.relaxation_revenue + 1e-6

    def test_revenue_at_least_certified_floor(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 3)
        result = solve_taa(small_sub_b4_instance, caps)
        if result.certified:
            assert result.revenue >= result.revenue_floor - 1e-9

    def test_certified_run_needs_no_repair(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 3)
        result = solve_taa(small_sub_b4_instance, caps)
        if result.certified:
            assert result.num_repairs == 0

    def test_beats_half_of_ilp_on_small_instance(self, diamond_instance):
        caps = uniform_caps(diamond_instance, 1)
        result = solve_taa(diamond_instance, caps)
        exact = build_bl_spm(diamond_instance, caps, integral=True).model.solve()
        assert result.revenue >= 0.5 * exact.objective - 1e-6

    def test_augmentation_only_adds(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 2)
        bare = solve_taa(small_sub_b4_instance, caps, augment=False)
        augmented = solve_taa(small_sub_b4_instance, caps)
        assert augmented.revenue >= bare.revenue - 1e-9
        assert augmented.schedule.num_accepted >= bare.schedule.num_accepted


class TestParameters:
    def test_mu_in_unit_interval(self, small_sub_b4_instance):
        result = solve_taa(small_sub_b4_instance, uniform_caps(small_sub_b4_instance, 5))
        assert 0 < result.mu < 1

    def test_deterministic(self, small_sub_b4_instance):
        caps = uniform_caps(small_sub_b4_instance, 2)
        a = solve_taa(small_sub_b4_instance, caps)
        b = solve_taa(small_sub_b4_instance, caps)
        assert a.schedule.assignment == b.schedule.assignment

    def test_bad_fallback_mu(self, small_sub_b4_instance):
        with pytest.raises(ValueError):
            solve_taa(
                small_sub_b4_instance,
                uniform_caps(small_sub_b4_instance, 2),
                fallback_mu=1.5,
            )

    def test_empty_instance(self, small_sub_b4_instance):
        empty = small_sub_b4_instance.restrict([])
        result = solve_taa(empty, uniform_caps(empty, 2))
        assert result.revenue == 0.0
        assert result.schedule.num_accepted == 0


class TestCapacityTypeValidation:
    def test_bool_capacity_rejected(self, small_sub_b4_instance):
        # bool is an int subclass, but True is not a valid "1 unit".
        caps = uniform_caps(small_sub_b4_instance, 5)
        caps[next(iter(caps))] = True  # type: ignore[assignment]
        with pytest.raises(AlgorithmError, match="integer capacity"):
            solve_taa(small_sub_b4_instance, caps)

    def test_numpy_integer_capacity_accepted(self, small_sub_b4_instance):
        import numpy as np

        caps = {key: np.int64(2) for key in small_sub_b4_instance.edges}
        result = solve_taa(small_sub_b4_instance, caps)
        result.schedule.check_capacities(caps)  # no raise


class TestDegenerateCertification:
    """Early-return runs build no estimator: nan, and never certified."""

    def test_empty_instance_reports_nan_uncertified(
        self, small_sub_b4_instance
    ):
        empty = small_sub_b4_instance.restrict([])
        result = solve_taa(empty, uniform_caps(empty, 2))
        assert math.isnan(result.estimator_initial)
        assert math.isnan(result.estimator_final)
        assert not result.certified

    def test_all_zero_bids_reports_nan_uncertified(self, diamond):
        requests = RequestSet(
            [
                make_request(0, rate=0.3, value=0.0),
                make_request(1, rate=0.4, value=0.0),
            ],
            num_slots=1,
        )
        inst = SPMInstance.build(diamond, requests, k_paths=2)
        result = solve_taa(inst, uniform_caps(inst, 1))
        assert result.schedule.num_accepted == 0
        assert result.revenue == 0.0
        assert math.isnan(result.estimator_initial)
        assert not result.certified

    def test_regular_run_reports_finite_estimator(
        self, small_sub_b4_instance
    ):
        result = solve_taa(
            small_sub_b4_instance, uniform_caps(small_sub_b4_instance, 3)
        )
        assert not math.isnan(result.estimator_initial)
        assert result.certified == (result.estimator_initial < 0.0)
