"""Tests for repro.core.bounds — the theorems checked empirically.

The last suite asserts the paper's theorems as properties of random
small SUB-B4 instances; they drive the HiGHS driver under hypothesis too.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.opt import solve_opt_spm
from repro.core.bounds import (
    ceiling_ratio_bound,
    maa_bound_report,
    maa_ratio_bound,
    taa_certificate,
)
from repro.core.instance import SPMInstance
from repro.core.maa import solve_maa
from repro.core.metis import Metis
from repro.core.taa import solve_taa
from repro.net.topologies import sub_b4
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.value_models import FlatRateValueModel, PriceAwareValueModel


class TestCeilingRatioBound:
    def test_formula(self):
        assert ceiling_ratio_bound(1.0) == 2.0
        assert ceiling_ratio_bound(4.0) == 1.25

    def test_degenerate_alpha(self):
        assert ceiling_ratio_bound(0.0) == math.inf
        assert ceiling_ratio_bound(-1.0) == math.inf

    def test_monotone_decreasing_in_alpha(self):
        assert ceiling_ratio_bound(0.5) > ceiling_ratio_bound(2.0)


class TestMaaRatioBound:
    def test_small_edge_counts_degenerate_gracefully(self):
        assert maa_ratio_bound(1.0, 1) == pytest.approx(2.0)
        assert maa_ratio_bound(1.0, 2) == pytest.approx(2.0)

    def test_grows_with_edges(self):
        assert maa_ratio_bound(1.0, 1000) > maa_ratio_bound(1.0, 10)

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            maa_ratio_bound(1.0, 0)


class TestMaaBoundReport:
    def test_observed_within_bound_on_real_instance(self, small_sub_b4_instance):
        result = solve_maa(small_sub_b4_instance, rng=0)
        report = maa_bound_report(result, small_sub_b4_instance.num_edges)
        assert report.observed_ratio >= 1.0 - 1e-9
        assert report.ceiling_bound >= 1.0
        assert report.combined_bound >= report.ceiling_bound
        # Theorem 4 is a w.h.p. statement against a generous bound; a small
        # instance with tiny alpha has a huge bound, so this must hold.
        assert report.within_bound

    def test_zero_cost_instance(self, small_sub_b4_instance):
        result = solve_maa(small_sub_b4_instance, rng=0)
        report = maa_bound_report(
            type(result)(
                schedule=result.schedule,
                fractional_cost=0.0,
                fractional_weights=result.fractional_weights,
                alpha=result.alpha,
            ),
            small_sub_b4_instance.num_edges,
        )
        assert report.observed_ratio == 1.0


class TestTaaCertificate:
    def test_certificate_on_real_instance(self, small_sub_b4_instance):
        caps = {key: 3 for key in small_sub_b4_instance.edges}
        result = solve_taa(small_sub_b4_instance, caps)
        cert = taa_certificate(result)
        assert cert.floor_respected
        assert 0.0 <= cert.gap_to_relaxation <= 1.0 + 1e-9

    def test_uncertified_run_trivially_respected(self, small_sub_b4_instance):
        caps = {key: 1 for key in small_sub_b4_instance.edges}
        result = solve_taa(small_sub_b4_instance, caps)
        cert = taa_certificate(result)
        assert cert.floor_respected  # floor is 0 or the run is certified


@st.composite
def sub_b4_instances(draw):
    """A small random SUB-B4 instance: K <= 8, random windows, rates, values."""
    topology = sub_b4()
    value_model = draw(st.sampled_from([
        FlatRateValueModel(1.0), FlatRateValueModel(1.8), FlatRateValueModel(3.0),
        PriceAwareValueModel(),
    ]))
    workload = generate_workload(
        topology,
        WorkloadConfig(
            num_requests=draw(st.integers(min_value=1, max_value=8)),
            num_slots=draw(st.sampled_from([4, 6, 12])),
            max_duration=draw(st.sampled_from([1, 3, None])),
            value_model=value_model,
        ),
        rng=draw(st.integers(min_value=0, max_value=10_000)),
    )
    return SPMInstance.build(
        topology, workload, k_paths=draw(st.integers(min_value=1, max_value=3))
    )


theorem_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTheoremsOnRandomInstances:
    """What the paper proves, checked on random instances.

    Only theorems are asserted.  ``within_bound`` (Theorem 4) holds with
    high probability, not always, so it is not among them.
    """

    @theorem_settings
    @given(sub_b4_instances(), st.integers(min_value=0, max_value=2**16))
    def test_maa_cost_is_at_least_its_relaxation(self, instance, seed):
        result = solve_maa(instance, rng=seed)
        assert result.cost >= result.fractional_cost - 1e-6

    @theorem_settings
    @given(sub_b4_instances(), st.data())
    def test_certified_taa_run_respects_its_floor(self, instance, data):
        capacities = {
            key: data.draw(st.integers(min_value=0, max_value=3))
            for key in instance.edges
        }
        cert = taa_certificate(solve_taa(instance, capacities))
        assert cert.floor_respected
        if cert.certified:
            assert cert.observed_revenue >= cert.revenue_floor - 1e-9

    @theorem_settings
    @given(sub_b4_instances(), st.integers(min_value=0, max_value=2**16))
    def test_metis_never_ends_below_its_start_or_zero(self, instance, seed):
        outcome = Metis(theta=4).solve(instance, rng=seed)
        assert outcome.best.profit >= max(0.0, outcome.initial_profit)

    @theorem_settings
    @given(sub_b4_instances(), st.integers(min_value=0, max_value=2**16))
    def test_metis_never_beats_opt_spm(self, instance, seed):
        # The slack covers HiGHS's default relative MIP gap (1e-4).
        opt = solve_opt_spm(instance).profit
        outcome = Metis(theta=4).solve(instance, rng=seed)
        assert outcome.best.profit <= opt + 1e-4 * abs(opt) + 1e-6
