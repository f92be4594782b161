"""Tests for repro.core.metis — the alternating framework."""

import pytest

from repro.core.maa import solve_maa
from repro.core.metis import (
    Metis,
    MinUtilizationLimiter,
    ProportionalLimiter,
    prune_unprofitable,
)
from repro.core.schedule import Schedule
from repro.sim.validator import validate_schedule


class TestLimiters:
    def test_min_utilization_reduces_one_unit(self, small_sub_b4_instance):
        schedule = solve_maa(small_sub_b4_instance, rng=1).schedule
        caps = {k: int(v) for k, v in schedule.charged.items()}
        shrunk = MinUtilizationLimiter().limit(
            small_sub_b4_instance, schedule, caps
        )
        assert shrunk is not None
        diff = {
            k: caps[k] - shrunk[k] for k in caps if caps[k] != shrunk[k]
        }
        assert sum(diff.values()) == 1, "exactly one unit removed"

    def test_min_utilization_targets_least_utilized(self, small_sub_b4_instance):
        schedule = solve_maa(small_sub_b4_instance, rng=1).schedule
        caps = {k: int(v) for k, v in schedule.charged.items()}
        shrunk = MinUtilizationLimiter().limit(small_sub_b4_instance, schedule, caps)
        target = next(k for k in caps if caps[k] != shrunk[k])
        mean_loads = schedule.loads.mean(axis=1)
        target_util = (
            mean_loads[small_sub_b4_instance.edge_index[target]] / caps[target]
        )
        for idx, key in enumerate(small_sub_b4_instance.edges):
            if caps.get(key, 0) > 0:
                assert target_util <= mean_loads[idx] / caps[key] + 1e-12

    def test_min_utilization_exhausted_returns_none(self, small_sub_b4_instance):
        schedule = Schedule(
            small_sub_b4_instance,
            {rid: None for rid in small_sub_b4_instance.requests.request_ids},
        )
        caps = {k: 0 for k in small_sub_b4_instance.edges}
        assert MinUtilizationLimiter().limit(
            small_sub_b4_instance, schedule, caps
        ) is None

    def test_min_utilization_does_not_mutate(self, small_sub_b4_instance):
        schedule = solve_maa(small_sub_b4_instance, rng=1).schedule
        caps = {k: int(v) for k, v in schedule.charged.items()}
        before = dict(caps)
        MinUtilizationLimiter().limit(small_sub_b4_instance, schedule, caps)
        assert caps == before

    def test_proportional_shrinks(self, small_sub_b4_instance):
        schedule = solve_maa(small_sub_b4_instance, rng=1).schedule
        caps = {k: 10 for k in small_sub_b4_instance.edges}
        shrunk = ProportionalLimiter(0.5).limit(
            small_sub_b4_instance, schedule, caps
        )
        assert all(shrunk[k] == 5 for k in caps)

    def test_proportional_guarantees_progress(self, small_sub_b4_instance):
        schedule = solve_maa(small_sub_b4_instance, rng=1).schedule
        caps = {k: 1 for k in small_sub_b4_instance.edges}
        shrunk = ProportionalLimiter(0.99).limit(
            small_sub_b4_instance, schedule, caps
        )
        assert sum(shrunk.values()) < sum(caps.values())

    def test_limiter_params_validated(self):
        with pytest.raises(ValueError):
            MinUtilizationLimiter(step=0)
        with pytest.raises(ValueError):
            ProportionalLimiter(1.0)


class TestPrune:
    def test_prune_never_lowers_profit(self, small_sub_b4_instance):
        schedule = solve_maa(small_sub_b4_instance, rng=2).schedule
        pruned = prune_unprofitable(small_sub_b4_instance, schedule)
        assert pruned.profit >= schedule.profit - 1e-9

    def test_prune_removes_lone_unprofitable_request(self, diamond_instance):
        # Request 1 (value 2) alone on its path costs 2 units... build a
        # schedule where request 2 (value 1.0) rides the expensive route
        # (marginal cost 4 > 1): pruning must decline it.
        schedule = Schedule(diamond_instance, {0: 0, 1: 0, 2: 1})
        pruned = prune_unprofitable(diamond_instance, schedule)
        assert pruned.assignment[2] is None
        assert pruned.profit > schedule.profit

    def test_prune_keeps_profitable(self, diamond_instance):
        schedule = Schedule(diamond_instance, {0: 0, 1: None, 2: None})
        pruned = prune_unprofitable(diamond_instance, schedule)
        assert pruned.assignment[0] == 0  # value 3 > cost 2

    def test_prune_input_unchanged(self, diamond_instance):
        schedule = Schedule(diamond_instance, {0: 0, 1: 0, 2: 1})
        prune_unprofitable(diamond_instance, schedule)
        assert schedule.assignment == {0: 0, 1: 0, 2: 1}


class TestMetis:
    def test_profit_never_negative(self, small_sub_b4_instance):
        outcome = Metis(theta=5).solve(small_sub_b4_instance, rng=1)
        assert outcome.best.profit >= 0.0

    def test_best_schedule_validates(self, small_sub_b4_instance):
        outcome = Metis(theta=5).solve(small_sub_b4_instance, rng=1)
        assert outcome.best.schedule is not None
        report = validate_schedule(outcome.best.schedule)
        assert report.ok, report.errors

    def test_profit_at_least_init_maa(self, small_sub_b4_instance):
        outcome = Metis(theta=5).solve(small_sub_b4_instance, rng=1)
        assert outcome.best.profit >= outcome.initial_profit - 1e-9

    def test_more_theta_never_hurts(self, small_sub_b4_instance):
        short = Metis(theta=1, maa_rounds=1, local_search=False).solve(
            small_sub_b4_instance, rng=4
        )
        long = Metis(theta=12, maa_rounds=1, local_search=False).solve(
            small_sub_b4_instance, rng=4
        )
        assert long.best.profit >= short.best.profit - 1e-9

    def test_round_telemetry(self, small_sub_b4_instance):
        outcome = Metis(theta=4).solve(small_sub_b4_instance, rng=1)
        assert 0 < outcome.num_rounds <= 4
        for record in outcome.rounds:
            assert record.taa_accepted <= record.candidate_requests

    def test_empty_instance(self, small_sub_b4_instance):
        empty = small_sub_b4_instance.restrict([])
        outcome = Metis(theta=3).solve(empty, rng=0)
        assert outcome.best.profit == 0.0
        assert outcome.best.schedule is None

    def test_deterministic_for_seed(self, small_sub_b4_instance):
        a = Metis(theta=4).solve(small_sub_b4_instance, rng=9)
        b = Metis(theta=4).solve(small_sub_b4_instance, rng=9)
        assert a.best.profit == pytest.approx(b.best.profit)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            Metis(theta=0)
        with pytest.raises(ValueError):
            Metis(maa_rounds=0)

    def test_custom_limiter_used(self, small_sub_b4_instance):
        outcome = Metis(theta=3, limiter=ProportionalLimiter(0.5)).solve(
            small_sub_b4_instance, rng=1
        )
        assert outcome.best.profit >= 0.0

