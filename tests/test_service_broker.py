"""Tests for repro.service.broker — the streaming admission broker."""

import pytest

import repro.core.online as online_mod
from repro.baselines.opt import solve_opt_spm
from repro.core.online import OnlineScheduler
from repro.core.schedule import Schedule
from repro.exceptions import SolverError
from repro.lp.result import RawSolution, SolveStatus
from repro.service.broker import Broker, BrokerConfig, run_cycle
from repro.service.cache import DecisionCache
from repro.service.ingest import TraceSource
from repro.sim.validator import validate_schedule

_SMALL = dict(
    topology="sub-b4",
    slots_per_cycle=12,
    requests_per_cycle=15,
    seed=7,
)


class TestSeedDeterminism:
    def test_same_seed_same_log_and_profit(self):
        config = BrokerConfig(num_cycles=2, **_SMALL)
        first = Broker(config).run()
        second = Broker(config).run()
        assert first.decision_log() == second.decision_log()
        assert first.profit == second.profit
        assert [c.profit for c in first.cycles] == [c.profit for c in second.cycles]

    def test_different_seed_differs(self):
        base = {**_SMALL, "seed": 7}
        other = {**_SMALL, "seed": 8}
        first = Broker(BrokerConfig(num_cycles=1, **base)).run()
        second = Broker(BrokerConfig(num_cycles=1, **other)).run()
        assert first.decision_log() != second.decision_log()


class TestOfflineDominance:
    def test_broker_profit_at_most_offline_opt(self, small_sub_b4_instance):
        instance = small_sub_b4_instance
        config = BrokerConfig(
            topology=instance.topology,
            num_cycles=1,
            slots_per_cycle=instance.num_slots,
        )
        source = TraceSource(instance.requests)
        report = Broker(config, source=source).run()
        offline = solve_opt_spm(instance)
        assert report.profit <= offline.profit + 1e-6
        assert report.profit >= 0.0

    def test_matches_online_scheduler_with_unit_window(self, small_sub_b4_instance):
        # window=1, no cache, no queue bound == the exact per-slot online
        # extension; the broker must reproduce its decisions verbatim.
        instance = small_sub_b4_instance
        config = BrokerConfig(
            topology=instance.topology,
            num_cycles=1,
            slots_per_cycle=instance.num_slots,
            window=1,
            cache_size=0,
        )
        report = Broker(config, source=TraceSource(instance.requests)).run()
        online = OnlineScheduler().run(instance)
        assert report.cycles[0].assignment == online.schedule.assignment
        assert report.profit == pytest.approx(online.profit)


class TestAccounting:
    def test_batch_ledger_consistent_with_schedule(self):
        config = BrokerConfig(num_cycles=1, **_SMALL)
        report = Broker(config).run()
        cycle = report.cycles[0]
        assert sum(b.revenue for b in cycle.batches) == pytest.approx(cycle.revenue)
        assert sum(b.incremental_cost for b in cycle.batches) == pytest.approx(
            cycle.cost
        )
        assert sum(b.accepted for b in cycle.batches) == cycle.accepted
        assert cycle.accepted + cycle.declined + cycle.shed == cycle.num_requests
        assert report.summary()["profit"] == pytest.approx(report.profit)

    def test_schedule_rebuilds_and_validates(self):
        config = BrokerConfig(num_cycles=1, **_SMALL)
        broker = Broker(config)
        report = broker.run()
        instance_requests = broker.source.cycle(0)
        from repro.core.instance import SPMInstance

        instance = SPMInstance.build(
            broker.topology, instance_requests, k_paths=config.k_paths
        )
        schedule = Schedule(instance, report.cycles[0].assignment)
        assert validate_schedule(schedule).ok
        assert schedule.profit == pytest.approx(report.cycles[0].profit)

    def test_empty_cycle(self):
        config = BrokerConfig(num_cycles=1, requests_per_cycle=0, topology="sub-b4")
        report = Broker(config).run()
        assert report.profit == 0.0
        assert report.cycles[0].num_requests == 0
        assert report.summary()["decisions"] == 0


class TestWindowsAndQueues:
    def test_wider_window_still_bounded_by_opt(self, small_sub_b4_instance):
        instance = small_sub_b4_instance
        offline = solve_opt_spm(instance)
        for window in (2, 4):
            config = BrokerConfig(
                topology=instance.topology,
                num_cycles=1,
                slots_per_cycle=instance.num_slots,
                window=window,
            )
            report = Broker(config, source=TraceSource(instance.requests)).run()
            assert report.profit <= offline.profit + 1e-6

    def test_max_batch_splits_solves(self):
        config = BrokerConfig(num_cycles=1, max_batch=1, **_SMALL)
        report = Broker(config).run()
        assert all(b.size == 1 for b in report.cycles[0].batches)
        # One MILP per request.
        assert len(report.cycles[0].batches) == report.cycles[0].num_requests

    def test_queue_capacity_sheds(self):
        config = BrokerConfig(
            num_cycles=1, window=12, queue_capacity=5, **_SMALL
        )
        report = Broker(config).run()
        cycle = report.cycles[0]
        assert cycle.shed > 0
        assert cycle.accepted + cycle.declined + cycle.shed == cycle.num_requests
        # Shed requests are declined in the final assignment.
        assert sum(1 for p in cycle.assignment.values() if p is None) >= cycle.shed
        assert report.summary()["shed"] == cycle.shed


class TestDecisionCache:
    def test_repeated_trace_hits_cache(self, small_sub_b4_instance):
        instance = small_sub_b4_instance
        config = BrokerConfig(
            topology=instance.topology,
            num_cycles=3,
            slots_per_cycle=instance.num_slots,
        )
        report = Broker(config, source=TraceSource(instance.requests)).run()
        summary = report.summary()
        assert summary["cache_hit_rate"] >= 0.5
        profits = [c.profit for c in report.cycles]
        assert profits[0] == pytest.approx(profits[1])
        assert profits[1] == pytest.approx(profits[2])

    def test_cache_replay_equals_solving(self, small_sub_b4_instance):
        instance = small_sub_b4_instance
        kwargs = dict(
            topology=instance.topology,
            num_cycles=2,
            slots_per_cycle=instance.num_slots,
        )
        source = TraceSource(instance.requests)
        cached = Broker(BrokerConfig(**kwargs), source=source).run()
        uncached = Broker(BrokerConfig(cache_size=0, **kwargs), source=source).run()
        assert cached.decision_log() == uncached.decision_log()
        assert uncached.summary()["cache_hits"] == 0


class TestWorkerPool:
    def test_pool_matches_serial(self):
        serial = Broker(BrokerConfig(num_cycles=3, workers=0, **_SMALL)).run()
        pooled = Broker(BrokerConfig(num_cycles=3, workers=2, **_SMALL)).run()
        assert pooled.decision_log() == serial.decision_log()
        assert pooled.profit == pytest.approx(serial.profit)
        assert len(pooled.cycles) == 3

    def test_single_cycle_stays_serial(self):
        # workers >= 2 with one cycle: nothing to parallelize, no pool spawn.
        report = Broker(BrokerConfig(num_cycles=1, workers=4, **_SMALL)).run()
        assert len(report.cycles) == 1


class TestCancellationAndLimits:
    def test_check_cancelled_aborts_cycle(self, small_sub_b4_instance):
        instance = small_sub_b4_instance
        with pytest.raises(SolverError, match="cancelled"):
            run_cycle(
                instance.topology,
                instance.requests,
                check_cancelled=lambda: True,
            )

    def test_time_limit_plumbs_through(self, small_sub_b4_instance):
        instance = small_sub_b4_instance
        result = run_cycle(
            instance.topology, instance.requests, time_limit=60.0,
            cache=DecisionCache(8),
        )
        assert result.accepted + result.declined == instance.num_requests


class TestGracefulDegradation:
    """Limit-hit solves degrade to declines/incumbents, never crashes."""

    def test_tiny_time_limit_completes_and_counts_timeouts(self):
        config = BrokerConfig(
            num_cycles=1, time_limit=1e-7, cache_size=0, **_SMALL
        )
        report = Broker(config).run()  # must not raise
        summary = report.summary()
        assert summary["accepted"] + summary["declined"] == summary["decisions"]
        # ~0 seconds leaves no incumbent: every solved batch is declined
        # and counted as timed out.
        assert summary["timed_out_batches"] == summary["batches"]
        assert summary["accepted"] == 0
        assert report.profit == 0.0

    def test_forced_timeout_declines_whole_batches(
        self, small_sub_b4_instance, monkeypatch
    ):
        # Small batches are enumerated by default; force every one to HiGHS.
        monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
        monkeypatch.setattr(
            online_mod,
            "solve_compiled_raw",
            lambda *a, **k: RawSolution(
                status=SolveStatus.TIME_LIMIT, objective=float("nan")
            ),
        )
        instance = small_sub_b4_instance
        result = run_cycle(
            instance.topology, instance.requests, time_limit=1e-3
        )
        assert result.accepted == 0
        assert all(b.timed_out for b in result.batches)
        # Unbudgeted runs have no degraded rungs armed: the batch is
        # declined, and the record says so.
        assert all(b.rung == "decline" for b in result.batches)
        assert all(path is None for path in result.assignment.values())

    def test_forced_suboptimal_is_flagged_and_not_cached(
        self, small_sub_b4_instance, monkeypatch
    ):
        monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
        real = online_mod.solve_compiled_raw

        def relabel(*args, **kwargs):
            raw = real(*args, **kwargs)
            return RawSolution(
                status=SolveStatus.FEASIBLE, objective=raw.objective, x=raw.x
            )

        monkeypatch.setattr(online_mod, "solve_compiled_raw", relabel)
        instance = small_sub_b4_instance
        cache = DecisionCache(32)
        first = run_cycle(instance.topology, instance.requests, cache=cache)
        assert all(b.suboptimal for b in first.batches)
        assert all(b.rung == "incumbent" for b in first.batches)
        # Only proven-optimal decisions enter the cache, so a replay of the
        # same cycle still solves every batch.
        second = run_cycle(instance.topology, instance.requests, cache=cache)
        assert not any(b.cache_hit for b in second.batches)
        # The relabelled incumbents are the real optima, so the decisions
        # themselves are unchanged.
        assert first.assignment == second.assignment


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_cycles", 0),
            ("slots_per_cycle", 0),
            ("window", 0),
            ("requests_per_cycle", -1),
            ("workers", -1),
            ("cache_size", -1),
            ("queue_capacity", 0),
            ("max_batch", 0),
            ("time_limit", 0.0),
            ("time_limit", -1.0),
            ("time_limit", float("nan")),
            ("breaker_reset", -1.0),
            ("breaker_reset", float("nan")),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError):
            BrokerConfig(**{field: value})

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_run_refuses_a_breaker(self, workers):
        # Pooled cycles run without a circuit breaker: arming one there
        # would be accepted and never consulted.
        with pytest.raises(ValueError, match="breaker_failures.*workers"):
            BrokerConfig(workers=workers, breaker_failures=3)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_serial_run_keeps_its_breaker(self, workers):
        config = BrokerConfig(workers=workers, breaker_failures=3)
        assert config.breaker().failure_threshold == 3

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            Broker(BrokerConfig(topology="nope"))

    def test_unlimited_time_limit_is_none(self):
        assert BrokerConfig(time_limit=None).time_limit is None

    def test_top_level_exports(self):
        import repro

        assert repro.Broker is Broker
        assert repro.BrokerConfig is BrokerConfig
        assert hasattr(repro, "Metis") and hasattr(repro, "SPMInstance")
