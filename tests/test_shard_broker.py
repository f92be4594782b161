"""The sharded broker: equivalence, coordination, and single-WAL recovery."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.exceptions import RecoveryError
from repro.net.topologies import b4
from repro.service import Broker, BrokerConfig
from repro.shard import ShardConfig, ShardedBroker
from repro.state import (
    FaultPlan,
    SimulatedCrash,
    read_wal,
    shard_fingerprint,
    snapshot_path,
)
from repro.state.faults import corrupt_tail, truncate_tail

_TOL = 1e-9

_BASE = dict(
    topology="sub-b4",
    num_cycles=2,
    slots_per_cycle=6,
    requests_per_cycle=18,
    seed=2019,
    time_limit=240.0,
)


def _run(tmp_path=None, *, resume=False, faults=None, **overrides):
    fields = {**_BASE, "shards": 2, **overrides}
    if tmp_path is not None:
        fields["wal_path"] = tmp_path / "fleet.wal"
    broker = ShardedBroker(ShardConfig(**fields), faults=faults)
    return broker.run(resume=resume)


def _purchases(report):
    return [cycle.purchased for cycle in report.cycles]


def _assert_same_run(report, baseline):
    """Crash equivalence: decisions, per-cycle profit, purchases, fleet."""
    assert report.decision_log() == baseline.decision_log()
    # Bitwise: a recovered profit is a float, a served one a numpy float.
    assert [repr(float(c.profit)) for c in report.cycles] == [
        repr(float(c.profit)) for c in baseline.cycles
    ]
    assert _purchases(report) == _purchases(baseline)
    assert [c.fleet for c in report.cycles] == [
        c.fleet for c in baseline.cycles
    ]


class TestConfig:
    def test_unhedged_pool_refuses_shard_breakers(self):
        # Without a cycle budget the pooled fleet dispatches through the
        # pool and never reads its shard breakers.
        with pytest.raises(
            ValueError, match="breaker_failures.*workers.*cycle_budget"
        ):
            ShardConfig(workers=2, breaker_failures=3)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(workers=2, cycle_budget=5.0),
            dict(workers=0),
            dict(workers=0, cycle_budget=5.0),
        ],
    )
    def test_fleets_that_read_their_breakers_keep_them(self, fields):
        config = ShardConfig(breaker_failures=3, **fields)
        assert config.breaker().failure_threshold == 3


class TestEquivalence:
    def test_single_shard_matches_the_monolithic_broker(self):
        mono = Broker(BrokerConfig(**_BASE)).run()
        sharded = _run(shards=1)
        assert sharded.decision_log() == mono.decision_log()
        assert sharded.profit == pytest.approx(mono.profit)

    def test_serial_runs_are_deterministic(self):
        first = _run()
        second = _run()
        assert first.decision_log() == second.decision_log()
        assert first.profit == second.profit
        assert _purchases(first) == _purchases(second)

    def test_pool_matches_serial(self):
        serial = _run()
        pooled = _run(workers=2)
        assert pooled.decision_log() == serial.decision_log()
        assert pooled.profit == serial.profit
        assert _purchases(pooled) == _purchases(serial)

    def test_partition_modes_both_cover_every_request(self):
        for partition in ("hash", "region"):
            report = _run(partition=partition, shards=3)
            for cycle in report.cycles:
                assert len(cycle.assignment) == cycle.num_requests
                assert len(cycle.fleet["shards"]) == 3


def _capped_star(wal_path=None):
    """A deterministic bottleneck on a star, for 3 shards.

    Every bid crosses the star's (hub, DC1) link of capacity 1.  Each
    shard respects the cap *locally*, so three shards can jointly
    oversubscribe it 3x — exactly what the ledger's duals and the
    reconciliation eviction must resolve.
    """
    from repro.net.topologies import star_topology
    from repro.service.ingest import TraceSource
    from repro.workload.request import Request, RequestSet

    topo = star_topology(6)
    topo.set_uniform_capacity(1)
    slots = 4
    trace = RequestSet(
        [
            Request(rid, f"DC{2 + (rid % 5)}", "DC1", 0, slots - 1,
                    1.0, 40.0 + rid)
            for rid in range(9)
        ],
        slots,
    )
    config = ShardConfig(
        **{**_BASE, "slots_per_cycle": slots, "requests_per_cycle": 9},
        shards=3,
        wal_path=wal_path,
    )
    return topo, trace, config


def _capped_broker(config, topo, trace, faults=None):
    from repro.service.ingest import TraceSource

    broker = ShardedBroker(config, source=TraceSource(trace), faults=faults)
    broker.topology = topo
    return broker


class TestCoordination:
    def test_capped_run_is_slot_feasible_and_exercises_duals(self):
        from repro.core.instance import SPMInstance

        topo, trace, config = _capped_star()
        report = _capped_broker(config, topo, trace).run()
        summary = report.summary()
        assert summary["reconciliation_evictions"] > 0
        assert summary["ledger_price_iterations"] > 0
        # Every committed cycle is feasible per (edge, slot) after the
        # eviction pass, replayed onto a fresh instance.
        instance = SPMInstance.build(topo, trace, k_paths=config.k_paths)
        for cycle in report.cycles:
            merged = cycle.assignment
            loads = instance.loads(merged)
            assert float(loads.max(initial=0.0)) <= 1.0 + _TOL
            fleet = cycle.fleet
            assert fleet["max_violation"] > 0 or not fleet["evicted"]
            for rid in fleet["evicted"]:
                assert merged[rid] is None
        # The second cycle solves against raised duals carried over from
        # the first, so the fleet over-admits less (or no more) over time.
        assert len(report.cycles[1].fleet["evicted"]) <= len(
            report.cycles[0].fleet["evicted"]
        )

    def test_telemetry_reports_per_shard_sections(self, tmp_path):
        report = _run(shards=2)
        summary = report.summary()
        assert summary["num_shards"] == 2
        path = tmp_path / "telemetry.json"
        report.dump_telemetry(path)
        import json

        payload = json.loads(path.read_text())
        assert set(payload["shards"]) == {"0", "1"}
        total = sum(
            section["decisions"] for section in payload["shards"].values()
        )
        assert total == summary["decisions"]


class TestFleetRecovery:
    def _baseline(self):
        return _run()

    def test_wal_layout(self, tmp_path):
        _run(tmp_path)
        base = tmp_path / "fleet.wal"
        # One WAL plus its snapshot: no per-shard or ledger journals.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            base.name,
            snapshot_path(base).name,
        ]
        records = read_wal(base)
        commits = [r for r in records if r["type"] == "cycle"]
        assert [r["cycle"] for r in commits] == [0, 1]
        assert all(set(r["fleet"]["ledger"]) >= {"duals"} for r in commits)

    def test_crash_resume_equals_uninterrupted(self, tmp_path):
        baseline = self._baseline()
        # A fleet cycle is one commit: crashing after the first leaves
        # cycle 0 trusted, so the resume actually recovers a prefix.
        with pytest.raises(SimulatedCrash):
            _run(tmp_path, faults=FaultPlan(crash_after_cycles=1))
        resumed = _run(tmp_path, resume=True)
        _assert_same_run(resumed, baseline)
        assert resumed.telemetry.recovered_batches == len(
            baseline.cycles[0].batches
        )

    def test_crash_mid_cycle_resumes_equal(self, tmp_path):
        baseline = self._baseline()
        crash_at = len(baseline.cycles[0].batches) + 1  # first of cycle 1
        with pytest.raises(SimulatedCrash):
            _run(tmp_path, faults=FaultPlan(crash_after_batches=crash_at))
        _assert_same_run(_run(tmp_path, resume=True), baseline)

    @pytest.mark.parametrize("torn_bytes", [1, 7])
    def test_torn_shard_wal_tail(self, tmp_path, torn_bytes):
        """Tearing the fleet WAL's tail loses cycle 0's commit record."""
        baseline = self._baseline()
        with pytest.raises(SimulatedCrash):
            _run(tmp_path, faults=FaultPlan(crash_after_cycles=1))
        truncate_tail(tmp_path / "fleet.wal", torn_bytes)
        resumed = _run(tmp_path, resume=True)
        _assert_same_run(resumed, baseline)
        assert resumed.telemetry.recovered_batches == 0

    def test_corrupt_ledger_tail(self, tmp_path):
        """Corrupting the tail corrupts cycle 0's ledger (``fleet``) record."""
        baseline = self._baseline()
        with pytest.raises(SimulatedCrash):
            _run(tmp_path, faults=FaultPlan(crash_after_cycles=1))
        corrupt_tail(tmp_path / "fleet.wal", 8)
        resumed = _run(tmp_path, resume=True)
        _assert_same_run(resumed, baseline)
        assert resumed.telemetry.recovered_batches == 0

    @pytest.mark.parametrize("crash_after", [1, 2])
    def test_capped_resume_restores_the_fleet(self, tmp_path, crash_after):
        """Evictions, violations and duals survive a crash; snapshots land."""
        topo, trace, config = _capped_star()
        baseline = _capped_broker(config, topo, trace).run()
        assert baseline.cycles[0].fleet["evicted"]  # the fixture bites
        wal = tmp_path / "capped.wal"
        config = replace(config, wal_path=wal)
        with pytest.raises(SimulatedCrash):
            _capped_broker(
                config, topo, trace, FaultPlan(crash_after_cycles=crash_after)
            ).run()
        resumed = _capped_broker(config, topo, trace).run(resume=True)
        _assert_same_run(resumed, baseline)
        assert resumed.cycles[0].fleet == baseline.cycles[0].fleet
        assert resumed.summary()["reconciliation_evictions"] == (
            baseline.summary()["reconciliation_evictions"]
        )
        assert snapshot_path(wal).exists()

    def test_resume_under_different_sharding_refuses(self, tmp_path):
        _run(tmp_path)
        with pytest.raises(RecoveryError):
            _run(tmp_path, resume=True, shards=3)

    def test_shard_fingerprints_are_distinct(self):
        base = "abc123"
        prints = {
            shard_fingerprint(base, 2, "hash", "fleet"),
            shard_fingerprint(base, 2, "hash", "live"),
            shard_fingerprint(base, 3, "hash", "fleet"),
            shard_fingerprint(base, 2, "region", "fleet"),
            shard_fingerprint(base, 2, "hash", 0),
        }
        assert len(prints) == 5
