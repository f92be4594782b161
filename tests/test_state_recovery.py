"""The crash matrix: durable journaling, recovery, and fault injection.

Every test here enforces the crash-equivalence invariant of
:mod:`repro.state`: whatever point the fault hits — after batch N, after a
cycle commit, a dead pool worker, a torn or corrupt WAL tail, a failing
fsync — a resumed run produces a :class:`~repro.service.broker.BrokerReport`
whose profit, decision log and purchased capacities are *identical* (not
approximately equal) to an uninterrupted run with the same seed.
"""

import json
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import JournalError, RecoveryError, SnapshotError
from repro.net.topologies import sub_b4
from repro.net.topology import Topology
from repro.service import Broker, BrokerConfig
from repro.state import (
    FaultPlan,
    Journal,
    SimulatedCrash,
    SnapshotStore,
    config_fingerprint,
    corrupt_tail,
    read_wal,
    recover,
    scan_wal,
    snapshot_path,
    truncate_tail,
)

_BASE = dict(
    topology="sub-b4",
    num_cycles=3,
    slots_per_cycle=6,
    requests_per_cycle=8,
    seed=11,
    time_limit=60.0,
)


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted run every crashed-and-recovered run must equal."""
    return Broker(BrokerConfig(**_BASE)).run()


def _sub_b4(price_scale: float = 1.0) -> Topology:
    """A fresh sub-B4 object with every link price scaled by ``price_scale``."""
    base = sub_b4()
    topology = Topology(base.name, regions=base.regions)
    for node in base.datacenters:
        topology.add_datacenter(node)
    for edge in base.edges:
        topology.add_link(
            edge.tail,
            edge.head,
            edge.weight * price_scale,
            capacity=base.capacity(*edge.key),
            bidirectional=False,
        )
    return topology


def _config(tmp_path, **overrides):
    return BrokerConfig(**{**_BASE, "wal_path": tmp_path / "broker.wal", **overrides})


def assert_equivalent(report, baseline):
    """Bit-identical crash equivalence: profit, decisions, purchases."""
    assert report.decision_log() == baseline.decision_log()
    assert report.profit == baseline.profit
    assert report.revenue == baseline.revenue
    assert report.cost == baseline.cost
    assert len(report.cycles) == len(baseline.cycles)
    for recovered, reference in zip(report.cycles, baseline.cycles):
        assert recovered.purchased == reference.purchased
        assert recovered.assignment == reference.assignment
        assert recovered.profit == reference.profit


class TestCrashEquivalenceProperty:
    """Any seeded sub-B4 run, crashed anywhere, resumes bit-identically."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_cycles=st.integers(min_value=2, max_value=3),
        bids=st.integers(min_value=1, max_value=24),
        max_batch=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        after_cycles=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_resumed_run_equals_the_uninterrupted_run(
        self, seed, num_cycles, bids, max_batch, after_cycles, data
    ):
        fields = {
            **_BASE,
            "seed": seed,
            "num_cycles": num_cycles,
            "requests_per_cycle": bids,
            "max_batch": max_batch,
        }
        baseline = Broker(BrokerConfig(**fields)).run()
        if after_cycles:
            crash = data.draw(st.integers(min_value=1, max_value=num_cycles))
            faults = FaultPlan(crash_after_cycles=crash)
        else:
            batches = sum(len(cycle.batches) for cycle in baseline.cycles)
            crash = data.draw(st.integers(min_value=1, max_value=batches))
            faults = FaultPlan(crash_after_batches=crash)
        with tempfile.TemporaryDirectory() as scratch:
            config = BrokerConfig(**fields, wal_path=Path(scratch) / "broker.wal")
            with pytest.raises(SimulatedCrash):
                Broker(config, faults=faults).run()
            resumed = Broker(config).run(resume=True)
        assert resumed.decision_log() == baseline.decision_log()
        assert [repr(cycle.profit) for cycle in resumed.cycles] == [
            repr(cycle.profit) for cycle in baseline.cycles
        ]
        assert [cycle.purchased for cycle in resumed.cycles] == [
            cycle.purchased for cycle in baseline.cycles
        ]


class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal.open(path, fsync="always") as journal:
            journal.append({"type": "a", "n": 1})
            journal.append({"type": "b", "x": [1.5, None, "s"]})
        assert read_wal(path) == [
            {"type": "a", "n": 1},
            {"type": "b", "x": [1.5, None, "s"]},
        ]

    def test_torn_tail_detected_and_dropped(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal.open(path) as journal:
            for n in range(5):
                journal.append({"n": n})
        truncate_tail(path, 3)
        records, offset, truncated = scan_wal(path)
        assert [r["n"] for r in records] == [0, 1, 2, 3]
        assert truncated
        # Re-opening heals the file: the tail is truncated and appends resume.
        with Journal.open(path) as journal:
            journal.append({"n": 99})
        records, healed_offset, truncated = scan_wal(path)
        assert [r["n"] for r in records] == [0, 1, 2, 3, 99]
        assert not truncated
        assert healed_offset == path.stat().st_size > offset

    def test_corrupt_tail_stops_scan(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal.open(path) as journal:
            for n in range(4):
                journal.append({"n": n})
        corrupt_tail(path, 2)  # damages the last record's payload only
        records, _, truncated = scan_wal(path)
        assert [r["n"] for r in records] == [0, 1, 2]
        assert truncated

    def test_missing_file_is_empty_journal(self, tmp_path):
        assert read_wal(tmp_path / "nope.wal") == []

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            Journal(tmp_path / "j.wal", fsync="sometimes")


class TestSnapshotStore:
    def test_publish_load_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        seconds = store.publish({"cycles": [1, 2], "pi": 3.5})
        assert seconds >= 0.0
        assert store.load() == {"cycles": [1, 2], "pi": 3.5}

    def test_publish_writes_the_one_shot_encoding(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        state = {
            "cycles": [{"profit": 0.1 + 0.2, "ids": [3, 1]}],
            "name": "Zürich",
            "empty": None,
        }
        store.publish(state)
        checksum = zlib.crc32(
            json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        )
        expected = json.dumps({"checksum": checksum, "state": state})
        assert store.path.read_bytes() == expected.encode("utf-8")
        assert store.load() == state

    def test_publish_is_atomic_replace(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        store.publish({"v": 1})
        store.publish({"v": 2})
        assert store.load() == {"v": 2}
        # No temp litter left behind in the directory.
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_corrupt_snapshot_raises(self, tmp_path):
        store = SnapshotStore(tmp_path / "snap.json")
        store.publish({"v": 1})
        raw = json.loads(store.path.read_text())
        raw["state"]["v"] = 2  # state no longer matches its checksum
        store.path.write_text(json.dumps(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            store.load()

    def test_missing_snapshot_is_none(self, tmp_path):
        assert SnapshotStore(tmp_path / "none.json").load() is None


class TestCrashMatrix:
    @pytest.mark.parametrize("crash_after", [1, 4, 8, 11])
    def test_kill_after_batch_n(self, tmp_path, baseline, crash_after):
        config = _config(tmp_path)
        with pytest.raises(SimulatedCrash):
            Broker(config, faults=FaultPlan(crash_after_batches=crash_after)).run()
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)

    @pytest.mark.parametrize("crash_after", [1, 2])
    def test_kill_after_cycle_commit(self, tmp_path, baseline, crash_after):
        config = _config(tmp_path)
        with pytest.raises(SimulatedCrash):
            Broker(config, faults=FaultPlan(crash_after_cycles=crash_after)).run()
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)
        # The committed cycles were recovered, not re-solved.
        expected = sum(len(c.batches) for c in baseline.cycles[:crash_after])
        assert resumed.summary()["recovered_batches"] == expected

    @pytest.mark.parametrize("torn_bytes", [3, 9, 40])
    def test_torn_wal_tail(self, tmp_path, baseline, torn_bytes):
        config = _config(tmp_path)
        Broker(config).run()
        truncate_tail(config.wal_path, torn_bytes)
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)

    def test_corrupt_wal_tail(self, tmp_path, baseline):
        config = _config(tmp_path)
        Broker(config).run()
        corrupt_tail(config.wal_path, 16)
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)

    def test_torn_first_cycle_commit(self, tmp_path, baseline):
        # Appends: the open record, cycle 0's batch records, its commit.
        config = _config(tmp_path)
        torn_at = len(baseline.cycles[0].batches) + 2
        with pytest.raises(SimulatedCrash):
            Broker(config, faults=FaultPlan(torn_write_at=torn_at)).run()
        records, _, truncated = scan_wal(config.wal_path)
        assert truncated
        assert not [r for r in records if r["type"] == "cycle"]
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)
        assert resumed.summary()["recovered_batches"] == 0

    def test_worker_death_mid_solve(self, tmp_path, baseline):
        config = _config(tmp_path, workers=2)
        plan = FaultPlan(
            kill_worker_cycle=1, once_path=str(tmp_path / "kill.latch")
        )
        report = Broker(config, faults=plan).run()
        assert_equivalent(report, baseline)
        assert report.summary()["worker_restarts"] >= 1
        assert (tmp_path / "kill.latch").exists()

    def test_fsync_failure_is_loud_and_prefix_recovers(self, tmp_path, baseline):
        config = _config(tmp_path, fsync="always")
        with pytest.raises(JournalError, match="fsync"):
            Broker(config, faults=FaultPlan(fail_fsync_at=4)).run()
        resumed = Broker(_config(tmp_path)).run(resume=True)
        assert_equivalent(resumed, baseline)

    def test_corrupt_snapshot_falls_back_to_wal(self, tmp_path, baseline):
        config = _config(tmp_path)
        Broker(config).run()
        snap = snapshot_path(config.wal_path)
        snap.write_text("not json {")
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)

    def test_resume_of_finished_run_replays_everything(self, tmp_path, baseline):
        config = _config(tmp_path)
        first = Broker(config).run()
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)
        total = sum(len(c.batches) for c in first.cycles)
        assert resumed.summary()["recovered_batches"] == total
        # Nothing was re-served, so no new cycle commits were journaled.
        commits = [r for r in read_wal(config.wal_path) if r["type"] == "cycle"]
        assert len(commits) == len(baseline.cycles)

    def test_orphan_batch_records_match_the_rerun(self, tmp_path, baseline):
        # The WAL's per-decision trail for an uncommitted cycle must agree
        # with what the deterministic re-run decides — the write-ahead log
        # is a prefix of the truth, never a fork of it.
        config = _config(tmp_path)
        with pytest.raises(SimulatedCrash):
            Broker(config, faults=FaultPlan(crash_after_batches=8)).run()
        records = read_wal(config.wal_path)
        committed = {r["cycle"] for r in records if r["type"] == "cycle"}
        orphans = [
            r for r in records
            if r["type"] == "batch" and r["cycle"] not in committed
        ]
        assert orphans, "crash point must leave an uncommitted cycle behind"
        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)
        rerun = resumed.cycles[orphans[0]["cycle"]]
        for orphan, record in zip(orphans, rerun.batches):
            assert orphan["accepted"] == record.accepted
            assert orphan["revenue"] == record.revenue
            assert orphan["incremental_cost"] == record.incremental_cost


class TestRecoveryGuards:
    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        config = _config(tmp_path)
        Broker(config).run()
        other = _config(tmp_path, seed=99)
        with pytest.raises(RecoveryError, match="different configuration"):
            Broker(other).run(resume=True)

    def test_equal_topology_object_resumes(self, tmp_path):
        Broker(_config(tmp_path, topology=_sub_b4())).run()
        longer = _config(tmp_path, topology=_sub_b4(), num_cycles=4)
        assert len(Broker(longer).run(resume=True).cycles) == 4

    @pytest.mark.parametrize(
        "changed",
        [
            lambda topology: topology.set_uniform_capacity(1),
            lambda topology: topology.set_capacity("DC1", "DC2", 2),
        ],
        ids=["uniform-capacity", "one-capacity"],
    )
    def test_recapacitated_topology_object_refuses_resume(
        self, tmp_path, changed
    ):
        topology = _sub_b4()
        Broker(_config(tmp_path, topology=topology)).run()
        changed(topology)
        with pytest.raises(RecoveryError, match="different configuration"):
            Broker(_config(tmp_path, topology=topology)).run(resume=True)

    def test_repriced_topology_object_refuses_resume(self, tmp_path):
        Broker(_config(tmp_path, topology=_sub_b4())).run()
        repriced = _config(tmp_path, topology=_sub_b4(price_scale=2.0))
        with pytest.raises(RecoveryError, match="different configuration"):
            Broker(repriced).run(resume=True)

    def test_named_topology_fingerprint_is_unchanged(self):
        # The digest written by every earlier release for this config: WALs
        # that name their topology keep resuming.
        assert config_fingerprint(BrokerConfig(**_BASE)) == (
            "f00a5324dbb76eb9ce511303ede18c4a"
        )

    def test_resume_without_wal_rejected(self):
        with pytest.raises(ValueError, match="wal_path"):
            Broker(BrokerConfig(**_BASE)).run(resume=True)

    def test_resume_extends_horizon(self, tmp_path, baseline):
        # num_cycles is not part of the fingerprint: a resumed run may
        # serve more cycles than the run it continues.
        config = _config(tmp_path)
        Broker(config).run()
        longer = _config(tmp_path, num_cycles=4)
        extended = Broker(longer).run(resume=True)
        assert extended.decision_log()[: len(baseline.decision_log())] == (
            baseline.decision_log()
        )
        assert len(extended.cycles) == 4

    def test_fresh_wal_recovers_empty(self, tmp_path):
        config = _config(tmp_path)
        state = recover(config.wal_path, fingerprint=config_fingerprint(config))
        assert state.cycles == [] and state.next_cycle == 0

    def test_snapshot_cadence(self, tmp_path):
        config = _config(tmp_path, snapshot_every=2)
        Broker(config).run()
        snapshot = SnapshotStore(snapshot_path(config.wal_path)).load()
        # 3 cycles, snapshot every 2: the last publish covered cycles 0-1.
        assert snapshot["next_cycle"] == 2
        assert [c["cycle"] for c in snapshot["cycles"]] == [0, 1]
        assert snapshot["queue"] == []
        assert snapshot["seeds"]["seed"] == _BASE["seed"]


#: The ``cycle`` record keys every unsharded WAL and snapshot carries.
_CYCLE_KEYS = {
    "type", "cycle", "num_requests", "accepted", "declined", "shed",
    "revenue", "cost", "profit", "wall_seconds", "batches", "assignment",
    "purchased",
}


class TestUnshardedRecordFormat:
    """Unsharded cycle records carry no ``fleet`` key, so old WALs resume."""

    def test_broker_records_keep_their_keys(self, tmp_path):
        config = _config(tmp_path)
        report = Broker(config).run()
        assert all(c.fleet is None for c in report.cycles)
        commits = [r for r in read_wal(config.wal_path) if r["type"] == "cycle"]
        assert len(commits) == len(report.cycles)
        assert all(set(r) == _CYCLE_KEYS for r in commits)
        snapshot = SnapshotStore(snapshot_path(config.wal_path)).load()
        assert all(set(r) == _CYCLE_KEYS for r in snapshot["cycles"])

    def test_gateway_records_keep_their_keys(self, tmp_path):
        import asyncio

        from repro.gateway import GatewayConfig, GatewayServer

        wal = tmp_path / "gateway.wal"
        config = GatewayConfig(
            topology="sub-b4",
            slots_per_cycle=2,
            slot_seconds=0.01,
            num_cycles=2,
            wal_path=wal,
        )

        async def serve():
            server = GatewayServer(config)
            await server.start()
            await server.wait_closed()
            return server

        server = asyncio.run(serve())
        assert all(c.fleet is None for c in server.cycles)
        commits = [r for r in read_wal(wal) if r["type"] == "cycle"]
        assert len(commits) == 2
        assert all(set(r) == _CYCLE_KEYS for r in commits)


class TestOldRecordFormat:
    def test_wal_with_screened_batches_resumes_bit_identically(
        self, tmp_path, baseline
    ):
        # Older builds journaled a "screened" flag on every batch record,
        # both alone and inside cycle records and snapshots.
        config = _config(tmp_path)
        with pytest.raises(SimulatedCrash):
            Broker(config, faults=FaultPlan(crash_after_cycles=2)).run()

        def with_flag(record):
            if record["type"] == "batch":
                return {**record, "screened": False}
            if record["type"] == "cycle":
                batches = [{**b, "screened": False} for b in record["batches"]]
                return {**record, "batches": batches}
            return record

        records = [with_flag(r) for r in read_wal(config.wal_path)]
        config.wal_path.unlink()
        with Journal.open(config.wal_path) as journal:
            for record in records:
                journal.append(record)
        store = SnapshotStore(snapshot_path(config.wal_path))
        snapshot = store.load()
        store.publish(
            {**snapshot, "cycles": [with_flag(c) for c in snapshot["cycles"]]}
        )

        resumed = Broker(config).run(resume=True)
        assert_equivalent(resumed, baseline)
        for recovered, reference in zip(resumed.cycles, baseline.cycles):
            assert [
                {**vars(r), "solver_seconds": 0} for r in recovered.batches
            ] == [{**vars(r), "solver_seconds": 0} for r in reference.batches]


class TestTelemetryCounters:
    def test_wal_run_reports_durability_counters(self, tmp_path):
        config = _config(tmp_path)
        summary = Broker(config).run().summary()
        assert summary["wal_bytes"] > 0
        assert summary["snapshot_seconds"] > 0.0
        assert summary["recovered_batches"] == 0
        assert summary["worker_restarts"] == 0

    def test_wal_off_counters_zero(self):
        summary = Broker(BrokerConfig(**_BASE)).run().summary()
        assert summary["wal_bytes"] == 0
        assert summary["snapshot_seconds"] == 0.0
        assert summary["recovered_batches"] == 0
