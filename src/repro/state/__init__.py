"""Durability for the serving layer: journaling, snapshots, recovery.

The broker (:mod:`repro.service`) writes through this package when
``BrokerConfig.wal_path`` is set: every admission decision and bandwidth
purchase lands in an append-only write-ahead log
(:mod:`repro.state.journal`), completed cycles are folded into atomic
snapshots (:mod:`repro.state.snapshot`), and a crashed run resumes
bit-identically from ``Broker.run(resume=True)``
(:mod:`repro.state.recovery`).  :mod:`repro.state.faults` is the
fault-injection harness the crash-matrix tests drive.
"""

from repro.state.faults import FaultPlan, SimulatedCrash, corrupt_tail, truncate_tail
from repro.state.journal import FSYNC_POLICIES, Journal, read_wal, scan_wal
from repro.state.recovery import (
    WAL_FORMAT,
    RecoveredState,
    batch_to_record,
    broker_snapshot_state,
    config_fingerprint,
    cycle_from_record,
    cycle_to_record,
    recover,
    shard_fingerprint,
)
from repro.state.snapshot import SnapshotStore, snapshot_path

__all__ = [
    "Journal",
    "scan_wal",
    "read_wal",
    "FSYNC_POLICIES",
    "SnapshotStore",
    "snapshot_path",
    "WAL_FORMAT",
    "RecoveredState",
    "config_fingerprint",
    "shard_fingerprint",
    "batch_to_record",
    "broker_snapshot_state",
    "cycle_to_record",
    "cycle_from_record",
    "recover",
    "FaultPlan",
    "SimulatedCrash",
    "truncate_tail",
    "corrupt_tail",
]
