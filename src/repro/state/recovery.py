"""Rebuilding a broker run from its snapshot and journal.

The broker's durable state is a sequence of *committed billing cycles*:
the admission queue drains inside every cycle and the charging ledger
restarts at each cycle boundary, so the cycle is the natural recovery
unit.  Recovery therefore:

1. loads the latest snapshot (tolerating a missing or corrupt one — the
   journal alone is sufficient, just slower);
2. replays the journal's ``cycle`` commit records past the snapshot,
   ignoring orphaned ``batch`` records that belong to a cycle whose
   commit never landed (that cycle's decisions were never acknowledged);
3. returns the longest contiguous prefix of committed cycles plus the
   index the broker should resume from.

The resumed run is **bit-identical** to an uninterrupted one:
:meth:`~repro.service.ingest.ArrivalSource.cycle` is deterministic in the
cycle index, each cycle starts from empty committed state, and committed
results round-trip exactly through JSON (``repr``-based float encoding),
so ``recovered prefix + deterministic re-run == uninterrupted run`` —
the crash-matrix tests assert equality of profit, decision log and
purchased capacities, not approximation.

Sharded fleets recover through the same path: each fleet cycle is one
merged ``cycle`` record whose ``fleet`` block carries the bandwidth
ledger's duals and counters, which the sharded engines restore from the
last recovered cycle.  Unsharded records carry no ``fleet`` key.

A fingerprint of the decision-relevant configuration (topology, seeds,
workload shape — *not* execution levers like ``workers`` or
``cache_size``) is stamped into the journal and every snapshot; resuming
under a different configuration raises
:class:`~repro.exceptions.RecoveryError` instead of silently splicing
incompatible histories.  :func:`shard_fingerprint` mixes in the shard
count and partition mode for sharded WALs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import RecoveryError, SnapshotError
from repro.state.journal import scan_wal
from repro.state.snapshot import SnapshotStore, snapshot_path

__all__ = [
    "WAL_FORMAT",
    "RecoveredState",
    "config_fingerprint",
    "shard_fingerprint",
    "cycle_to_record",
    "cycle_from_record",
    "broker_snapshot_state",
    "recover",
]

#: Journal/snapshot schema version; bumped on incompatible record changes.
WAL_FORMAT = 1


def config_fingerprint(config) -> str:
    """A stable digest of everything that pins the broker's decisions.

    Execution levers that cannot change which bids arrive or how a batch
    is decided (``workers``, ``cache_size``, ``wal_path``,
    ``snapshot_every``, ``fsync``) are deliberately excluded, as is
    ``num_cycles`` — a resumed run may extend the horizon of the run it
    continues.  A topology named by a string is keyed by that name; a
    :class:`~repro.net.topology.Topology` object by its name and every
    edge's key, price and capacity, in edge order.
    """
    from repro.net.topology import Topology

    topology = config.topology
    topology_key = topology
    if isinstance(topology, Topology):
        topology_key = (
            topology.name,
            tuple(
                (key, topology.price(*key), capacity)
                for key, capacity in topology.capacities().items()
            ),
        )
    parts = (
        ("format", WAL_FORMAT),
        ("topology", topology_key),
        ("slots_per_cycle", config.slots_per_cycle),
        ("window", config.window),
        ("requests_per_cycle", config.requests_per_cycle),
        ("seed", config.seed),
        ("k_paths", config.k_paths),
        ("max_duration", config.max_duration),
        ("value_model", repr(config.value_model)),
        ("queue_capacity", config.queue_capacity),
        ("max_batch", config.max_batch),
    )
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=16)
    return digest.hexdigest()


def shard_fingerprint(
    base_fingerprint: str,
    num_shards: int,
    mode: str,
    shard_id: int | str,
) -> str:
    """Mix the broker fingerprint with the shard topology and identity.

    Sharding changes decisions (partitioned MILPs), so a sharded WAL
    refuses to resume under a different shard count or partition mode.
    ``shard_id`` names the journal's writer: ``"live"`` for the sharded
    gateway, ``"fleet"`` for the sharded broker.
    """
    parts = (
        ("base", base_fingerprint),
        ("num_shards", num_shards),
        ("mode", mode),
        ("shard", shard_id),
    )
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=16)
    return digest.hexdigest()


# ----------------------------------------------------------------- records


def batch_to_record(record) -> dict[str, Any]:
    """A journal ``batch`` record: one admission decision + its purchase."""
    from dataclasses import asdict

    return {"type": "batch", **asdict(record)}


def cycle_to_record(result) -> dict[str, Any]:
    """A journal ``cycle`` commit record: the full committed cycle ledger.

    A sharded cycle's ``fleet`` block (ledger state, per-shard counters)
    rides in the same record; unsharded records carry no ``fleet`` key.
    """
    from dataclasses import asdict

    record = {
        "type": "cycle",
        "cycle": result.cycle,
        "num_requests": result.num_requests,
        "accepted": result.accepted,
        "declined": result.declined,
        "shed": result.shed,
        "revenue": result.revenue,
        "cost": result.cost,
        "profit": result.profit,
        "wall_seconds": result.wall_seconds,
        "batches": [asdict(b) for b in result.batches],
        "assignment": {
            str(request_id): path for request_id, path in result.assignment.items()
        },
        "purchased": {str(edge): units for edge, units in result.purchased.items()},
    }
    if result.fleet is not None:
        record["fleet"] = result.fleet
    return record


def cycle_from_record(record: dict[str, Any]):
    """Rebuild a :class:`~repro.service.broker.CycleResult` from its record."""
    from repro.service.broker import CycleResult
    from repro.service.telemetry import BatchRecord

    return CycleResult(
        cycle=int(record["cycle"]),
        num_requests=int(record["num_requests"]),
        accepted=int(record["accepted"]),
        declined=int(record["declined"]),
        shed=int(record["shed"]),
        revenue=float(record["revenue"]),
        cost=float(record["cost"]),
        profit=float(record["profit"]),
        wall_seconds=record["wall_seconds"],
        # Records written before the LP screen was removed carry "screened".
        batches=[
            BatchRecord(**{k: v for k, v in b.items() if k != "screened"})
            for b in record["batches"]
        ],
        assignment={
            int(request_id): (None if path is None else int(path))
            for request_id, path in record["assignment"].items()
        },
        purchased={
            int(edge): units for edge, units in record.get("purchased", {}).items()
        },
        fleet=record.get("fleet"),
    )


def broker_snapshot_state(fingerprint: str, config, cycles) -> dict[str, Any]:
    """The snapshot payload: everything needed to resume mid-run.

    Snapshots land only at cycle boundaries, where the admission queue is
    drained and the next cycle's ledger is empty — so ``queue`` is
    recorded (for the invariant, and for any future mid-cycle snapshots)
    but always empty today.
    """
    from repro.service.ingest import _CYCLE_SEED_STRIDE

    return {
        "format_version": WAL_FORMAT,
        "fingerprint": fingerprint,
        "next_cycle": len(cycles),
        "clock": {
            "next_cycle": len(cycles),
            "slot": 0,
            "slots_per_cycle": config.slots_per_cycle,
            "window": config.window,
        },
        "queue": [],
        "seeds": {"seed": config.seed, "cycle_seed_stride": _CYCLE_SEED_STRIDE},
        "purchased": {
            str(c.cycle): {str(edge): units for edge, units in c.purchased.items()}
            for c in cycles
        },
        "telemetry": {
            "batches": sum(len(c.batches) for c in cycles),
            "decisions": sum(len(c.assignment) for c in cycles),
            "profit": sum(c.profit for c in cycles),
        },
        "cycles": [cycle_to_record(c) for c in cycles],
    }


# ---------------------------------------------------------------- recovery


@dataclass
class RecoveredState:
    """What recovery reconstructed, plus how it got there."""

    cycles: list
    next_cycle: int
    recovered_batches: int
    wal_records: int
    wal_truncated: bool
    used_snapshot: bool

    def __repr__(self) -> str:
        return (
            f"RecoveredState(cycles={len(self.cycles)}, "
            f"batches={self.recovered_batches}, "
            f"snapshot={self.used_snapshot}, truncated={self.wal_truncated})"
        )


def recover(wal_path: str | Path, *, fingerprint: str) -> RecoveredState:
    """Reconstruct the committed-cycle prefix from snapshot + WAL tail.

    A missing journal (first run) recovers to the empty state.  A corrupt
    snapshot is discarded and the whole journal replayed instead; a
    fingerprint mismatch in either artifact raises
    :class:`RecoveryError`.
    """
    wal_path = Path(wal_path)
    by_cycle: dict[int, Any] = {}
    used_snapshot = False
    try:
        snapshot = SnapshotStore(snapshot_path(wal_path)).load()
    except SnapshotError:
        snapshot = None
    if snapshot is not None:
        if snapshot.get("fingerprint") != fingerprint:
            raise RecoveryError(
                f"snapshot {snapshot_path(wal_path)} was written by a broker "
                "with a different configuration; refusing to resume"
            )
        used_snapshot = True
        for record in snapshot.get("cycles", ()):
            result = cycle_from_record(record)
            by_cycle[result.cycle] = result

    records, _, truncated = scan_wal(wal_path)
    for record in records:
        kind = record.get("type")
        if kind == "open":
            if record.get("fingerprint") != fingerprint:
                raise RecoveryError(
                    f"journal {wal_path} was written by a broker with a "
                    "different configuration; refusing to resume"
                )
            if record.get("format") != WAL_FORMAT:
                raise RecoveryError(
                    f"journal {wal_path} uses WAL format "
                    f"{record.get('format')!r}; this build reads {WAL_FORMAT}"
                )
        elif kind == "cycle":
            result = cycle_from_record(record)
            by_cycle[result.cycle] = result
        # "batch" records are the per-decision trail; any batch whose
        # cycle commit never landed belongs to an unacknowledged cycle
        # and is deliberately ignored — the cycle re-runs identically.

    cycles = []
    index = 0
    while index in by_cycle:
        cycles.append(by_cycle[index])
        index += 1
    return RecoveredState(
        cycles=cycles,
        next_cycle=index,
        recovered_batches=sum(len(c.batches) for c in cycles),
        wal_records=len(records),
        wal_truncated=truncated,
        used_snapshot=used_snapshot,
    )
