"""repro.shard — the sharded multi-region broker.

The serving-layer face of :mod:`repro.decomp`: billing cycles are split
across N shard workers by source DC, each shard runs the unchanged
admission loop (in parallel processes with ``workers >= 2``), and a
shared :class:`~repro.decomp.ledger.BandwidthLedger` coordinates the
fleet through Lagrangian link prices.  Both fleets — the classic
:class:`ShardedBroker` and the live :class:`ShardedLiveEngine` — close
each cycle into one merged :class:`~repro.service.broker.CycleResult`
(:func:`merge_shard_cycles`) whose ``fleet`` block carries the ledger
state, and journal it through the §6 single-WAL writer, so recovery is
the monolithic broker's and restores the duals bit-identically.

Wired into the CLI as ``repro serve --shards N`` (both the classic
simulated-clock mode and the ``--listen`` live gateway).
"""

from repro.shard.broker import ShardConfig, ShardedBroker
from repro.shard.live import ShardedLiveEngine, merge_shard_cycles

__all__ = [
    "ShardConfig",
    "ShardedBroker",
    "ShardedLiveEngine",
    "merge_shard_cycles",
]
