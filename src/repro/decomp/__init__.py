"""repro.decomp — price-coordinated decomposition of large SPM instances.

One monolithic MILP over every request of a billing cycle is the scale
ceiling of the exact path: solve time grows superlinearly in the batch
size.  This package splits an :class:`~repro.core.instance.SPMInstance`
into per-shard subproblems (requests partitioned by source-DC hash or by
region, each shard a zero-copy
:meth:`~repro.core.instance.SPMInstance.restrict` view) and coordinates
them only through per-link prices, in the dual-decomposition tradition of
large-scale bandwidth allocation:

* each shard solves its own compiled full-SPM MILP (the existing
  :mod:`repro.core.fastform` / :mod:`repro.lp.fastbuild` path) against
  the *effective* link prices ``u_e + lambda_e``;
* a :class:`BandwidthLedger` aggregates per-(edge, slot) demand across
  shards and updates the dual prices ``lambda_e`` by projected
  subgradient on the capacity violation, with the harmonic step
  ``step0 / (k + 1)``;
* a final reconciliation pass evicts the lowest-``(value, id)``
  acceptances from any still-oversubscribed (edge, slot), so the
  returned :class:`~repro.core.schedule.Schedule` is always feasible;
* the exact single-shard MILP :func:`solve_exact` is kept as the
  equivalence oracle (with :func:`oracle_gap`) under a provable
  additive profit-gap bound on uncapped instances.

:mod:`repro.shard` puts this behind the service layer.
"""

from repro.decomp.ledger import BandwidthLedger
from repro.decomp.partition import (
    PARTITION_MODES,
    partition_requests,
    shard_of_source,
    source_shard_map,
)
from repro.decomp.solver import (
    DecompConfig,
    DecompOutcome,
    ShardOutcome,
    oracle_gap,
    profit_gap_bound,
    solve_decomposed,
    solve_exact,
)

__all__ = [
    "PARTITION_MODES",
    "partition_requests",
    "shard_of_source",
    "source_shard_map",
    "BandwidthLedger",
    "DecompConfig",
    "DecompOutcome",
    "ShardOutcome",
    "solve_decomposed",
    "solve_exact",
    "oracle_gap",
    "profit_gap_bound",
]
