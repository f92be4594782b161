"""The sharded multi-region broker: N shard workers, one bandwidth ledger.

:class:`ShardedBroker` is a :class:`~repro.service.broker.Broker` that
scales the serving loop *within* a billing cycle: each cycle's bid
stream is partitioned by source DC
(:func:`repro.decomp.partition_requests`), every shard serves its slice
through :func:`repro.service.broker.serve_job` (the unchanged
:func:`~repro.service.broker.run_cycle` admission loop) — in parallel
across a :class:`~repro.service.pool.SolverPool` when ``workers >= 2``
— and the shards coordinate only through the
:class:`~repro.decomp.ledger.BandwidthLedger`:

* shard MILPs solve against the effective prices ``u_e + lambda_e``
  (the cycle engine's ``dual_prices`` hook); all accounting stays on the
  true prices, and each shard charges its own integer units, so a
  cycle's profit is the plain sum of shard profits — the composability
  the recovery path depends on;
* after every cycle the shards' realized (edge, slot) loads are posted
  to the ledger; on a capped topology an oversubscribed link raises its
  dual (steering the *next* cycle's decisions) and a reconciliation
  pass evicts the lowest-``(value, id)`` acceptances until the combined
  loads respect every ceiling — uncapped topologies never enter either
  branch, so the common path adds no overhead;
* every cycle closes into one merged
  :class:`~repro.service.broker.CycleResult` — the same
  :func:`~repro.shard.live.merge_shard_cycles` the live fleet uses —
  whose ``fleet`` block carries the ledger's state, the per-shard
  counters, the evicted ids and the pre-reconciliation violation; with
  ``wal_path`` set it commits through the broker's single-WAL writer
  (:func:`~repro.service.broker.open_state`), so ``run(resume=True)``
  restores the fleet and its duals bit-identically under the same §6
  fault matrix (:mod:`repro.state.faults`) and snapshot cadence as the
  monolithic broker.

The partition is deterministic and id-stable, every shard cycle is the
deterministic monolithic serving loop, and the duals evolve as a pure
function of committed loads — so serial and pooled runs, and crashed and
uninterrupted runs, produce identical decision logs.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from repro.core.instance import SPMInstance
from repro.core.schedule import CEIL_TOL, Schedule
from repro.decomp.ledger import BandwidthLedger, reconcile
from repro.decomp.partition import PARTITION_MODES, partition_requests
from repro.service.broker import (
    Broker,
    BrokerConfig,
    CycleJob,
    CycleResult,
    _StateWriter,
    serve_job,
    serve_pooled_job,
)
from repro.service.cache import DecisionCache
from repro.service.pool import SolverPool
from repro.service.telemetry import TelemetryCollector
from repro.shard.live import merge_shard_cycles

__all__ = ["ShardConfig", "ShardedBroker"]


@dataclass
class ShardConfig(BrokerConfig):
    """A :class:`~repro.service.broker.BrokerConfig` plus sharding knobs.

    ``shards`` fixes the worker fleet size; ``partition`` picks the
    request-to-shard rule (:data:`~repro.decomp.partition.PARTITION_MODES`).
    The ledger's duals step on its default schedule (harmonic, scaled to
    the topology's mean link price).  ``workers`` retains its meaning —
    with ``workers >= 2`` the shard cycles of each billing cycle are
    decided in parallel processes.  The live gateway's decision surrogate
    is a ``ShardConfig`` too, and its fleet
    (:class:`~repro.shard.live.ShardedLiveEngine`) is built from one.

    The inherited resilience knobs compose with sharding: with
    ``cycle_budget`` set the fleet shares one
    :class:`~repro.resilience.budget.CycleBudget` per cycle, pooled shard
    solves become **hedged** (each shard future is awaited only for the
    remaining budget; a hung shard is degraded locally down the ladder
    while healthy shards stay exact), and ``breaker_failures`` arms one
    circuit breaker *per shard* so a chronically sick shard is routed
    straight to the greedy rung without touching the pool.  A pooled
    fleet without ``cycle_budget`` dispatches unhedged and reads no
    breaker, so ``breaker_failures`` is refused there.
    """

    shards: int = 2
    partition: str = "hash"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.partition not in PARTITION_MODES:
            raise ValueError(
                f"partition must be one of {PARTITION_MODES}, "
                f"got {self.partition!r}"
            )

    def _check_pooled_breaker(self) -> None:
        # Only the hedged dispatch (a cycle budget) reads shard breakers.
        if self.cycle_budget is None:
            raise ValueError(
                f"breaker_failures={self.breaker_failures} with "
                f"workers={self.workers} needs cycle_budget: only the hedged "
                "fleet consults its shard breakers"
            )


class ShardedBroker(Broker):
    """Runs the sharded serving loop over an arrival source.

    A :class:`~repro.service.broker.Broker` in everything but how a
    cycle is served: the same construction contract (default source is
    the seed-deterministic synthetic workload; pass a
    :class:`~repro.service.ingest.TraceSource` to replay recorded
    traffic; ``faults`` wires the §6 fault matrix into journal appends,
    cycle commits and worker kills), stop flag, WAL, commit loop and
    report.  Each cycle is one merged :class:`CycleResult`; a resumed
    run restores the ledger from the last committed ``fleet`` block.
    """

    config_class = ShardConfig

    def _sharding(self) -> tuple:
        return (self.config.shards, self.config.partition, "fleet")

    def _record_fleet(self, telemetry: TelemetryCollector) -> None:
        telemetry.reconciliation_evictions = self._ledger.evictions
        telemetry.shard_concurrency = self._shard_concurrency
        for shard_id, breaker in enumerate(self._breakers):
            if breaker is None and not self._hedges[shard_id]:
                continue
            section: dict = {"hedged_solves": self._hedges[shard_id]}
            if breaker is not None:
                section.update(
                    breaker_opens=breaker.opens,
                    breaker_failures=breaker.failures,
                    breaker_state=breaker.state,
                )
            telemetry.record_shard(shard_id, section)

    # ---------------------------------------------------------- the loop

    def _serve(
        self, recovered: list[CycleResult], writer: _StateWriter | None
    ) -> Iterator[CycleResult]:
        """Serve cycle by cycle: each cycle's duals steer the next one's
        decisions, so fleet cycles never run ahead of their commit."""
        config = self.config
        self._ledger = ledger = BandwidthLedger.for_topology(
            self.topology, config.slots_per_cycle
        )
        if recovered:
            ledger.apply_record(recovered[-1].fleet["ledger"])
        self._budget = config.budget()
        self._breakers = [config.breaker() for _ in range(config.shards)]
        self._hedges = [0] * config.shards
        self._shard_concurrency = 1
        caches = [config.cache() for _ in range(config.shards)]
        start = len(recovered)
        pool = None
        try:
            if config.workers >= 2 and start < config.num_cycles:
                pool = SolverPool(config.workers, cache_size=config.cache_size)
                self._shard_concurrency = pool.workers
            for index in range(start, config.num_cycles):
                if self._stop_requested:
                    break
                yield self._serve_cycle(index, ledger, pool, caches)
            if pool is not None:
                self._worker_restarts = pool.worker_restarts
                self._backoff_seconds = pool.backoff_seconds
        finally:
            if pool is not None:
                pool.shutdown()

    def _serve_cycle(
        self,
        index: int,
        ledger: BandwidthLedger,
        pool: SolverPool | None,
        caches: list[DecisionCache | None],
    ) -> CycleResult:
        config = self.config
        requests = self.source.cycle(index)
        shard_ids = partition_requests(
            self.topology, requests, config.shards, config.partition
        )
        if self._budget is not None:
            self._budget.restart()
        duals = ledger.duals.copy()
        jobs = [
            CycleJob(
                self.topology,
                requests.subset(ids),
                index,
                config,
                self.faults,
                duals,
                shard_id,
            )
            for shard_id, ids in enumerate(shard_ids)
        ]

        shard_results: list[CycleResult | None] = [None] * config.shards
        ledger.begin_round()
        if pool is not None and self._budget is not None:
            outcomes = self._serve_cycle_hedged(pool, jobs, caches)
        elif pool is not None:
            outcomes = pool.imap(serve_pooled_job, jobs)
        else:
            outcomes = (self._serve_local(job, caches) for job in jobs)
        for shard_id, result, loads in outcomes:
            shard_results[shard_id] = result
            ledger.post(shard_id, loads)

        max_violation = (
            float(ledger.violation().max()) if ledger.num_edges else 0.0
        )
        evicted: list[int] = []
        if max_violation > CEIL_TOL:
            # Steer the next cycle's decisions, then make this one feasible.
            ledger.update_prices()
            evicted = self._reconcile_cycle(
                requests, shard_ids, shard_results, ledger
            )
            ledger.record_evictions(len(evicted))
        return merge_shard_cycles(
            index,
            shard_results,
            ledger,
            batches=[
                record for result in shard_results for record in result.batches
            ],
            wall_seconds=sum(result.wall_seconds for result in shard_results),
            evicted=evicted,
            max_violation=max_violation,
        )

    def _serve_cycle_hedged(self, pool: SolverPool, jobs, caches):
        """Hedged pooled dispatch: one hung shard degrades alone.

        Every shard is submitted to the pool individually; each future is
        awaited only for the shared budget's *remaining* time.  A shard
        that blows the wait (an injected hang, a byzantine-slow worker)
        records a breaker failure and is re-decided **locally** down the
        degradation ladder — microseconds, deadline-safe — while its late
        pool result is simply discarded.  A dead worker restarts the
        executor (backoff-paced) and re-decides locally too.  Shards
        whose breaker is already open skip the pool entirely.
        """
        futures = []
        for job in jobs:
            breaker = self._breakers[job.shard_id]
            if breaker is not None and not breaker.allow():
                futures.append((job, None))
            else:
                futures.append((job, pool.submit(serve_pooled_job, job)))
        for job, future in futures:
            shard_id = job.shard_id
            breaker = self._breakers[shard_id]
            if future is None:
                yield self._serve_local(job, caches)
                continue
            timeout = max(self._budget.remaining(), self._budget.min_slice)
            try:
                outcome = future.result(timeout=timeout)
            except FutureTimeoutError:
                self._hedges[shard_id] += 1
                if breaker is not None:
                    breaker.record_failure()
                future.cancel()
                yield self._serve_local(job, caches)
            except BrokenProcessPool:
                if breaker is not None:
                    breaker.record_failure()
                pool.restart()
                yield self._serve_local(job, caches)
            else:
                if breaker is not None:
                    breaker.record_success()
                yield outcome

    def _serve_local(self, job: CycleJob, caches: list[DecisionCache | None]):
        """Serve a shard in process with its cache, budget and breaker.

        The cache persists per shard id, the budget is the fleet's shared
        one and the breaker is the shard's own.  Doubles as the hedged
        path's local fallback — a budget already drained by a hung pool
        solve lands the whole shard on the greedy rung.
        """
        return serve_job(
            job,
            cache=caches[job.shard_id],
            budget=self._budget,
            breaker=self._breakers[job.shard_id],
        )

    def _reconcile_cycle(
        self,
        requests,
        shard_ids: list[list[int]],
        shard_results: list[CycleResult],
        ledger: BandwidthLedger,
    ) -> list[int]:
        """Evict acceptances until the combined loads respect every ceiling.

        Runs only when a capped link is actually oversubscribed.  The
        eviction order is the deterministic lowest-``(value, id)`` rule
        of :func:`repro.decomp.ledger.reconcile`; afterwards each
        affected shard's ledger (accepted counts, revenue, cost, profit,
        purchased units) is recomputed from its restricted instance under
        shard-local charging, keeping cycle profit the sum of shard
        profits.
        """
        config = self.config
        instance = SPMInstance.build(
            self.topology, requests, k_paths=config.k_paths
        )
        merged: dict[int, int | None] = {}
        for result in shard_results:
            merged.update(result.assignment)
        evicted = reconcile(instance, merged, ledger.capacities)
        if not evicted:
            return []
        evicted_set = set(evicted)
        for shard_id, ids in enumerate(shard_ids):
            if not evicted_set.intersection(ids):
                continue
            result = shard_results[shard_id]
            assignment = {
                rid: (None if rid in evicted_set else path)
                for rid, path in result.assignment.items()
            }
            shard_instance = instance.restrict(
                [rid for rid in ids if rid in result.assignment]
            )
            schedule = Schedule(shard_instance, assignment)
            shard_results[shard_id] = replace(
                result,
                accepted=schedule.num_accepted,
                declined=result.declined
                + (result.accepted - schedule.num_accepted),
                revenue=float(schedule.revenue),
                cost=float(schedule.cost),
                profit=float(schedule.profit),
                assignment=assignment,
                purchased={
                    instance.edge_index[key]: float(units)
                    for key, units in schedule.charged.items()
                    if units
                },
            )
        return evicted

    def __repr__(self) -> str:
        return (
            f"ShardedBroker(topology={self.topology.name!r}, "
            f"shards={self.config.shards}, cycles={self.config.num_cycles}, "
            f"workers={self.config.workers})"
        )
