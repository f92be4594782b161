"""The sharded multi-region broker: N shard workers, one bandwidth ledger.

:class:`ShardedBroker` scales the serving loop *within* a billing cycle:
each cycle's bid stream is partitioned by source DC
(:func:`repro.decomp.partition_requests`), every shard serves its slice
through the unchanged :func:`repro.service.broker.run_cycle` admission
loop — in parallel across a :class:`~repro.service.pool.SolverPool` when
``workers >= 2`` — and the shards coordinate only through the
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
* with a WAL base configured, each shard journals to its own
  ``<base>.shard<k>`` log in the standard broker record format and the
  ledger to ``<base>.ledger`` (see :mod:`repro.shard.recovery`);
  ``run(resume=True)`` restores the fleet bit-identically, reusing the
  §6 fault matrix (:mod:`repro.state.faults`) journal-for-journal.

The partition is deterministic and id-stable, every shard cycle is the
deterministic monolithic serving loop, and the duals evolve as a pure
function of committed loads — so serial and pooled runs, and crashed and
uninterrupted runs, produce identical decision logs.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.decomp.ledger import BandwidthLedger, make_step_schedule
from repro.decomp.partition import PARTITION_MODES, partition_requests
from repro.decomp.solver import _reconcile
from repro.net.topology import Topology
from repro.resilience import CircuitBreaker, CycleBudget
from repro.service import pool as pool_mod
from repro.service.broker import (
    BrokerConfig,
    CycleEngine,
    CycleResult,
    _make_topology,
    _pool_check_cancelled,
    run_cycle,
)
from repro.service.cache import DecisionCache
from repro.service.ingest import ArrivalSource, GeneratorSource
from repro.service.pool import SolverPool
from repro.service.telemetry import TelemetryCollector
from repro.shard.recovery import (
    ledger_to_record,
    ledger_wal_path,
    recover_sharded,
    shard_fingerprint,
    shard_wal_path,
)
from repro.state import FaultPlan, Journal, batch_to_record, cycle_to_record
from repro.state.recovery import WAL_FORMAT, config_fingerprint
from repro.workload.generator import WorkloadConfig
from repro.workload.request import RequestSet

__all__ = ["ShardConfig", "ShardedCycle", "ShardedReport", "ShardedBroker"]

#: Matches the schedule layer's float-noise allowance before a ceiling.
_TOL = 1e-9


@dataclass
class ShardConfig(BrokerConfig):
    """A :class:`~repro.service.broker.BrokerConfig` plus sharding knobs.

    ``shards`` fixes the worker fleet size; ``partition`` picks the
    request-to-shard rule (:data:`~repro.decomp.partition.PARTITION_MODES`);
    ``step``/``step0``/``decay`` configure the ledger's dual-price step
    schedule (``step0=None`` scales to the topology's mean link price).
    ``workers`` retains its meaning — with ``workers >= 2`` the shard
    cycles of each billing cycle are decided in parallel processes.

    The inherited resilience knobs compose with sharding: with
    ``cycle_budget`` set the fleet shares one
    :class:`~repro.resilience.budget.CycleBudget` per cycle, pooled shard
    solves become **hedged** (each shard future is awaited only for the
    remaining budget; a hung shard is degraded locally down the ladder
    while healthy shards stay exact), and ``breaker_failures`` arms one
    circuit breaker *per shard* so a chronically sick shard is routed
    straight to the greedy rung without touching the pool.
    """

    shards: int = 2
    partition: str = "hash"
    step: str = "harmonic"
    step0: float | None = None
    decay: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.partition not in PARTITION_MODES:
            raise ValueError(
                f"partition must be one of {PARTITION_MODES}, "
                f"got {self.partition!r}"
            )


@dataclass
class ShardedCycle:
    """One billing cycle across the fleet: per-shard ledgers + coordination.

    ``shard_results`` is ordered by shard id and covers every shard (empty
    shards serve an empty cycle so the per-shard journals stay cycle
    contiguous).  ``evicted`` lists the request ids the reconciliation
    pass revoked, ``max_violation`` the worst pre-reconciliation link
    oversubscription, and ``duals_after`` the ledger's dual prices once
    the cycle committed.
    """

    cycle: int
    shard_results: list[CycleResult]
    evicted: tuple = ()
    max_violation: float = 0.0
    duals_after: list[float] = field(default_factory=list)

    @property
    def profit(self) -> float:
        return sum(result.profit for result in self.shard_results)

    @property
    def revenue(self) -> float:
        return sum(result.revenue for result in self.shard_results)

    @property
    def cost(self) -> float:
        return sum(result.cost for result in self.shard_results)

    @property
    def accepted(self) -> int:
        return sum(result.accepted for result in self.shard_results)

    @property
    def num_requests(self) -> int:
        return sum(result.num_requests for result in self.shard_results)

    @property
    def declined(self) -> int:
        return sum(result.declined for result in self.shard_results)

    @property
    def shed(self) -> int:
        return sum(result.shed for result in self.shard_results)

    @property
    def wall_seconds(self) -> float:
        return sum(result.wall_seconds for result in self.shard_results)

    def assignment(self) -> dict[int, int | None]:
        """The cycle's merged request -> path decision across shards."""
        merged: dict[int, int | None] = {}
        for result in self.shard_results:
            merged.update(result.assignment)
        return merged


@dataclass
class ShardedReport:
    """A finished sharded run: per-cycle fleet ledgers plus telemetry."""

    config: ShardConfig
    cycles: list[ShardedCycle]
    telemetry: TelemetryCollector

    @property
    def profit(self) -> float:
        return sum(cycle.profit for cycle in self.cycles)

    @property
    def revenue(self) -> float:
        return sum(cycle.revenue for cycle in self.cycles)

    @property
    def num_accepted(self) -> int:
        return sum(cycle.accepted for cycle in self.cycles)

    def summary(self) -> dict:
        return self.telemetry.summary()

    def decision_log(self) -> list[tuple[int, int, int | None]]:
        """Every decision as ``(cycle, request_id, path_or_None)``.

        Canonically ordered across shards, so sharded runs compare with
        ``==`` against each other (serial/pool, crashed/uninterrupted)
        exactly like :meth:`~repro.service.broker.BrokerReport.decision_log`.
        """
        return [
            (cycle.cycle, request_id, path)
            for cycle in self.cycles
            for request_id, path in sorted(cycle.assignment().items())
        ]

    def purchases(self) -> list[list[dict[int, float]]]:
        """Per cycle, per shard: the purchased units keyed by edge index."""
        return [
            [dict(result.purchased) for result in cycle.shard_results]
            for cycle in self.cycles
        ]

    def dump_telemetry(self, path) -> None:
        self.telemetry.dump_json(path)


class _ShardJob(NamedTuple):
    """One shard's slice of one billing cycle, as shipped to a worker."""

    shard_id: int
    topology: Topology
    requests: RequestSet
    cycle_index: int
    duals: np.ndarray
    config: ShardConfig
    faults: FaultPlan | None = None


def _serve_shard(
    job: _ShardJob,
    *,
    cache: DecisionCache | None,
    budget: CycleBudget | None = None,
    breaker: CircuitBreaker | None = None,
    check_cancelled=None,
):
    """Serve one shard's slice of one billing cycle, in or out of process.

    Returns ``(shard_id, CycleResult, loads)`` — the realized (edge,
    slot) loads of the close's :class:`Schedule` ride along so the
    coordinator can post them to the ledger without re-enumerating
    paths.  Decisions are identical wherever it runs (the cache is exact
    and the loop deterministic); only cache residency and the budget
    differ.
    """
    config = job.config
    engine = CycleEngine(
        job.topology,
        job.requests.num_slots,
        k_paths=config.k_paths,
        time_limit=config.time_limit,
        cache=cache,
        max_batch=config.max_batch,
        lp_screen=config.lp_screen,
        budget=budget,
        breaker=breaker,
        check_cancelled=check_cancelled,
        dual_prices=job.duals,
    )
    result = run_cycle(
        job.topology,
        job.requests,
        cycle_index=job.cycle_index,
        window=config.window,
        queue_capacity=config.queue_capacity,
        engine=engine,
    )
    return job.shard_id, result, engine.schedule.loads


def _shard_cycle_worker(job: _ShardJob):
    """Pool entry point: a worker's cache, cancellation poll and budget."""
    cycle_budget = job.config.cycle_budget
    return _serve_shard(
        job,
        cache=pool_mod.worker_cache(),
        budget=None if cycle_budget is None else CycleBudget(cycle_budget),
        check_cancelled=_pool_check_cancelled(job.faults, job.cycle_index),
    )


class _ShardJournals:
    """The run's open journals: one per shard plus the ledger journal."""

    def __init__(
        self,
        wal_base: str | Path,
        config: ShardConfig,
        base_fingerprint: str,
        next_cycle: int,
        faults: FaultPlan | None,
    ) -> None:
        self.faults = faults
        fsync_hook = faults.fsync_hook() if faults is not None else None
        write_hook = faults.write_hook() if faults is not None else None
        self.shards: list[Journal] = []
        for shard_id in range(config.shards):
            journal = Journal.open(
                shard_wal_path(wal_base, shard_id),
                fsync=config.fsync,
                fsync_hook=fsync_hook,
            )
            self._stamp(
                journal,
                shard_fingerprint(
                    base_fingerprint, config.shards, config.partition, shard_id
                ),
                next_cycle,
            )
            self.shards.append(journal)
        # Only the ledger journal gets the torn-write hook: the ledger
        # record is what acknowledges a fleet cycle, so a partial ledger
        # append is the worst-placed tear the recovery path must heal.
        self.ledger = Journal.open(
            ledger_wal_path(wal_base),
            fsync=config.fsync,
            fsync_hook=fsync_hook,
            write_hook=write_hook,
        )
        self._stamp(
            self.ledger,
            shard_fingerprint(
                base_fingerprint, config.shards, config.partition, "ledger"
            ),
            next_cycle,
        )

    @staticmethod
    def _stamp(journal: Journal, fingerprint: str, next_cycle: int) -> None:
        journal.append(
            {
                "type": "open",
                "format": WAL_FORMAT,
                "fingerprint": fingerprint,
                "next_cycle": next_cycle,
            }
        )
        journal.commit()

    def commit_cycle(self, sharded: ShardedCycle, ledger) -> None:
        """Journal the cycle shard by shard (in shard order), then the ledger.

        Each shard's commit is its own durability barrier; the ledger
        record commits last and is what acknowledges the whole cycle —
        recovery trusts a cycle only once every journal carries it.
        """
        for shard_id, result in enumerate(sharded.shard_results):
            journal = self.shards[shard_id]
            for record in result.batches:
                journal.append(batch_to_record(record))
                if self.faults is not None:
                    self.faults.after_batch_append()
            journal.append(cycle_to_record(result))
            journal.commit()
            if self.faults is not None:
                self.faults.after_cycle_commit()
        self.ledger.append(ledger_to_record(sharded.cycle, ledger))
        self.ledger.commit()
        if self.faults is not None:
            self.faults.after_cycle_commit()

    @property
    def wal_bytes(self) -> int:
        return (
            sum(journal.size_bytes for journal in self.shards)
            + self.ledger.size_bytes
        )

    def close(self) -> None:
        for journal in self.shards:
            journal.close()
        self.ledger.close()


class ShardedBroker:
    """Runs the sharded serving loop over an arrival source.

    The same construction contract as :class:`~repro.service.broker.Broker`
    — default source is the seed-deterministic synthetic workload; pass a
    :class:`~repro.service.ingest.TraceSource` to replay recorded
    traffic; ``faults`` wires the §6 fault matrix into journal appends,
    cycle commits and worker kills.
    """

    def __init__(
        self,
        config: ShardConfig | None = None,
        source: ArrivalSource | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.config = config if config is not None else ShardConfig()
        self.faults = faults
        self._stop_requested = False
        self.topology = _make_topology(self.config.topology)
        if source is None:
            source = GeneratorSource(
                self.topology,
                WorkloadConfig(
                    num_requests=self.config.requests_per_cycle,
                    num_slots=self.config.slots_per_cycle,
                    max_duration=self.config.max_duration,
                    value_model=self.config.value_model,
                ),
                seed=self.config.seed,
            )
        self.source = source

    def request_stop(self) -> None:
        """Stop at the next cycle boundary (signal-safe, like the broker)."""
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    # ------------------------------------------------------------------ run

    def _make_ledger(self) -> BandwidthLedger:
        config = self.config
        # The ledger needs only the edge order, prices and ceilings — the
        # same fixed ordering every SPMInstance over this topology uses.
        edges = [e.key for e in self.topology.edges]
        prices = np.array([self.topology.price(*key) for key in edges])
        capacities = np.array(
            [
                float("inf") if ceiling is None else float(ceiling)
                for ceiling in (
                    self.topology.capacity(*key) for key in edges
                )
            ]
        )
        step0 = config.step0
        if step0 is None:
            step0 = max(
                float(prices.mean()) if prices.size else 1.0, 1e-12
            )
        return BandwidthLedger(
            edges,
            prices,
            capacities,
            config.slots_per_cycle,
            schedule=make_step_schedule(
                config.step, step0, decay=config.decay
            ),
        )

    def run(self, *, resume: bool = False) -> ShardedReport:
        """Serve every configured cycle across the fleet.

        With ``config.wal_path`` set, every shard journals its decisions
        and the ledger its duals as cycles commit; ``resume=True`` first
        recovers the fleet-wide committed prefix and re-serves only what
        never fully committed — bit-identical to an uninterrupted run.
        """
        config = self.config
        if resume and config.wal_path is None:
            raise ValueError("resume=True requires ShardConfig.wal_path")
        t0 = time.perf_counter()
        self._worker_restarts = 0
        self._backoff_seconds = 0.0
        self._shard_concurrency = 1
        self._budget = (
            CycleBudget(config.cycle_budget)
            if config.cycle_budget is not None
            else None
        )
        self._breakers: list[CircuitBreaker | None] = [
            CircuitBreaker(
                failure_threshold=config.breaker_failures,
                reset_seconds=config.breaker_reset,
            )
            if config.breaker_failures > 0
            else None
            for _ in range(config.shards)
        ]
        self._hedges = [0] * config.shards

        ledger = self._make_ledger()
        completed: list[ShardedCycle] = []
        recovered_batches = 0
        journals = None
        wal_bytes = 0
        if config.wal_path is not None:
            base_fingerprint = config_fingerprint(config)
            start = 0
            if resume:
                state = recover_sharded(
                    config.wal_path,
                    base_fingerprint=base_fingerprint,
                    num_shards=config.shards,
                    mode=config.partition,
                )
                start = state.next_cycle
                recovered_batches = state.recovered_batches
                for index in range(start):
                    record = state.ledger_records[index]
                    completed.append(
                        ShardedCycle(
                            cycle=index,
                            shard_results=[
                                state.shard_cycles[shard_id][index]
                                for shard_id in range(config.shards)
                            ],
                            duals_after=list(record["duals"]),
                        )
                    )
                last = state.last_ledger_record()
                if last is not None:
                    ledger.apply_record(last)
            journals = _ShardJournals(
                config.wal_path,
                config,
                base_fingerprint,
                len(completed),
                self.faults,
            )

        try:
            fresh = self._serve(len(completed), ledger, journals)
        finally:
            if journals is not None:
                wal_bytes = journals.wal_bytes
                journals.close()
        cycles = completed + fresh
        elapsed = time.perf_counter() - t0

        telemetry = TelemetryCollector()
        for sharded in cycles:
            for result in sharded.shard_results:
                for record in result.batches:
                    telemetry.record_batch(record)
            telemetry.record_cycle(sharded.cycle, sharded.profit)
            for shard_id, result in enumerate(sharded.shard_results):
                telemetry.record_shard(
                    shard_id,
                    {
                        "decisions": result.num_requests - result.shed,
                        "accepted": result.accepted,
                        "declined": result.declined,
                        "shed": result.shed,
                        "revenue": result.revenue,
                        "profit": result.profit,
                    },
                )
        telemetry.wall_seconds = elapsed
        telemetry.recovered_batches = recovered_batches
        telemetry.wal_bytes = wal_bytes
        telemetry.worker_restarts = self._worker_restarts
        telemetry.backoff_seconds = self._backoff_seconds
        telemetry.ledger_price_iterations = ledger.price_iterations
        telemetry.reconciliation_evictions = ledger.evictions
        telemetry.shard_concurrency = self._shard_concurrency
        for shard_id, breaker in enumerate(self._breakers):
            if breaker is None and not self._hedges[shard_id]:
                continue
            section: dict = {"hedged_solves": self._hedges[shard_id]}
            if breaker is not None:
                telemetry.breaker_opens += breaker.opens
                telemetry.breaker_failures += breaker.failures
                telemetry.breaker_probes += breaker.probes
                telemetry.breaker_short_circuits += breaker.short_circuits
                section.update(
                    breaker_opens=breaker.opens,
                    breaker_failures=breaker.failures,
                    breaker_state=breaker.state,
                )
            telemetry.record_shard(shard_id, section)
        return ShardedReport(config=config, cycles=cycles, telemetry=telemetry)

    # ---------------------------------------------------------- the loop

    def _serve(
        self,
        start: int,
        ledger: BandwidthLedger,
        journals: _ShardJournals | None,
    ) -> list[ShardedCycle]:
        config = self.config
        results: list[ShardedCycle] = []
        pool = None
        caches: list[DecisionCache | None] = [
            DecisionCache(config.cache_size) if config.cache_size > 0 else None
            for _ in range(config.shards)
        ]
        try:
            if config.workers >= 2 and start < config.num_cycles:
                pool = SolverPool(
                    config.workers, cache_size=config.cache_size
                )
                self._shard_concurrency = pool.workers
            for index in range(start, config.num_cycles):
                if self._stop_requested:
                    break
                sharded = self._serve_cycle(index, ledger, pool, caches)
                if journals is not None:
                    journals.commit_cycle(sharded, ledger)
                results.append(sharded)
            if pool is not None:
                self._worker_restarts = pool.worker_restarts
                self._backoff_seconds = pool.backoff_seconds
        finally:
            if pool is not None:
                pool.shutdown()
        return results

    def _serve_cycle(
        self,
        index: int,
        ledger: BandwidthLedger,
        pool: SolverPool | None,
        caches: list[DecisionCache | None],
    ) -> ShardedCycle:
        config = self.config
        requests = self.source.cycle(index)
        shard_ids = partition_requests(
            self.topology, requests, config.shards, config.partition
        )
        if self._budget is not None:
            self._budget.restart()
        duals = ledger.duals.copy()
        jobs = [
            _ShardJob(
                shard_id,
                self.topology,
                requests.subset(ids),
                index,
                duals,
                config,
                self.faults if pool is not None else None,
            )
            for shard_id, ids in enumerate(shard_ids)
        ]

        shard_results: list[CycleResult | None] = [None] * config.shards
        ledger.begin_round()
        if pool is not None and self._budget is not None:
            outcomes = self._serve_cycle_hedged(pool, jobs, caches)
        elif pool is not None:
            outcomes = pool.imap(_shard_cycle_worker, jobs)
        else:
            outcomes = (self._serve_local(job, caches) for job in jobs)
        for shard_id, result, loads in outcomes:
            shard_results[shard_id] = result
            ledger.post(shard_id, loads)

        max_violation = (
            float(ledger.violation().max()) if ledger.num_edges else 0.0
        )
        evicted: tuple = ()
        if max_violation > _TOL:
            # Steer the next cycle's decisions, then make this one feasible.
            ledger.update_prices()
            evicted = self._reconcile_cycle(requests, shard_ids, shard_results)
            ledger.record_evictions(len(evicted))
        return ShardedCycle(
            cycle=index,
            shard_results=list(shard_results),
            evicted=evicted,
            max_violation=max_violation,
            duals_after=ledger.duals.tolist(),
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
                futures.append((job, pool.submit(_shard_cycle_worker, job)))
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

    def _serve_local(self, job: _ShardJob, caches):
        """Serve a shard in process with its cache, budget and breaker.

        The cache persists per shard id, the budget is the fleet's shared
        one and the breaker is the shard's own.  Doubles as the hedged
        path's local fallback — a budget already drained by a hung pool
        solve lands the whole shard on the greedy rung.
        """
        return _serve_shard(
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
    ) -> tuple:
        """Evict acceptances until the combined loads respect every ceiling.

        Runs only when a capped link is actually oversubscribed.  The
        eviction order is the deterministic lowest-``(value, id)`` rule
        of :func:`repro.decomp.solver._reconcile`; afterwards each
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
        capacities = np.array(
            [
                float("inf") if ceiling is None else float(ceiling)
                for ceiling in (
                    self.topology.capacity(*key) for key in instance.edges
                )
            ]
        )
        evicted = _reconcile(instance, merged, capacities)
        if not evicted:
            return ()
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
                revenue=schedule.revenue,
                cost=schedule.cost,
                profit=schedule.profit,
                assignment=assignment,
                purchased={
                    instance.edge_index[key]: float(units)
                    for key, units in schedule.charged.items()
                    if units
                },
            )
        return tuple(evicted)

    def with_config(self, **changes) -> "ShardedBroker":
        """A new sharded broker over the same source with fields replaced."""
        return ShardedBroker(
            replace(self.config, **changes),
            source=self.source,
            faults=self.faults,
        )

    def __repr__(self) -> str:
        return (
            f"ShardedBroker(topology={self.topology.name!r}, "
            f"shards={self.config.shards}, cycles={self.config.num_cycles}, "
            f"workers={self.config.workers})"
        )
