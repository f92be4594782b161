"""The profit-maximizing broker: a long-running admission-serving loop.

This is the serving layer the paper's operational story implies: a
provider continuously receives first-price sealed-bid transfer requests
and must accept (with a path) or decline each one before its window
starts.  The broker runs rolling billing cycles on a simulated clock
(:class:`~repro.service.clock.SimClock`), ingests each cycle's bid stream
(:mod:`repro.service.ingest`), batches arrivals into admission windows,
and decides every batch *exactly* with the incremental MILP of
:class:`repro.core.online.IncrementalBatchCompiler` — the offline SPM
over the batch, with the committed loads moved into the capacity-row
right-hand sides and the ``extra`` units left unbounded (capping them at
each link's ceiling is the open capacity fix).  It charges integer units
like the offline solutions, so broker profit is directly comparable to
(and upper-bounded by) offline OPT on the same instance.

:class:`CycleEngine` is the single place a batch is decided: every
serving path (this broker, the live gateway, both sharded engines)
pushes windows into one, and its
:class:`~repro.resilience.ladder.DegradationLadder` is the only
decision path.

Scaling levers, all orthogonal to the decision logic:

* a bounded :class:`~repro.service.cache.DecisionCache` short-circuits
  repeated (residual-state, batch) sub-instances — periodic traffic makes
  whole cycles replay from cache;
* with ``workers >= 2`` independent billing cycles are dispatched to a
  :class:`~repro.service.pool.SolverPool` of processes, each with its own
  per-process cache and cooperative cancellation;
* ``max_batch`` splits oversized admission windows into bounded MILPs and
  ``queue_capacity`` sheds bids beyond what the broker will buffer.

Every decision feeds :mod:`repro.service.telemetry`, and
:meth:`BrokerReport.dump_telemetry` writes the JSON baseline (decisions
per second, latency percentiles, cache hit rate, profit ledger) that
future performance work measures against.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.online import commit_decision
from repro.core.online import solve_batch  # noqa: F401  (bound for perfbench/spans.py)
from repro.core.schedule import Schedule
from repro.net.topologies import abilene, b4, sub_b4
from repro.net.topology import Topology
from repro.resilience import (
    CircuitBreaker,
    CycleBudget,
    DegradationLadder,
    LadderDecision,
)
from repro.service import pool as pool_mod
from repro.service.cache import DecisionCache
from repro.service.clock import SimClock
from repro.service.ingest import AdmissionQueue, ArrivalSource, GeneratorSource
from repro.service.pool import SolverPool
from repro.service.telemetry import BatchRecord, TelemetryCollector
from repro.state import (
    WAL_FORMAT,
    FaultPlan,
    Journal,
    SnapshotStore,
    batch_to_record,
    broker_snapshot_state,
    config_fingerprint,
    cycle_to_record,
    recover,
    shard_fingerprint,
    snapshot_path,
)
from repro.state.journal import FSYNC_POLICIES
from repro.workload.generator import WorkloadConfig
from repro.workload.request import Request, RequestSet
from repro.workload.value_models import FlatRateValueModel, ValueModel

__all__ = [
    "BrokerConfig",
    "CycleResult",
    "CycleEngine",
    "BrokerReport",
    "Broker",
    "run_cycle",
    "open_state",
    "DEFAULT_TIME_LIMIT",
]

#: The single source of the per-solve time-limit default (seconds).
#: ``BrokerConfig.time_limit`` and the ``repro serve`` CLI both start
#: from this value; passing ``time_limit=None`` anywhere (including
#: :func:`run_cycle`) means *unlimited* — the solver runs to optimality.
DEFAULT_TIME_LIMIT = 60.0

#: Flat retail price per bandwidth unit per slot (see
#: :data:`repro.experiments.common.DEFAULT_UNIT_VALUE` for the rationale).
_DEFAULT_UNIT_VALUE = 1.8

_TOPOLOGIES = {"b4": b4, "sub-b4": sub_b4, "abilene": abilene}


def _make_topology(name: str | Topology) -> Topology:
    if isinstance(name, Topology):
        return name
    try:
        return _TOPOLOGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; choose from {sorted(_TOPOLOGIES)}"
        ) from None


@dataclass
class BrokerConfig:
    """Everything that pins a broker run.

    ``slots_per_cycle`` is the billing-cycle length ``T`` (e.g. 12 monthly
    slots, or 288 five-minute slots over a day); ``window`` groups slots
    into admission windows; ``workers >= 2`` enables the process pool;
    ``cache_size=0`` disables the decision cache; ``queue_capacity`` and
    ``max_batch`` bound the admission queue and per-MILP batch size
    (``None`` = unbounded).

    Durability (see :mod:`repro.state`): setting ``wal_path`` makes the
    broker journal every admission decision and cycle commit to a
    write-ahead log (and publish an atomic snapshot every
    ``snapshot_every`` cycles), so a crashed run resumes bit-identically
    via ``Broker.run(resume=True)``.  ``fsync`` picks the durability/
    throughput trade-off: ``"never"``, ``"batch"`` (one fsync per cycle
    commit, the default) or ``"always"`` (one per record).

    ``time_limit`` caps each *individual* batch solve (seconds); its
    default is :data:`DEFAULT_TIME_LIMIT` and ``None`` means unlimited.
    Resilience (see :mod:`repro.resilience`): ``cycle_budget`` (seconds,
    ``None`` = off) arms a :class:`~repro.resilience.budget.CycleBudget`
    per cycle — batch solves then receive shrinking slices of the
    remaining budget (still clipped to ``time_limit``) and budget-blown
    batches degrade down the ladder instead of declining wholesale.
    ``breaker_failures`` (0 = off) arms a
    :class:`~repro.resilience.breaker.CircuitBreaker`: that many
    consecutive solver timeouts route batches straight to the greedy
    rung until a probe succeeds after ``breaker_reset`` seconds.  Pooled
    cycles (``workers >= 2``) run without one, so the two are refused
    together.
    """

    topology: str | Topology = "b4"
    num_cycles: int = 1
    slots_per_cycle: int = 12
    window: int = 1
    requests_per_cycle: int = 100
    seed: int = 2019
    k_paths: int = 3
    max_duration: int | None = 4
    value_model: ValueModel = field(
        default_factory=lambda: FlatRateValueModel(_DEFAULT_UNIT_VALUE)
    )
    time_limit: float | None = DEFAULT_TIME_LIMIT
    workers: int = 0
    cache_size: int = 1024
    queue_capacity: int | None = None
    max_batch: int | None = None
    wal_path: str | Path | None = None
    snapshot_every: int = 1
    fsync: str = "batch"
    cycle_budget: float | None = None
    breaker_failures: int = 0
    breaker_reset: float = 5.0

    def __post_init__(self) -> None:
        if self.num_cycles < 1:
            raise ValueError(f"num_cycles must be >= 1, got {self.num_cycles}")
        if self.slots_per_cycle < 1:
            raise ValueError(
                f"slots_per_cycle must be >= 1, got {self.slots_per_cycle}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.requests_per_cycle < 0:
            raise ValueError(
                f"requests_per_cycle must be >= 0, got {self.requests_per_cycle}"
            )
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError(
                f"time_limit must be > 0 (or None), got {self.time_limit!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1 or None, got {self.queue_capacity}"
            )
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1 or None, got {self.max_batch}"
            )
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.cycle_budget is not None and not self.cycle_budget > 0:
            raise ValueError(
                f"cycle_budget must be > 0 (or None), got {self.cycle_budget!r}"
            )
        if self.breaker_failures < 0:
            raise ValueError(
                f"breaker_failures must be >= 0, got {self.breaker_failures}"
            )
        if not self.breaker_reset >= 0:
            raise ValueError(
                f"breaker_reset must be >= 0, got {self.breaker_reset!r}"
            )
        if self.breaker_failures and self.workers >= 2:
            self._check_pooled_breaker()

    def _check_pooled_breaker(self) -> None:
        """Refuse a breaker that a pooled run (``workers >= 2``) never reads."""
        raise ValueError(
            f"breaker_failures={self.breaker_failures} needs workers < 2, "
            f"got workers={self.workers}: pooled cycles run without a "
            "circuit breaker"
        )

    def cache(self) -> DecisionCache | None:
        """A fresh decision cache; ``None`` when ``cache_size`` is 0."""
        return DecisionCache(self.cache_size) if self.cache_size > 0 else None

    def budget(self) -> CycleBudget | None:
        """A fresh cycle budget; ``None`` when ``cycle_budget`` is unset."""
        if self.cycle_budget is None:
            return None
        return CycleBudget(self.cycle_budget)

    def breaker(self) -> CircuitBreaker | None:
        """A fresh circuit breaker; ``None`` when ``breaker_failures`` is 0."""
        if self.breaker_failures == 0:
            return None
        return CircuitBreaker(
            failure_threshold=self.breaker_failures,
            reset_seconds=self.breaker_reset,
        )


@dataclass
class CycleResult:
    """One billing cycle's ledger: counts, money, and the full assignment.

    ``accepted + declined + shed == num_requests``; ``revenue``/``cost``/
    ``profit`` use the same peak-based integer-unit charging as the offline
    solutions.  ``assignment`` maps every request id to its chosen path (or
    ``None``), so callers can rebuild the :class:`Schedule` locally — the
    worker pool ships this compact result instead of whole schedules.
    ``purchased`` is the cycle's final bandwidth purchase: charged integer
    units per (nonzero) edge index — the ledger the durability layer
    journals and the crash-equivalence tests compare exactly.

    ``fleet`` is set only on a sharded fleet's merged cycle: the
    bandwidth ledger after the cycle (``BandwidthLedger.to_record()``),
    ``shards`` (per-shard counters, indexed by shard id) and, for the
    sharded broker, the reconciliation's ``evicted`` ids and the
    pre-reconciliation ``max_violation``.  It is JSON-native, so it
    journals inside the cycle record and recovers unchanged.
    """

    cycle: int
    num_requests: int
    accepted: int
    declined: int
    shed: int
    revenue: float
    cost: float
    profit: float
    wall_seconds: float
    batches: list[BatchRecord]
    assignment: dict[int, int | None]
    purchased: dict[int, float] = field(default_factory=dict)
    fleet: dict | None = None


class CycleEngine:
    """The one batch-decision kernel: a billing cycle fed window by window.

    Every serving path decides through this engine — :func:`run_cycle`
    pushes each simulated window into it, the live gateway pushes real
    closed windows (:class:`~repro.gateway.engine.LiveCycleEngine`), and
    both sharded engines run one per shard.  Per batch it does the same
    five steps: decision-cache lookup, a
    :class:`~repro.resilience.ladder.DegradationLadder` decision,
    :func:`commit_decision` into the cycle ledgers, a
    :class:`BatchRecord`, and the ``on_batch`` write-ahead hook.

    The engine owns the committed loads, the charged integer units, the
    assignment and the batch records of the open cycle.  Candidate paths
    come from the topology's own memo (:meth:`Topology.candidate_paths`).
    Edge indexing comes from the topology alone, so every per-batch
    :class:`SPMInstance` agrees on the ledger arrays.

    The ladder is built here from ``budget``/``breaker``/``time_limit``;
    whoever creates ``budget`` re-arms it at each cycle open (a sharded
    fleet shares one budget across its shard engines).
    ``dual_prices`` steers the *decisions* only: batch MILPs solve
    against ``u_e + dual_prices`` (a zero-copy :meth:`SPMInstance.reprice`
    view) while revenue, cost and purchased units stay on the true
    prices.  Cache keys fold a digest of the duals, so decisions made
    under different prices never alias.
    """

    def __init__(
        self,
        topology: Topology,
        slots_per_cycle: int,
        *,
        k_paths: int = 3,
        time_limit: float | None = None,
        cache: DecisionCache | None = None,
        max_batch: int | None = None,
        budget: CycleBudget | None = None,
        breaker: CircuitBreaker | None = None,
        check_cancelled=None,
        on_batch=None,
        dual_prices: np.ndarray | None = None,
    ) -> None:
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 or None, got {max_batch}")
        self.topology = topology
        self.k_paths = k_paths
        self.cache = cache
        self.max_batch = max_batch
        self.check_cancelled = check_cancelled
        #: Invoked with each :class:`BatchRecord` the moment its decision
        #: is committed — the durability layer's write-ahead hook.
        self.on_batch = on_batch
        self.ladder = DegradationLadder(
            budget=budget,
            breaker=breaker,
            time_limit=time_limit,
        )
        self.edges = [e.key for e in topology.edges]
        self.prices = np.array([topology.price(*key) for key in self.edges])
        self.dual_prices = dual_prices
        #: The last closed cycle's :class:`Schedule`.
        self.schedule: Schedule | None = None
        self.start_cycle(0, slots_per_cycle)

    @classmethod
    def from_config(cls, topology: Topology, config: BrokerConfig, **runtime):
        """An engine over ``topology`` with ``config``'s decision settings.

        Reads ``slots_per_cycle``, ``k_paths``, ``time_limit`` and
        ``max_batch``; ``runtime`` passes what each serving front owns
        (``cache``, ``budget``, ``breaker``, ``check_cancelled``,
        ``on_batch``, ``dual_prices``).
        """
        return cls(
            topology,
            config.slots_per_cycle,
            k_paths=config.k_paths,
            time_limit=config.time_limit,
            max_batch=config.max_batch,
            **runtime,
        )

    @property
    def dual_prices(self) -> np.ndarray | None:
        return self._duals

    @dual_prices.setter
    def dual_prices(self, duals: np.ndarray | None) -> None:
        self._duals = None
        self._dual_digest = b""
        if duals is not None and np.any(duals):
            self._duals = np.asarray(duals, dtype=float)
            self._dual_digest = hashlib.blake2b(
                np.ascontiguousarray(self._duals).tobytes(), digest_size=16
            ).digest()

    def start_cycle(self, cycle_index: int, slots: int | None = None) -> None:
        """Open a fresh billing cycle: empty ledgers, empty assignment.

        ``slots`` changes the cycle length (default: keep the last one).
        """
        if slots is not None:
            if slots < 1:
                raise ValueError(f"slots_per_cycle must be >= 1, got {slots}")
            self.slots_per_cycle = slots
        self.cycle = cycle_index
        num_edges = len(self.edges)
        self.committed = np.zeros((num_edges, self.slots_per_cycle))
        self.charged = np.zeros(num_edges)
        self.assignment: dict[int, int | None] = {}
        self.requests: list[Request] = []
        self.batches: list[BatchRecord] = []
        self.shed = 0
        self._opened_at = time.perf_counter()

    def _instance(self, requests: list[Request]) -> SPMInstance:
        paths = {
            req.request_id: self.topology.candidate_paths(
                req.source, req.dest, k=self.k_paths
            )
            for req in requests
        }
        requests = RequestSet(requests, self.slots_per_cycle)
        return SPMInstance(self.topology, requests, paths)

    def decide(
        self,
        batch: list[Request],
        *,
        window_start: int,
        window_shed: int = 0,
    ) -> list[int | None]:
        """Decide one closed window's arrivals; returns a choice per bid.

        Splits the window into ``max_batch``-bounded MILPs, attaches
        ``window_shed`` to the window's first record (or to a shed-only
        record when everything was shed), and commits every acceptance
        into the cycle ledgers.
        """
        self.shed += window_shed
        choices: list[int | None] = []
        step = self.max_batch or max(len(batch), 1)
        for offset in range(0, len(batch), step):
            choices.extend(
                self._decide_batch(
                    batch[offset : offset + step],
                    window_start,
                    window_shed if offset == 0 else 0,
                )
            )
        if window_shed and not batch:
            self._record(
                BatchRecord(
                    cycle=self.cycle,
                    window_start=window_start,
                    size=0,
                    accepted=0,
                    declined=0,
                    shed=window_shed,
                    revenue=0.0,
                    incremental_cost=0.0,
                    solver_seconds=0.0,
                    cache_hit=False,
                    rung="shed",
                )
            )
        return choices

    def _decide_batch(
        self, batch: list[Request], window_start: int, shed: int
    ) -> list[int | None]:
        batch_ids = [req.request_id for req in batch]
        instance = self._instance(batch)
        solver_start = time.perf_counter()
        key = decision = None
        if self.cache is not None:
            key = self.cache.make_key(
                instance, batch_ids, self.committed, self.charged
            )
            if self._dual_digest:
                key = (key[0] + self._dual_digest, key[1])
            decision = self.cache.get(key)
        if decision is not None:
            outcome = LadderDecision(choices=decision, rung="cache")
        else:
            decision_instance = instance
            if self._duals is not None:
                decision_instance = instance.reprice(
                    instance.prices + self._duals
                )
            outcome = self.ladder.decide(
                decision_instance,
                batch_ids,
                self.committed,
                self.charged,
                check_cancelled=self.check_cancelled,
            )
            decision = list(outcome.choices)
            if key is not None and outcome.cacheable:
                self.cache.put(key, decision)
        solver_seconds = time.perf_counter() - solver_start

        cost_before = float(self.prices @ self.charged)
        accepted = commit_decision(
            instance, batch_ids, decision, self.committed, self.charged
        )
        cost_after = float(self.prices @ self.charged)
        self.assignment.update(zip(batch_ids, decision))
        self.requests.extend(batch)
        self._record(
            BatchRecord(
                cycle=self.cycle,
                window_start=window_start,
                size=len(batch_ids),
                accepted=accepted,
                declined=len(batch_ids) - accepted,
                shed=shed,
                revenue=sum(
                    req.value
                    for req, path in zip(batch, decision)
                    if path is not None
                ),
                incremental_cost=cost_after - cost_before,
                solver_seconds=solver_seconds,
                cache_hit=outcome.rung == "cache",
                timed_out=outcome.timed_out,
                suboptimal=outcome.suboptimal,
                rung=outcome.rung,
            )
        )
        return decision

    def _record(self, record: BatchRecord) -> None:
        self.batches.append(record)
        if self.on_batch is not None:
            self.on_batch(record)

    def close_cycle(self) -> CycleResult:
        """Account the open cycle through a :class:`Schedule`.

        The schedule is built over the decided requests (paths from the
        engine's cache) and kept as :attr:`schedule`; ``purchased`` is
        the charged-unit ledger :func:`commit_decision` ratcheted.
        """
        self.schedule = schedule = Schedule(
            self._instance(self.requests), self.assignment
        )
        accepted = schedule.num_accepted
        return CycleResult(
            cycle=self.cycle,
            num_requests=len(self.assignment) + self.shed,
            accepted=accepted,
            declined=len(self.assignment) - accepted,
            shed=self.shed,
            revenue=float(schedule.revenue),
            cost=float(schedule.cost),
            profit=float(schedule.profit),
            wall_seconds=time.perf_counter() - self._opened_at,
            batches=list(self.batches),
            assignment=dict(self.assignment),
            purchased={
                int(edge): float(units)
                for edge, units in enumerate(self.charged)
                if units
            },
        )


def run_cycle(
    topology: Topology,
    requests: RequestSet,
    *,
    cycle_index: int = 0,
    window: int = 1,
    queue_capacity: int | None = None,
    clock=None,
    engine: CycleEngine | None = None,
    **engine_options,
) -> CycleResult:
    """Serve one billing cycle end to end; the broker's core loop.

    A clock and an :class:`AdmissionQueue` in front of a
    :class:`CycleEngine`: each window's arrivals are offered to the
    queue, what it held is drained into :meth:`CycleEngine.decide`, and
    the cycle closes through :meth:`CycleEngine.close_cycle`.  Shed bids
    are recorded as ``None`` in the assignment, in arrival order.

    ``engine`` reuses a long-lived engine (and its path cache) across
    cycles; otherwise a fresh one is built over ``topology`` from
    ``engine_options`` (``k_paths``, ``time_limit``, ``cache``,
    ``max_batch``, ``check_cancelled``, ``on_batch``,
    ``dual_prices``, ...).  ``time_limit`` caps each batch solve in
    seconds; ``None`` means *unlimited* (the config-level default is
    :data:`DEFAULT_TIME_LIMIT`).

    ``clock`` injects any :class:`~repro.service.clock.CycleClock`
    implementation for the window cadence (default: a fresh
    :class:`SimClock` over the cycle's slots — ``window`` is ignored when
    a clock is passed, since the clock owns the window structure).
    """
    if engine is None:
        engine = CycleEngine(topology, requests.num_slots, **engine_options)
    engine.start_cycle(cycle_index, requests.num_slots)
    if clock is None:
        clock = SimClock(requests.num_slots, window=window)
    queue = AdmissionQueue(queue_capacity)
    by_start: dict[int, list] = {}
    for req in requests:
        by_start.setdefault(req.start, []).append(req)

    assignment: dict[int, int | None] = {}
    for tick in clock.windows(0):
        shed_before = queue.shed
        for slot in tick.slots:
            for req in by_start.get(slot, ()):
                if not queue.offer(req):
                    assignment[req.request_id] = None
        batch = queue.drain()
        choices = engine.decide(
            batch,
            window_start=tick.window_start,
            window_shed=queue.shed - shed_before,
        )
        assignment.update(zip((req.request_id for req in batch), choices))
    return replace(engine.close_cycle(), assignment=assignment)


class CycleJob(NamedTuple):
    """One billing cycle's bids, or one shard's slice of them, to serve.

    The one payload that pooled work ships to a worker: the broker's
    pooled cycles and the sharded fleet's pooled and hedged shard cycles.
    ``faults`` is consulted only at a pool worker's cancellation poll;
    ``duals`` steers the decisions (see :class:`CycleEngine`); ``shard_id``
    comes back with the result so a fleet can route it.
    """

    topology: Topology
    requests: RequestSet
    cycle_index: int
    config: BrokerConfig
    faults: FaultPlan | None = None
    duals: np.ndarray | None = None
    shard_id: int = 0


def serve_job(
    job: CycleJob,
    *,
    cache: DecisionCache | None,
    budget: CycleBudget | None = None,
    breaker: CircuitBreaker | None = None,
    check_cancelled=None,
):
    """Serve one job's cycle through a fresh engine, in or out of process.

    Returns ``(shard_id, CycleResult, loads)``: the realized (edge, slot)
    loads of the close's :class:`Schedule` ride along so a fleet can post
    them to its ledger without re-enumerating paths.  Decisions are the
    same wherever it runs (the cache is exact and the loop
    deterministic); only cache residency, the budget and the breaker
    differ.
    """
    config = job.config
    engine = CycleEngine.from_config(
        job.topology,
        config,
        cache=cache,
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


def serve_pooled_job(job: CycleJob):
    """Pool entry point: :func:`serve_job` inside a worker process.

    Uses the worker's per-process decision cache and the pool's
    cooperative-cancellation flag (both installed by the pool
    initializer), and arms a fresh in-worker :class:`CycleBudget` from
    the job's config, so pooled cycles are deadline-guaranteed too.  A
    :class:`~repro.state.FaultPlan` riding on the job is consulted at the
    cancellation poll, so an injected worker death or solver hang lands
    mid-cycle between solves — the crash points the pool's restart path
    and the cycle budget must survive.
    """
    faults = job.faults

    def check_cancelled():
        if faults is not None:
            faults.maybe_kill_worker(job.cycle_index)
            faults.maybe_hang_solver()
            faults.maybe_slow_worker()
        return pool_mod.check_cancelled()

    return serve_job(
        job,
        cache=pool_mod.worker_cache(),
        budget=job.config.budget(),
        check_cancelled=check_cancelled,
    )


class _StateWriter:
    """The broker's write-through durability seam (one per run).

    Serial runs journal each decision live (``on_batch`` is handed to
    :func:`run_cycle`); pooled runs journal a cycle's records when its
    result is received in cycle order, since workers cannot share the
    journal handle.  Either way the cycle commit record plus its
    durability barrier is what acknowledges a cycle — batch records
    without a commit are re-run on recovery, never trusted.
    """

    def __init__(
        self,
        journal: Journal,
        snapshots: SnapshotStore,
        fingerprint: str,
        config: "BrokerConfig",
        faults: FaultPlan | None,
        completed: list[CycleResult],
    ) -> None:
        self.journal = journal
        self.snapshots = snapshots
        self.fingerprint = fingerprint
        self.config = config
        self.faults = faults
        self.completed = completed
        self.snapshot_seconds = 0.0
        self._live_batches = 0

    def on_batch(self, record: BatchRecord) -> None:
        self.journal.append(batch_to_record(record))
        self._live_batches += 1
        if self.faults is not None:
            self.faults.after_batch_append()

    def commit_cycle(self, result: CycleResult) -> None:
        for record in result.batches[self._live_batches:]:
            self.on_batch(record)
        self._live_batches = 0
        self.journal.append(cycle_to_record(result))
        self.journal.commit()
        self.completed.append(result)
        if self.faults is not None:
            self.faults.after_cycle_commit()
        if (result.cycle + 1) % self.config.snapshot_every == 0:
            state = broker_snapshot_state(
                self.fingerprint, self.config, self.completed
            )
            self.snapshot_seconds += self.snapshots.publish(state)


def open_state(
    config: "BrokerConfig",
    faults: FaultPlan | None,
    *,
    resume: bool,
    sharding: tuple | None = None,
) -> _StateWriter:
    """Recover (when resuming) and open ``config.wal_path`` for writing.

    The one durability opener every serving path shares: fingerprint the
    configuration (mixed with ``sharding`` — ``(shards, partition,
    writer)`` for :func:`~repro.state.shard_fingerprint` — on a sharded
    fleet), recover the committed-cycle prefix, open the journal with
    the fault plan's fsync and torn-write hooks, stamp an ``open``
    record, and return the writer.  Its ``completed`` list starts as the
    recovered cycles.
    """
    wal_path = Path(config.wal_path)
    fingerprint = config_fingerprint(config)
    if sharding is not None:
        fingerprint = shard_fingerprint(fingerprint, *sharding)
    recovered = (
        recover(wal_path, fingerprint=fingerprint).cycles if resume else []
    )
    journal = Journal.open(
        wal_path,
        fsync=config.fsync,
        fsync_hook=faults.fsync_hook() if faults is not None else None,
        write_hook=faults.write_hook() if faults is not None else None,
    )
    journal.append(
        {
            "type": "open",
            "format": WAL_FORMAT,
            "fingerprint": fingerprint,
            "next_cycle": len(recovered),
        }
    )
    journal.commit()
    return _StateWriter(
        journal,
        SnapshotStore(snapshot_path(wal_path)),
        fingerprint,
        config,
        faults,
        completed=list(recovered),
    )


@dataclass
class BrokerReport:
    """A finished broker run: per-cycle ledgers plus aggregated telemetry."""

    config: BrokerConfig
    cycles: list[CycleResult]
    telemetry: TelemetryCollector

    @property
    def profit(self) -> float:
        return sum(c.profit for c in self.cycles)

    @property
    def revenue(self) -> float:
        return sum(c.revenue for c in self.cycles)

    @property
    def cost(self) -> float:
        return sum(c.cost for c in self.cycles)

    @property
    def num_accepted(self) -> int:
        return sum(c.accepted for c in self.cycles)

    def summary(self) -> dict:
        return self.telemetry.summary()

    def decision_log(self) -> list[tuple[int, int, int | None]]:
        """Every decision as ``(cycle, request_id, path_or_None)``.

        Canonically ordered, so two runs are comparable with ``==`` — the
        seed-determinism tests and the serial/pool equivalence tests both
        hinge on this.
        """
        return [
            (result.cycle, request_id, path)
            for result in self.cycles
            for request_id, path in sorted(result.assignment.items())
        ]

    def dump_telemetry(self, path) -> None:
        self.telemetry.dump_json(path)


class Broker:
    """Runs the serving loop over an arrival source.

    With the default source, bids come from the paper's synthetic workload
    model, cycle-varied but fully seed-deterministic.  Pass a
    :class:`~repro.service.ingest.TraceSource` to replay recorded traffic.

    :meth:`run` is the one shell around every broker: durability, the
    commit loop and the report.  A subclass changes how cycles are
    served (:meth:`_serve`), what its WAL fingerprint mixes in
    (:meth:`_sharding`) and which fleet counters the report adds
    (:meth:`_record_fleet`).
    """

    #: The config a broker built without one starts from.
    config_class = BrokerConfig

    def __init__(
        self,
        config: BrokerConfig | None = None,
        source: ArrivalSource | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.config = config if config is not None else self.config_class()
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
        """Ask a running broker to stop at the next cycle boundary.

        Signal-safe (sets a flag; no locks, no I/O), so the ``serve`` CLI
        installs it as its SIGINT/SIGTERM handler: the in-flight cycle is
        finished, journaled, committed and snapshotted as usual, then
        :meth:`run` returns the partial report — a drained exit rather
        than a torn one.  Resuming later with ``resume=True`` picks up
        exactly where the stop landed.
        """
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        return self._stop_requested

    def run(self, *, resume: bool = False) -> BrokerReport:
        """Serve every configured cycle and return the full report.

        With ``config.wal_path`` set, every decision is journaled and
        committed cycles are snapshotted as the run progresses; with
        ``resume=True`` the broker first recovers the committed-cycle
        prefix from the journal/snapshot and re-serves only what never
        committed — the resulting report is bit-identical to an
        uninterrupted run (the crash-equivalence invariant of
        :mod:`repro.state`).
        """
        config = self.config
        if resume and config.wal_path is None:
            raise ValueError(
                f"resume=True requires {type(config).__name__}.wal_path"
            )
        t0 = time.perf_counter()
        self._worker_restarts = 0
        self._backoff_seconds = 0.0
        self._breakers: list[CircuitBreaker | None] = []

        recovered: list[CycleResult] = []
        writer = None
        wal_bytes = 0
        if config.wal_path is not None:
            writer = open_state(
                config, self.faults, resume=resume, sharding=self._sharding()
            )
            recovered = list(writer.completed)

        fresh: list[CycleResult] = []
        cycles = self._serve(recovered, writer)
        try:
            for result in cycles:
                if writer is not None:
                    writer.commit_cycle(result)
                fresh.append(result)
        finally:
            # Release a pool at once, also when a commit raised.
            cycles.close()
            if writer is not None:
                wal_bytes = writer.journal.size_bytes
                writer.journal.close()
        results = recovered + fresh
        elapsed = time.perf_counter() - t0

        telemetry = TelemetryCollector()
        telemetry.record_cycles(results)
        telemetry.wall_seconds = elapsed
        telemetry.recovered_batches = sum(len(c.batches) for c in recovered)
        telemetry.wal_bytes = wal_bytes
        telemetry.snapshot_seconds = (
            writer.snapshot_seconds if writer is not None else 0.0
        )
        telemetry.worker_restarts = self._worker_restarts
        telemetry.backoff_seconds = self._backoff_seconds
        telemetry.record_breakers(self._breakers)
        self._record_fleet(telemetry)
        return BrokerReport(config=config, cycles=results, telemetry=telemetry)

    def _sharding(self) -> tuple | None:
        """What :func:`open_state` mixes into the WAL fingerprint."""
        return None

    def _record_fleet(self, telemetry: TelemetryCollector) -> None:
        """Add fleet-only counters to the report (none for one broker)."""

    def _serve(
        self, recovered: list[CycleResult], writer: _StateWriter | None
    ) -> Iterator[CycleResult]:
        """Serve the cycles after ``recovered``, yielding each in order.

        :meth:`run` commits each result before it asks for the next, so
        the pooled loop checks the stop flag after a commit and the
        serial loop checks it before serving a cycle.  Pooled cycles are
        journaled at their commit; serial ones journal each decision
        live through ``writer.on_batch``.
        """
        config = self.config
        start = len(recovered)
        if config.workers >= 2 and config.num_cycles - start > 1:
            jobs = [
                CycleJob(
                    self.topology, self.source.cycle(index), index, config, self.faults
                )
                for index in range(start, config.num_cycles)
            ]
            with SolverPool(config.workers, cache_size=config.cache_size) as pool:
                for _, result, _ in pool.imap(serve_pooled_job, jobs):
                    yield result
                    if self._stop_requested:
                        break
                self._worker_restarts = pool.worker_restarts
                self._backoff_seconds = pool.backoff_seconds
            return

        budget = config.budget()
        breaker = config.breaker()
        self._breakers = [breaker]
        # One engine for the whole run: its path cache outlives the cycle.
        engine = CycleEngine.from_config(
            self.topology,
            config,
            cache=config.cache(),
            budget=budget,
            breaker=breaker,
            # An injected hang stalls the solve poll; it never cancels.
            check_cancelled=(
                self.faults.maybe_hang_solver if self.faults is not None else None
            ),
            on_batch=writer.on_batch if writer is not None else None,
        )
        for index in range(start, config.num_cycles):
            if self._stop_requested:
                return
            if budget is not None:
                budget.restart()
            yield run_cycle(
                self.topology,
                self.source.cycle(index),
                cycle_index=index,
                window=config.window,
                queue_capacity=config.queue_capacity,
                engine=engine,
            )

    def with_config(self, **changes) -> "Broker":
        """A new broker of this class over the same source, fields replaced."""
        return type(self)(
            replace(self.config, **changes), source=self.source, faults=self.faults
        )

    def __repr__(self) -> str:
        return (
            f"Broker(topology={self.topology.name!r}, "
            f"cycles={self.config.num_cycles}, workers={self.config.workers})"
        )
