"""The profit-maximizing broker: a long-running admission-serving loop.

This is the serving layer the paper's operational story implies: a
provider continuously receives first-price sealed-bid transfer requests
and must accept (with a path) or decline each one before its window
starts.  The broker runs rolling billing cycles on a simulated clock
(:class:`~repro.service.clock.SimClock`), ingests each cycle's bid stream
(:mod:`repro.service.ingest`), batches arrivals into admission windows,
and decides every batch *exactly* with the incremental MILP of
:func:`repro.core.online.build_incremental_spm` — the same integer-unit
charging the offline solutions use, so broker profit is directly
comparable to (and upper-bounded by) offline OPT on the same instance.

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
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    (``None`` = unbounded).  ``lp_screen`` enables the LP relaxation-bound
    screen for exact batch solves (:func:`repro.core.online.solve_batch`):
    hopeless batches are declined with a certificate instead of paying
    for an integer solve — decisions and profit are unchanged.

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
    rung until a probe succeeds after ``breaker_reset`` seconds.
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
    lp_screen: bool = False
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
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
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
        if self.breaker_reset < 0:
            raise ValueError(
                f"breaker_reset must be >= 0, got {self.breaker_reset!r}"
            )

    def clock(self) -> SimClock:
        return SimClock(
            self.slots_per_cycle, window=self.window, num_cycles=self.num_cycles
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
    assignment and the batch records of the open cycle, plus a
    (source, dest) path cache that lives as long as the engine.  Edge
    indexing comes from the topology alone, so every per-batch
    :class:`SPMInstance` agrees on the ledger arrays.

    The ladder is built here from ``budget``/``breaker``/``time_limit``/
    ``lp_screen``; whoever creates ``budget`` re-arms it at each cycle
    open (a sharded fleet shares one budget across its shard engines).
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
        lp_screen: bool = False,
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
            lp_screen=lp_screen,
        )
        self.edges = [e.key for e in topology.edges]
        self.prices = np.array([topology.price(*key) for key in self.edges])
        self.dual_prices = dual_prices
        self._path_cache: dict[tuple, list] = {}
        #: The last closed cycle's :class:`Schedule`.
        self.schedule: Schedule | None = None
        self.start_cycle(0, slots_per_cycle)

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
        paths = {}
        for req in requests:
            key = (req.source, req.dest)
            cached = self._path_cache.get(key)
            if cached is None:
                cached = self._path_cache[key] = self.topology.candidate_paths(
                    req.source, req.dest, k=self.k_paths
                )
            paths[req.request_id] = cached
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
                screened=outcome.screened,
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
            revenue=schedule.revenue,
            cost=schedule.cost,
            profit=schedule.profit,
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
    ``max_batch``, ``lp_screen``, ``check_cancelled``, ``on_batch``,
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


def _pool_check_cancelled(faults: FaultPlan | None, cycle_index: int):
    """The pool's cancellation poll, with a fault plan's injections.

    A :class:`~repro.state.FaultPlan` riding on a worker payload is
    consulted at the poll, so an injected worker death or solver hang
    lands mid-cycle between solves — the crash points the pool's restart
    path and the cycle budget must survive.
    """
    if faults is None:
        return pool_mod.check_cancelled

    def check_cancelled():
        faults.maybe_kill_worker(cycle_index)
        faults.maybe_hang_solver()
        faults.maybe_slow_worker()
        return pool_mod.check_cancelled()

    return check_cancelled


def _cycle_worker(payload: tuple) -> CycleResult:
    """Pool entry point: serve one cycle inside a worker process.

    Uses the worker's per-process decision cache and the pool's
    cooperative-cancellation flag (both installed by the pool
    initializer).  ``cycle_budget`` (seconds, or ``None``) arms a fresh
    in-worker :class:`CycleBudget` so pooled cycles are
    deadline-guaranteed too.
    """
    (
        topology,
        requests,
        cycle_index,
        window,
        k_paths,
        time_limit,
        queue_capacity,
        max_batch,
        lp_screen,
        faults,
        cycle_budget,
    ) = payload
    return run_cycle(
        topology,
        requests,
        cycle_index=cycle_index,
        window=window,
        queue_capacity=queue_capacity,
        k_paths=k_paths,
        time_limit=time_limit,
        cache=pool_mod.worker_cache(),
        max_batch=max_batch,
        lp_screen=lp_screen,
        check_cancelled=_pool_check_cancelled(faults, cycle_index),
        budget=None if cycle_budget is None else CycleBudget(cycle_budget),
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
    """

    def __init__(
        self,
        config: BrokerConfig | None = None,
        source: ArrivalSource | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.config = config if config is not None else BrokerConfig()
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
            raise ValueError("resume=True requires BrokerConfig.wal_path")
        t0 = time.perf_counter()
        self._worker_restarts = 0
        self._backoff_seconds = 0.0
        self._breaker = None

        recovered: list[CycleResult] = []
        recovered_batches = 0
        journal = None
        writer = None
        wal_bytes = 0
        if config.wal_path is not None:
            wal_path = Path(config.wal_path)
            fingerprint = config_fingerprint(config)
            if resume:
                state = recover(wal_path, fingerprint=fingerprint)
                recovered = state.cycles
                recovered_batches = state.recovered_batches
            journal = Journal.open(
                wal_path,
                fsync=config.fsync,
                fsync_hook=(
                    self.faults.fsync_hook() if self.faults is not None else None
                ),
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
            writer = _StateWriter(
                journal,
                SnapshotStore(snapshot_path(wal_path)),
                fingerprint,
                config,
                self.faults,
                completed=list(recovered),
            )

        try:
            start = len(recovered)
            if start >= config.num_cycles:
                fresh: list[CycleResult] = []
            elif config.workers >= 2 and config.num_cycles - start > 1:
                fresh = self._run_pooled(start, writer)
            else:
                fresh = self._run_serial(start, writer)
        finally:
            if journal is not None:
                wal_bytes = journal.size_bytes
                journal.close()
        results = recovered + fresh
        elapsed = time.perf_counter() - t0

        telemetry = TelemetryCollector()
        for result in results:
            for record in result.batches:
                telemetry.record_batch(record)
            telemetry.record_cycle(result.cycle, result.profit)
        telemetry.wall_seconds = elapsed
        telemetry.recovered_batches = recovered_batches
        telemetry.wal_bytes = wal_bytes
        telemetry.snapshot_seconds = (
            writer.snapshot_seconds if writer is not None else 0.0
        )
        telemetry.worker_restarts = self._worker_restarts
        telemetry.backoff_seconds = self._backoff_seconds
        if self._breaker is not None:
            telemetry.breaker_opens = self._breaker.opens
            telemetry.breaker_failures = self._breaker.failures
            telemetry.breaker_probes = self._breaker.probes
            telemetry.breaker_short_circuits = self._breaker.short_circuits
        return BrokerReport(config=config, cycles=results, telemetry=telemetry)

    def _run_serial(
        self, start: int, writer: _StateWriter | None
    ) -> list[CycleResult]:
        config = self.config
        cache = DecisionCache(config.cache_size) if config.cache_size > 0 else None
        budget = (
            CycleBudget(config.cycle_budget)
            if config.cycle_budget is not None
            else None
        )
        breaker = (
            CircuitBreaker(
                failure_threshold=config.breaker_failures,
                reset_seconds=config.breaker_reset,
            )
            if config.breaker_failures > 0
            else None
        )
        self._breaker = breaker
        check_cancelled = None
        if self.faults is not None:
            faults = self.faults

            def check_cancelled():
                faults.maybe_hang_solver()
                return False

        # One engine for the whole run: its path cache outlives the cycle.
        engine = CycleEngine(
            self.topology,
            config.slots_per_cycle,
            k_paths=config.k_paths,
            time_limit=config.time_limit,
            cache=cache,
            max_batch=config.max_batch,
            lp_screen=config.lp_screen,
            budget=budget,
            breaker=breaker,
            check_cancelled=check_cancelled,
            on_batch=writer.on_batch if writer is not None else None,
        )
        results = []
        for index in range(start, config.num_cycles):
            if self._stop_requested:
                break
            if budget is not None:
                budget.restart()
            result = run_cycle(
                self.topology,
                self.source.cycle(index),
                cycle_index=index,
                window=config.window,
                queue_capacity=config.queue_capacity,
                engine=engine,
            )
            if writer is not None:
                writer.commit_cycle(result)
            results.append(result)
        return results

    def _run_pooled(
        self, start: int, writer: _StateWriter | None
    ) -> list[CycleResult]:
        config = self.config
        payloads = [
            (
                self.topology,
                self.source.cycle(index),
                index,
                config.window,
                config.k_paths,
                config.time_limit,
                config.queue_capacity,
                config.max_batch,
                config.lp_screen,
                self.faults,
                config.cycle_budget,
            )
            for index in range(start, config.num_cycles)
        ]
        results = []
        with SolverPool(config.workers, cache_size=config.cache_size) as solver_pool:
            for result in solver_pool.imap(_cycle_worker, payloads):
                if writer is not None:
                    writer.commit_cycle(result)
                results.append(result)
                if self._stop_requested:
                    break
            self._worker_restarts = solver_pool.worker_restarts
            self._backoff_seconds = solver_pool.backoff_seconds
        return results

    def with_config(self, **changes) -> "Broker":
        """A new broker over the same source with config fields replaced."""
        return Broker(
            replace(self.config, **changes), source=self.source, faults=self.faults
        )

    def __repr__(self) -> str:
        return (
            f"Broker(topology={self.topology.name!r}, "
            f"cycles={self.config.num_cycles}, workers={self.config.workers})"
        )
