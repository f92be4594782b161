"""The asyncio bid gateway: the live broker behind a socket.

``GatewayServer`` exposes the serving loop over TCP with the
newline-delimited JSON protocol of :mod:`repro.gateway.protocol`.  The
architecture is one event loop with three kinds of actors:

* **connection readers** (one per client) parse bid lines, answer
  malformed input with structured per-line errors, and either admit each
  bid into the global bounded admission queue or — when the queue is
  full — shed it with an immediate response;
* **one decision loop** sleeps to :class:`~repro.gateway.WallClock`
  deadlines; at each admission-window close it drains the queue and
  decides the batch through :class:`LiveCycleEngine` (the broker's
  :class:`~repro.service.broker.CycleEngine`: the same decision cache,
  degradation ladder and integer-unit charging), then routes each
  verdict back through its connection's bounded
  :class:`ResponseChannel`;
* **connection writers** (one per client) pump responses with real
  ``drain()`` backpressure; a reader too slow to keep up overflows its
  channel and is disconnected rather than allowed to stall decisions.

Billing cycles close on real deadlines.  With ``wal_path`` set, every
decision is journaled and every cycle committed through the *same*
durability layer as the broker (:mod:`repro.state`), so a crashed
gateway's WAL recovers bit-identically to what was acknowledged.  On
SIGINT/SIGTERM the gateway drains: pending bids are decided, the open
cycle is committed and snapshotted, the WAL is fsync'd regardless of
policy (:meth:`repro.state.Journal.close` with ``sync=True``), clients
get a ``bye``, and the process exits 0 — a second signal aborts with
exit 130.

Exact accounting is enforced, not assumed: ``accepted + rejected + shed
+ errored == submitted`` is asserted at every cycle boundary and at
drain.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import GatewayError, ProtocolError
from repro.gateway.backpressure import GatewayCounters, PendingBid, ResponseChannel
from repro.gateway.engine import LiveCycleEngine
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    bye_message,
    decision_message,
    error_message,
    hello_message,
    parse_bid_line,
)
from repro.gateway.wallclock import WallClock
from repro.net.topology import Topology
from repro.resilience import CircuitBreaker, CycleBudget
from repro.service.broker import _make_topology, _StateWriter, open_state
from repro.service.ingest import AdmissionQueue, PushSource
from repro.service.telemetry import LatencyHistogram, TelemetryCollector
from repro.shard.broker import ShardConfig
from repro.shard.live import ShardedLiveEngine
from repro.state import FaultPlan, SimulatedCrash, broker_snapshot_state

__all__ = ["GatewayConfig", "GatewayServer", "run_gateway"]

_log = logging.getLogger(__name__)


@dataclass
class GatewayConfig:
    """Everything that pins a gateway run.

    The decision-relevant core (topology, cycle shape, ``k_paths``,
    queue bounds, sharding) mirrors :class:`~repro.shard.broker.ShardConfig`,
    which validates it; what is new is real time (``slot_seconds``), the
    listen address, and the per-connection response buffer.
    ``num_cycles=None`` serves until stopped.  ``resume=True`` (requires
    ``wal_path``) recovers the committed-cycle prefix before listening.
    """

    host: str = "127.0.0.1"
    port: int = 0
    topology: str | Topology = "b4"
    slots_per_cycle: int = 12
    window: int = 1
    slot_seconds: float = 0.1
    num_cycles: int | None = None
    k_paths: int = 3
    # Real-time defaults: admission MILPs grow superlinearly with batch
    # size (a 64-bid batch can take seconds), so live serving bounds the
    # queue, the chunk size and the per-solve budget.  A timed-out chunk
    # rejects its bids — late never blocks the clock.
    time_limit: float | None = 1.0
    queue_capacity: int | None = 256
    max_batch: int | None = 16
    cache_size: int = 1024
    conn_buffer: int = 4096
    wal_path: str | Path | None = None
    snapshot_every: int = 1
    fsync: str = "batch"
    resume: bool = False
    # Sharded serving: shards > 1 swaps the single LiveCycleEngine for a
    # ShardedLiveEngine (repro.shard.live) — per-source-DC sub-engines
    # coordinated through a shared bandwidth ledger.
    shards: int = 1
    partition: str = "hash"
    # Resilience levers (repro.resilience), mirroring BrokerConfig: a
    # wall-clock budget per billing cycle routes decisions through the
    # degradation ladder; breaker_failures > 0 arms a circuit breaker
    # (one per shard when sharded) in front of the exact solver.  All
    # three are execution levers — absent from the WAL fingerprint.
    cycle_budget: float | None = None
    breaker_failures: int = 0
    breaker_reset: float = 5.0

    def __post_init__(self) -> None:
        if not (self.slot_seconds > 0):
            raise ValueError(f"slot_seconds must be > 0, got {self.slot_seconds!r}")
        if self.num_cycles is not None and self.num_cycles < 1:
            raise ValueError(
                f"num_cycles must be >= 1 or None, got {self.num_cycles}"
            )
        if self.conn_buffer < 1:
            raise ValueError(f"conn_buffer must be >= 1, got {self.conn_buffer}")
        if self.resume and self.wal_path is None:
            raise ValueError("resume=True requires wal_path")
        # The fields shared with ShardConfig are checked by its own
        # validation: cycle shape, limits, queue, cache, WAL, sharding
        # and resilience.
        self.broker_config()

    def broker_config(self) -> ShardConfig:
        """The decision-equivalent :class:`ShardConfig` surrogate.

        This is what the WAL fingerprint is computed over, so a gateway
        journal refuses to resume under a changed decision-relevant
        configuration through exactly the broker's guard.  It is also
        what the gateway's engine or shard fleet is built from: it
        carries the execution levers (``cache_size``, ``cycle_budget``,
        ``breaker_*``) and the fleet's ``shards``/``partition``, none of
        which the fingerprint reads.  Live-only fields (address,
        ``slot_seconds``, buffers) are absent, like ``workers`` for the
        broker.
        """
        return ShardConfig(
            topology=self.topology,
            num_cycles=1 if self.num_cycles is None else self.num_cycles,
            slots_per_cycle=self.slots_per_cycle,
            window=self.window,
            requests_per_cycle=0,
            seed=0,
            k_paths=self.k_paths,
            max_duration=None,
            time_limit=self.time_limit,
            cache_size=self.cache_size,
            queue_capacity=self.queue_capacity,
            max_batch=self.max_batch,
            wal_path=self.wal_path,
            snapshot_every=self.snapshot_every,
            fsync=self.fsync,
            cycle_budget=self.cycle_budget,
            breaker_failures=self.breaker_failures,
            breaker_reset=self.breaker_reset,
            shards=self.shards,
            partition=self.partition,
        )

    def clock(self) -> WallClock:
        return WallClock(
            self.slots_per_cycle,
            window=self.window,
            num_cycles=self.num_cycles,
            slot_seconds=self.slot_seconds,
        )


class _Connection:
    """Server-side connection state: outbox, line numbers, outstanding bids."""

    __slots__ = (
        "conn_id",
        "channel",
        "pump",
        "lineno",
        "submitted",
        "responded",
        "eof",
        "outstanding",
        "_drained",
    )

    def __init__(self, conn_id: int, buffer: int) -> None:
        self.conn_id = conn_id
        self.channel = ResponseChannel(capacity=buffer)
        self.pump: asyncio.Task | None = None
        self.lineno = 0
        self.submitted = 0
        self.responded = 0
        self.eof = False
        self.outstanding = 0
        self._drained = asyncio.Event()
        self._drained.set()

    def send(self, message: dict[str, Any]) -> bool:
        delivered = self.channel.send(message)
        if delivered and message.get("type") in ("decision", "error"):
            self.responded += 1
        return delivered

    def bid_admitted(self) -> None:
        self.outstanding += 1
        self._drained.clear()

    def bid_resolved(self) -> None:
        self.outstanding -= 1
        if self.outstanding <= 0:
            self._drained.set()

    async def wait_drained(self) -> None:
        await self._drained.wait()


class GatewayServer:
    """The live gateway; see the module docstring for the architecture."""

    def __init__(
        self, config: GatewayConfig | None = None, *, faults: FaultPlan | None = None
    ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.faults = faults
        self.topology = _make_topology(self.config.topology)
        self._nodes = frozenset(self.topology.datacenters)
        self.counters = GatewayCounters()
        self.telemetry = TelemetryCollector()
        self.latency = LatencyHistogram()
        self.cycles: list = []
        #: Per-cycle realized arrivals, so a broker can replay/audit the
        #: exact traffic this gateway served (see ingest.PushSource).
        self.arrivals = PushSource(self.config.slots_per_cycle)
        self.crashed: BaseException | None = None
        self._engine: LiveCycleEngine | None = None
        self._budget: CycleBudget | None = None
        self._breakers: list[CircuitBreaker | None] = []
        self._clock: WallClock | None = None
        self._queue = AdmissionQueue(self.config.queue_capacity)
        self._pending_ids: set[int] = set()
        self._conns: dict[int, _Connection] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._next_conn_id = 0
        self._window_shed = 0
        self._stopping: asyncio.Event | None = None
        self._done: asyncio.Event | None = None
        self._ticker: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writer: _StateWriter | None = None
        self._signals_seen = 0
        self._started_at = 0.0

    # --------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Recover (if resuming), open the WAL, bind, and start serving."""
        config = self.config
        self._stopping = asyncio.Event()
        self._done = asyncio.Event()
        surrogate = config.broker_config()

        recovered: list = []
        if config.wal_path is not None:
            # Sharding changes decisions (partitioned MILPs), so a sharded
            # gateway's WAL refuses to splice runs with different setups.
            self._writer = open_state(
                surrogate,
                self.faults,
                resume=config.resume,
                sharding=(
                    (config.shards, config.partition, "live")
                    if config.shards > 1
                    else None
                ),
            )
            recovered = list(self._writer.completed)
        next_cycle = len(recovered)
        self.cycles.extend(recovered)
        self.telemetry.record_cycles(recovered)
        self.telemetry.recovered_batches = sum(len(c.batches) for c in recovered)

        self._budget = surrogate.budget()
        runtime = dict(
            cache=surrogate.cache(),
            on_batch=self._on_batch,
            budget=self._budget,
            # An injected hang stalls the solve poll; it never cancels.
            check_cancelled=(
                self.faults.maybe_hang_solver if self.faults is not None else None
            ),
        )
        if config.shards > 1:
            self._engine = ShardedLiveEngine(self.topology, surrogate, **runtime)
            self._breakers = self._engine.breakers
        else:
            breaker = surrogate.breaker()
            self._engine = LiveCycleEngine.from_config(
                self.topology, surrogate, breaker=breaker, **runtime
            )
            self._breakers = [breaker]
        if recovered:
            self._engine.start_cycle(next_cycle)
            if recovered[-1].fleet is not None:
                self._engine.ledger.apply_record(recovered[-1].fleet["ledger"])

        self._clock = config.clock()
        self._clock.start(cycle=next_cycle)
        self._started_at = time.perf_counter()
        self._server = await asyncio.start_server(
            self._handle_conn, config.host, config.port
        )
        self._ticker = asyncio.create_task(self._serve_windows())

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is resolved when config said 0."""
        if self._server is None or not self._server.sockets:
            raise GatewayError("gateway is not listening")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def request_stop(self) -> None:
        """Begin a graceful drain (idempotent, callable from handlers)."""
        if self._stopping is not None:
            self._stopping.set()

    async def stop(self) -> None:
        """Drain and shut down: decide pending, commit, flush, disconnect."""
        self.request_stop()
        await self.wait_closed()

    async def wait_closed(self) -> None:
        """Block until the gateway has fully shut down; re-raise crashes."""
        if self._done is None:
            return
        await self._done.wait()
        if self.crashed is not None:
            raise self.crashed

    def install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM → graceful drain; a second signal → exit 130."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, self._on_signal)

    def _on_signal(self) -> None:
        self._signals_seen += 1
        if self._signals_seen >= 2:
            # Forced: abandon the drain. 130 = interrupted, by convention.
            os._exit(130)
        self.request_stop()

    # ------------------------------------------------------------ serving loop

    def _on_batch(self, record) -> None:
        self.telemetry.record_batch(record)
        if self._writer is not None:
            self._writer.on_batch(record)

    async def _serve_windows(self) -> None:
        config = self.config
        try:
            cycle = self._engine.cycle
            while config.num_cycles is None or cycle < config.num_cycles:
                stopped = False
                for tick in self._clock.windows(cycle):
                    stopped = await self._wait_until(self._clock.deadline(tick))
                    self._close_window(tick)
                    if stopped:
                        break
                self._commit_cycle()
                if stopped:
                    return
                cycle += 1
                if config.num_cycles is None or cycle < config.num_cycles:
                    if self._budget is not None:
                        self._budget.restart()
                    self._engine.start_cycle(cycle)
        except SimulatedCrash as exc:
            # The fault harness "killed" us: leave everything un-flushed
            # exactly as a real crash would and surface via wait_closed().
            self.crashed = exc
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # pragma: no cover - defensive
            self.crashed = exc
        finally:
            await self._shutdown()

    async def _wait_until(self, deadline: float) -> bool:
        """Sleep to ``deadline``; ``True`` when a drain interrupted the wait."""
        while True:
            if self._stopping.is_set():
                return True
            remaining = self._clock.remaining(deadline)
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(self._stopping.wait(), timeout=remaining)
                return True
            except asyncio.TimeoutError:
                return False

    def _close_window(self, tick) -> None:
        """Drain and decide one admission window, then route the verdicts."""
        bids = self._queue.drain()
        window_shed = self._window_shed
        self._window_shed = 0
        choices = self._engine.decide(
            [bid.request for bid in bids],
            window_start=tick.window_start,
            window_shed=window_shed,
        )
        now = time.monotonic()
        for bid, choice in zip(bids, choices):
            self._pending_ids.discard(bid.request.request_id)
            latency = max(0.0, now - bid.submitted_at)
            self.latency.record(latency)
            if choice is not None:
                self.counters.accepted += 1
                verdict = "accept"
            else:
                self.counters.rejected += 1
                verdict = "reject"
            delivered = bid.channel.send(
                decision_message(
                    request_id=bid.request.request_id,
                    decision=verdict,
                    path=choice,
                    cycle=tick.cycle,
                    window_start=tick.window_start,
                    latency_ms=latency * 1e3,
                )
            )
            if not delivered:
                self.counters.responses_dropped += 1
            bid.channel.bid_resolved()

    def _commit_cycle(self) -> None:
        result = self._engine.close_cycle()
        self.counters.assert_reconciled(
            pending=len(self._queue), where=f"cycle {result.cycle} commit"
        )
        self.arrivals.feed(result.cycle, list(self._engine.requests))
        if self._writer is not None:
            self._writer.commit_cycle(result)
        self.cycles.append(result)
        self.telemetry.record_result(result)

    async def _shutdown(self) -> None:
        """Tear down: close the listener, flush the WAL, say goodbye."""
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
        if self._writer is not None:
            if self.crashed is None:
                # Drain path: a final snapshot plus a forced fsync, so the
                # exit is durable even under fsync="never".
                if self.cycles:
                    state = broker_snapshot_state(
                        self._writer.fingerprint,
                        self._writer.config,
                        self._writer.completed,
                    )
                    self._writer.snapshot_seconds += (
                        self._writer.snapshots.publish(state)
                    )
                self._writer.journal.close(sync=True)
            # On a simulated crash the journal is deliberately left
            # unclosed: flushed appends survive, nothing else does.
        self.telemetry.wall_seconds = time.perf_counter() - self._started_at
        self.telemetry.wal_bytes = (
            self._writer.journal.size_bytes if self._writer is not None else 0
        )
        self.telemetry.record_breakers(self._breakers)
        if self.config.shards > 1:
            for shard_id, breaker in enumerate(self._breakers):
                if breaker is not None:
                    self.telemetry.record_shard(
                        shard_id,
                        {
                            "breaker_opens": breaker.opens,
                            "breaker_failures": breaker.failures,
                        },
                    )
        self.telemetry.snapshot_seconds = (
            self._writer.snapshot_seconds if self._writer is not None else 0.0
        )
        pumps = []
        for conn in list(self._conns.values()):
            conn.send(
                bye_message(
                    submitted=conn.submitted,
                    responded=conn.responded,
                    reason="drain" if self.crashed is None else "crash",
                )
            )
            conn.channel.close_when_done()
            if conn.pump is not None:
                pumps.append(conn.pump)
        if pumps:
            # Best-effort delivery of the goodbye before readers are cut.
            await asyncio.wait(pumps, timeout=2.0)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._done.set()

    # -------------------------------------------------------------- connections

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        conn = _Connection(conn_id, self.config.conn_buffer)
        self._conns[conn_id] = conn
        pump = asyncio.create_task(conn.channel.pump(writer))
        conn.pump = pump
        config = self.config
        conn.send(
            hello_message(
                topology=self.topology.name,
                slots_per_cycle=config.slots_per_cycle,
                window=config.window,
                slot_seconds=config.slot_seconds,
                num_cycles=config.num_cycles,
            )
        )
        try:
            while not conn.channel.dead:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # An overlong line: count it, answer structurally, and
                    # close — the stream cannot be resynchronized.
                    conn.lineno += 1
                    self.counters.submitted += 1
                    self.counters.errored += 1
                    conn.send(
                        error_message(
                            conn.lineno,
                            f"line {conn.lineno}: bid line exceeds the "
                            "stream limit",
                        )
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # EOF: client half-closed after its last bid
                conn.lineno += 1
                if not line.strip():
                    continue
                self._submit(conn, line)
            conn.eof = True
            # Let every in-flight bid resolve before the goodbye, so a
            # well-behaved client always sees all its decisions.
            await conn.wait_drained()
            if not self._stopping.is_set():
                conn.send(
                    bye_message(
                        submitted=conn.submitted,
                        responded=conn.responded,
                        reason="overflow" if conn.channel.dead else "eof",
                    )
                )
            conn.channel.close_when_done()
            await pump
        except asyncio.CancelledError:
            # Cancellation here is the server tearing this connection down
            # at shutdown (the bye already went out): end quietly instead
            # of re-raising into asyncio.streams' done-callback.
            conn.channel.close_when_done()
            pump.cancel()
            await asyncio.gather(pump, return_exceptions=True)
        finally:
            self._conns.pop(conn_id, None)
            self._conn_tasks.discard(task)

    def _submit(self, conn: _Connection, line: bytes) -> None:
        """Account one received bid line: error, shed, or admit."""
        self.counters.submitted += 1
        conn.submitted += 1
        try:
            request = parse_bid_line(
                line,
                conn.lineno,
                num_slots=self.config.slots_per_cycle,
                nodes=self._nodes,
            )
        except ProtocolError as exc:
            self.counters.errored += 1
            conn.send(error_message(exc.lineno, str(exc)))
            return
        except Exception as exc:  # noqa: BLE001 - one line never stops the gateway
            _log.exception("line %d: bid line failed to parse", conn.lineno)
            self.counters.errored += 1
            conn.send(
                error_message(
                    conn.lineno, f"line {conn.lineno}: invalid bid line ({exc!r})"
                )
            )
            return
        if self._engine.seen(request.request_id) or (
            request.request_id in self._pending_ids
        ):
            self.counters.errored += 1
            conn.send(
                error_message(
                    conn.lineno,
                    f"line {conn.lineno}: duplicate request_id "
                    f"{request.request_id} in cycle {self._engine.cycle}",
                )
            )
            return
        if self._stopping.is_set():
            # Draining: no new work is admitted; shed with an answer.
            self._respond_shed(conn, request)
            return
        bid = PendingBid(
            request=request,
            channel=conn,
            submitted_at=time.monotonic(),
            lineno=conn.lineno,
        )
        if self._queue.offer(bid):
            self._pending_ids.add(request.request_id)
            conn.bid_admitted()
        else:
            self._respond_shed(conn, request)

    def _respond_shed(self, conn: _Connection, request) -> None:
        self.counters.shed += 1
        self._window_shed += 1
        self.latency.record(0.0)
        engine = self._engine
        delivered = conn.send(
            decision_message(
                request_id=request.request_id,
                decision="shed",
                path=None,
                cycle=engine.cycle,
                window_start=0,
                latency_ms=0.0,
            )
        )
        if not delivered:
            self.counters.responses_dropped += 1

    # ------------------------------------------------------------------ report

    def report(self) -> dict[str, Any]:
        """The run summary: broker telemetry + gateway ledgers + latency."""
        summary = self.telemetry.summary()
        wall = self.telemetry.wall_seconds or (
            time.perf_counter() - self._started_at if self._started_at else 0.0
        )
        responses = self.counters.accounted
        summary.update(
            {
                "protocol": PROTOCOL_VERSION,
                "gateway": self.counters.to_dict(),
                "bids_per_sec": responses / wall if wall > 0 else 0.0,
                "admission_latency": self.latency.summary(),
            }
        )
        return summary


async def run_gateway(
    config: GatewayConfig, *, faults: FaultPlan | None = None, signals: bool = True
) -> GatewayServer:
    """Start a gateway, serve until its horizon or a signal, and drain."""
    server = GatewayServer(config, faults=faults)
    await server.start()
    if signals:
        server.install_signal_handlers()
    await server.wait_closed()
    return server
