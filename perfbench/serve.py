"""Workload ``serve-b4``: the simulated-clock broker on B4.

Each cycle brings fresh seeded traffic (160 bids over 12 slots), decided
in batches of at most 16 by the exact batch MILP, with the decision cache
on, a write-ahead log synced once per cycle and a snapshot every cycle.
No worker pool: one process, so the numbers measure the program.

Cycle latency is timed from outside: the broker calls the public
``ArrivalSource.cycle(i)`` when cycle i opens, after the previous cycle
was committed, synced and snapshotted; the next call (or ``run()``
returning) closes it.  Broker internals are not touched.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import replace

from common import OUT, Outcome, median, percentile
from repro.net.topologies import b4
from repro.service.broker import Broker, BrokerConfig
from repro.service.ingest import ArrivalSource, GeneratorSource
from repro.workload.generator import WorkloadConfig
from repro.workload.value_models import FlatRateValueModel

SIZES = {
    # profit_cycles: profit is summed over this fixed prefix, and the
    # pass never stops before it; determinism_cycles are re-served by a
    # second broker and must decide identically.
    "full": {"bids": 160, "profit_cycles": 40, "determinism_cycles": 3},
    "smoke": {"bids": 40, "profit_cycles": 3, "determinism_cycles": 2},
}

#: A cycle slower than this to commit counts as late (on_time_share).
DEADLINE_S = 1.0

_SETUP_REPEATS = 21


class _Opened(Exception):
    """Raised from the first ``cycle()`` call to end a set-up measurement."""


class _TimedSource(ArrivalSource):
    """Stamps each ``cycle(i)`` call and stops the broker once time is up."""

    def __init__(self, inner: ArrivalSource, *, seconds=None, min_cycles=0) -> None:
        self.inner = inner
        self.seconds = seconds
        self.min_cycles = min_cycles
        self.broker: Broker | None = None
        self.opened: list[float] = []
        self.began = time.perf_counter()

    def cycle(self, cycle_index: int):
        now = time.perf_counter()
        self.opened.append(now)
        if self.seconds is None:
            raise _Opened
        if cycle_index + 1 >= self.min_cycles and now - self.began >= self.seconds:
            self.broker.request_stop()
        return self.inner.cycle(cycle_index)


def _config(seed: int, size: dict, wal_dir) -> BrokerConfig:
    return BrokerConfig(
        topology="b4",
        num_cycles=100_000,
        slots_per_cycle=12,
        requests_per_cycle=size["bids"],
        seed=seed,
        max_batch=16,
        workers=0,
        wal_path=None if wal_dir is None else f"{wal_dir}/broker.wal",
        fsync="batch",
        snapshot_every=1,
    )


def _source(seed: int, size: dict) -> GeneratorSource:
    return GeneratorSource(
        b4(),
        WorkloadConfig(
            num_requests=size["bids"],
            num_slots=12,
            max_duration=4,
            value_model=FlatRateValueModel(1.8),
        ),
        seed=seed,
    )


def _setup_once(seed: int, size: dict) -> float:
    """Broker construction plus ``run()`` up to the first cycle opening."""
    OUT.mkdir(exist_ok=True)
    wal_dir = tempfile.mkdtemp(dir=OUT, prefix="serve-setup-")
    try:
        started = time.perf_counter()
        source = _TimedSource(_source(seed, size))
        broker = Broker(_config(seed, size, wal_dir), source=source)
        try:
            broker.run()
        except _Opened:
            pass
        return source.opened[0] - started
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def run(seed: int, seconds: float, size: dict, tracer=None) -> Outcome:
    out = Outcome()
    setups = [_setup_once(seed, size) for _ in range(_SETUP_REPEATS)]

    OUT.mkdir(exist_ok=True)
    wal_dir = tempfile.mkdtemp(dir=OUT, prefix="serve-")
    try:
        source = _TimedSource(
            _source(seed, size), seconds=seconds, min_cycles=size["profit_cycles"]
        )
        broker = Broker(_config(seed, size, wal_dir), source=source)
        source.broker = broker
        if tracer is not None:
            tracer.install()
        began = time.perf_counter()
        source.began = began
        try:
            report = broker.run()
        finally:
            ended = time.perf_counter()
            out.wall = ended - began
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)

    cycles = report.cycles
    marks = source.opened + [ended]
    durations = [b - a for a, b in zip(marks, marks[1:])]
    out.check(
        len(durations) == len(cycles),
        f"{len(source.opened)} cycle openings for {len(cycles)} cycles",
    )
    for result in cycles:
        out.check(
            result.accepted + result.declined + result.shed == result.num_requests,
            f"cycle {result.cycle}: accepted + declined + shed != requests",
        )
        out.check(
            result.num_requests == size["bids"],
            f"cycle {result.cycle}: {result.num_requests} requests, "
            f"expected {size['bids']}",
        )
        out.check(result.profit >= 0.0, f"cycle {result.cycle}: negative profit")

    prefix = size["determinism_cycles"]
    rerun = Broker(
        replace(_config(seed, size, None), num_cycles=prefix),
        source=_source(seed, size),
    ).run()
    out.check(
        rerun.decision_log() == [d for d in report.decision_log() if d[0] < prefix],
        f"decision log of the first {prefix} cycles differs on a rerun",
    )

    profit = sum(result.profit for result in cycles[: size["profit_cycles"]])
    offered = sum(
        request.value
        for index in range(size["profit_cycles"])
        for request in _source(seed, size).cycle(index)
    )
    batches = [record for result in cycles for record in result.batches]
    bids = sum(result.num_requests for result in cycles)
    out.attempted = len(batches)
    out.failed = sum(record.timed_out for record in batches)
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "profit_share": (profit / offered, "ratio"),
        "latency_p50_ms": (median(durations) * 1e3, "ms"),
        "latency_tail_ms": (percentile(durations, 90) * 1e3, "ms"),
        "decisions_per_s": (bids / out.wall, "1/s"),
        "on_time_share": (
            sum(d <= DEADLINE_S for d in durations) / len(durations), "ratio"
        ),
    }
    out.extra = {
        "cycles": (len(cycles), "count"),
        "profit": (profit, "price"),
        "offered_value": (offered, "price"),
        "bids": (bids, "count"),
        "tail_percentile": (90, "pct"),
    }
    return out
