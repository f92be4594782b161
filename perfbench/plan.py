"""Workload ``plan-b4``: the paper's offline algorithm on seeded B4 instances.

Settings follow the paper's evaluation (section V): K=200 requests over
12 slots, the flat 1.8 value model, k=3 candidate paths, and
``Metis(theta=10)``.  The inputs are a fixed list of instances drawn from
the seed.  The pass solves them in order, round after round, until the
time is up; each solve gets a freshly built instance, so a re-solve
reuses no cache of the one before and must return the same profit bit
for bit.
"""

from __future__ import annotations

import time

from common import Outcome, median, percentile
from repro.core.instance import SPMInstance
from repro.core.metis import Metis
from repro.net.topologies import b4
from repro.sim.validator import validate_schedule
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.value_models import FlatRateValueModel

SIZES = {
    "full": {"instances": 8, "requests": 200, "theta": 10},
    "smoke": {"instances": 2, "requests": 30, "theta": 2},
}

#: A re-plan that takes longer than this misses its slot (on_time_share).
DEADLINE_S = 5.0

_SETUP_REPEATS = 3


def _workloads(topology, seed: int, size: dict) -> list:
    config = WorkloadConfig(
        num_requests=size["requests"],
        num_slots=12,
        max_duration=4,
        value_model=FlatRateValueModel(1.8),
    )
    return [
        generate_workload(topology, config, rng=seed * 1000 + index)
        for index in range(size["instances"])
    ]


def _setup(seed: int, size: dict) -> tuple:
    topology = b4()
    workloads = _workloads(topology, seed, size)
    instances = [SPMInstance.build(topology, w, k_paths=3) for w in workloads]
    return topology, workloads, instances


def run(seed: int, seconds: float, size: dict, tracer=None) -> Outcome:
    out = Outcome()
    setups = []
    for _ in range(_SETUP_REPEATS):
        started = time.perf_counter()
        topology, workloads, _ = _setup(seed, size)
        setups.append(time.perf_counter() - started)

    count = len(workloads)
    solves = []  # (instance index, seconds, outcome or None)
    if tracer is not None:
        tracer.install()
    began = time.perf_counter()
    try:
        # At least one full round plus one re-solve, then until time is up.
        while len(solves) <= count or time.perf_counter() - began < seconds:
            index = len(solves) % count
            instance = SPMInstance.build(topology, workloads[index], k_paths=3)
            started = time.perf_counter()
            try:
                outcome = Metis(theta=size["theta"]).solve(
                    instance, rng=seed * 1000 + index
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failed solve
                out.errors.append(f"solve of instance {index} raised {exc!r}")
                outcome = None
            solves.append((index, time.perf_counter() - started, outcome))
    finally:
        out.wall = time.perf_counter() - began
        if tracer is not None:
            tracer.uninstall()

    first: dict[int, float] = {}
    failed = 0
    for index, _, outcome in solves:
        if outcome is None:
            failed += 1
            continue
        best = outcome.best
        if best.schedule is not None:
            report = validate_schedule(best.schedule)
            if not report.ok:
                failed += 1
                out.errors.append(
                    f"instance {index}: schedule fails validation: {report.errors[:3]}"
                )
        if index in first:
            out.check(
                best.profit == first[index],
                f"instance {index}: re-solve profit {best.profit!r} != {first[index]!r}",
            )
        else:
            first[index] = best.profit
        out.check(best.profit >= 0.0, f"instance {index}: negative profit {best.profit}")

    profit = sum(first.values())
    offered = sum(request.value for workload in workloads for request in workload)
    times = [dt for _, dt, outcome in solves if outcome is not None]
    decided = size["requests"] * len(times)
    out.attempted = len(solves)
    out.failed = failed
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "profit_share": (profit / offered, "ratio"),
        "latency_p50_ms": (median(times) * 1e3, "ms"),
        "latency_tail_ms": (percentile(times, 90) * 1e3, "ms"),
        "decisions_per_s": (decided / sum(times) if times else 0.0, "1/s"),
        "on_time_share": (
            sum(dt <= DEADLINE_S for dt in times) / len(solves), "ratio"
        ),
    }
    out.extra = {
        "solves": (len(solves), "count"),
        "profit": (profit, "price"),
        "offered_value": (offered, "price"),
        "tail_percentile": (90, "pct"),
    }
    return out
