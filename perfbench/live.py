"""Workloads ``live-b4`` and ``live-sharded-b4``: the gateway behind a socket.

The gateway runs in this process on B4 with 100 ms slots (12-slot
cycles), a write-ahead log synced per cycle and a snapshot per cycle.
The load comes from ``driver.py`` in its own process: open-loop Poisson
arrivals over at most two connections, so a gateway stall delays
answers but never the schedule.

* ``live-b4``: one engine, cycle budget and circuit breaker armed, so
  every batch is decided by the degradation ladder; 30 bids/s.
* ``live-sharded-b4``: four hash-partitioned shard engines steered by the
  bandwidth ledger; uniform link capacity 4 so the ledger has duals to
  move; no budget; 30 bids/s.

Both rates sit well below the knee where the p99 stops repeating.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from common import OUT, Outcome, median, percentile
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.net.topologies import b4

SIZES = {
    "full": {"scale": 1.0},
    "smoke": {"scale": 0.4},
}

WORKLOADS = {
    "live-b4": {"rate": 30.0, "shards": 1, "capacity": None, "budget": 1.5, "breaker": 3},
    "live-sharded-b4": {"rate": 30.0, "shards": 4, "capacity": 4, "budget": None, "breaker": 0},
}

#: A bid answered accept/reject later than three windows misses.
ON_TIME_S = 0.3

#: The tail of the bid latencies: a full run sends 750 bids, so 37 lie
#: beyond it.
TAIL_PERCENTILE = 95

#: A run whose driver sent later than this (p99, ms) is invalid.
LATENESS_P99_BOUND_MS = 50.0

_DRIVER = Path(__file__).resolve().parent / "driver.py"
_SETUP_REPEATS = 11
_CONNECTIONS = min(2, os.cpu_count() or 1)


def _config(spec: dict, wal_dir: str) -> GatewayConfig:
    topology = b4()
    if spec["capacity"] is not None:
        topology.set_uniform_capacity(spec["capacity"])
    return GatewayConfig(
        topology=topology,
        slots_per_cycle=12,
        window=1,
        slot_seconds=0.1,
        wal_path=f"{wal_dir}/gateway.wal",
        fsync="batch",
        snapshot_every=1,
        shards=spec["shards"],
        partition="hash",
        cycle_budget=spec["budget"],
        breaker_failures=spec["breaker"],
    )


async def _line(proc, timeout: float) -> bytes:
    line = await asyncio.wait_for(proc.stdout.readline(), timeout)
    if not line:
        raise RuntimeError(f"driver exited with code {await proc.wait()}")
    return line.strip()


async def _command(proc, command: str, answer: bytes) -> None:
    proc.stdin.write(command.encode() + b"\n")
    await proc.stdin.drain()
    got = await _line(proc, 60)
    if got != answer:
        raise RuntimeError(f"driver answered {got!r} to {command!r}")


async def _session(spec: dict, seed: int, seconds: float, tracer=None):
    """Time the gateway's set-up, then serve one run of driver load.

    The driver process starts first, untimed.  Set-up runs from
    constructing the gateway until the driver has connected and read its
    banners; it is repeated on fresh gateways and the last one serves.
    Returns ``(set-up seconds per repeat, server, driver report, wall)``.
    """
    OUT.mkdir(exist_ok=True)
    wal_dirs = []
    server = None
    proc = await asyncio.create_subprocess_exec(
        sys.executable,
        str(_DRIVER),
        "--seed", str(seed),
        "--rate", str(spec["rate"]),
        "--seconds", str(seconds),
        "--connections", str(_CONNECTIONS),
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        limit=1 << 24,  # the report is one line with every bid's sample
    )
    try:
        if await _line(proc, 120) != b"started":
            raise RuntimeError("driver did not start")
        setups = []
        for _ in range(_SETUP_REPEATS):
            if server is not None:
                await _command(proc, "close", b"closed")
                await server.stop()
            wal_dirs.append(tempfile.mkdtemp(dir=OUT, prefix="live-"))
            started = time.perf_counter()
            server = GatewayServer(_config(spec, wal_dirs[-1]))
            await server.start()
            await _command(proc, f"connect {server.address[1]}", b"ready")
            setups.append(time.perf_counter() - started)

        if tracer is not None:
            tracer.install()
        began = time.perf_counter()
        try:
            proc.stdin.write(b"go\n")
            await proc.stdin.drain()
            report = json.loads(await _line(proc, seconds + 90))
            await proc.wait()
            await server.stop()
        finally:
            wall = time.perf_counter() - began
            if tracer is not None:
                tracer.uninstall()
        return setups, server, report, wall
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        if server is not None:
            await server.stop()
        for wal_dir in wal_dirs:
            shutil.rmtree(wal_dir, ignore_errors=True)


def run(workload: str, seed: int, seconds: float, size: dict, tracer=None) -> Outcome:
    spec = WORKLOADS[workload]
    seconds = seconds * size["scale"]
    setups, server, load, wall = asyncio.run(_session(spec, seed, seconds, tracer))

    out = Outcome(wall=wall)
    counters = server.counters
    submitted = load["submitted"]
    out.check(submitted > 0, "the driver sent no bids")
    out.check(
        load["accepted"] + load["rejected"] + load["shed"] + load["errored"] + load["lost"]
        == submitted,
        "driver: accepted + rejected + shed + errored + lost != submitted",
    )
    out.check(
        counters.accepted + counters.rejected + counters.shed + counters.errored
        == counters.submitted,
        "gateway: accepted + rejected + shed + errored != submitted",
    )
    for field in ("submitted", "accepted", "rejected", "shed", "errored"):
        out.check(
            load[field] == getattr(counters, field),
            f"{field}: driver saw {load[field]}, gateway counted {getattr(counters, field)}",
        )
    out.check(load["errored"] == 0 and load["lost"] == 0, "errored or lost bids")
    out.check(
        all(bye is not None and bye["reason"] == "eof" for bye in load["byes"]),
        f"a connection ended without its bye: {load['byes']}",
    )
    for result in server.cycles:
        out.check(result.profit >= -1e-9, f"cycle {result.cycle}: negative profit")
    out.check(
        load["lateness_p99_ms"] <= LATENESS_P99_BOUND_MS,
        f"driver ran late: p99 {load['lateness_p99_ms']:.1f} ms "
        f"(bound {LATENESS_P99_BOUND_MS} ms); the run is invalid",
    )

    profit = sum(result.profit for result in server.cycles)
    latencies = [lat for lat, _ in load["samples"]]
    answered = [lat for lat, verdict in load["samples"] if verdict != "shed"]
    out.attempted = submitted
    out.failed = load["shed"] + load["errored"] + load["lost"]
    out.counters = {
        "shed": counters.shed,
        "errored": counters.errored,
        "breaker_opens": server.telemetry.breaker_opens,
    }
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "profit_share": (profit / load["offered_value"], "ratio"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, TAIL_PERCENTILE) * 1e3, "ms"),
        "decisions_per_s": (len(answered) / load["duration_s"], "1/s"),
        "on_time_share": (sum(lat <= ON_TIME_S for lat in answered) / submitted, "ratio"),
    }
    out.extra = {
        "bids": (submitted, "count"),
        "profit": (profit, "price"),
        "offered_value": (load["offered_value"], "price"),
        "cycles": (len(server.cycles), "count"),
        "tail_percentile": (TAIL_PERCENTILE, "pct"),
        "driver.lateness_p99_ms": (load["lateness_p99_ms"], "ms"),
        "driver.lateness_max_ms": (load["lateness_max_ms"], "ms"),
    }
    return out
