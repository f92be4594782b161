"""Command-line entry point: ``python -m repro`` / ``metis-repro``.

Subcommands regenerate the paper's figures::

    metis-repro fig3 --requests 50 100 150 --seed 7
    metis-repro fig4a
    metis-repro fig4b --roundings 200
    metis-repro fig4cd
    metis-repro fig5
    metis-repro all --output results.md

Figure data is printed as aligned tables; ``--output`` additionally writes
a Markdown report.

``serve`` instead runs the long-running broker of :mod:`repro.service`
over simulated billing cycles and prints its per-cycle ledger and
telemetry summary::

    metis-repro serve --topology b4 --duration 288 --cycles 2 --workers 4

With ``--wal`` the broker journals decisions for crash recovery and
``--resume`` continues a killed run bit-identically (see repro.state)::

    metis-repro serve --topology b4 --cycles 12 --wal broker.wal --resume

``serve --listen`` runs the *live* gateway instead (repro.gateway): bids
arrive as newline-delimited JSON over TCP and billing cycles close on
wall-clock deadlines; ``loadgen`` floods such a gateway with an
open-loop bid stream and reports decisions/sec plus latency tails::

    metis-repro serve --listen 127.0.0.1:7440 --duration 12 --slot-seconds 0.5
    metis-repro loadgen --connect 127.0.0.1:7440 --bids 100000 --rate 5000

Both serve modes drain on SIGINT/SIGTERM — pending bids are decided,
the WAL is flushed and the process exits 0 (a second signal forces exit
130).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.experiments.ablations import (
    run_k_paths_ablation,
    run_limiter_ablation,
    run_seasonality_ablation,
    run_seed_stability,
    run_theta_ablation,
    run_value_model_ablation,
)
from repro.experiments import fig3, fig4, fig5
from repro.experiments.common import ExperimentConfig, ExperimentResult
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4a, run_fig4b, run_fig4cd
from repro.experiments.fig5 import run_fig5
from repro.experiments.report import render_results, write_markdown_report
from repro.util.tables import format_table

__all__ = [
    "main",
    "build_parser",
    "build_serve_parser",
    "build_loadgen_parser",
    "run_serve",
    "run_loadgen",
]

_EXPERIMENTS = ("fig3", "fig4a", "fig4b", "fig4cd", "fig5")
_ABLATIONS = (
    "ablation-theta",
    "ablation-limiter",
    "ablation-value-model",
    "ablation-k-paths",
    "ablation-seeds",
    "ablation-seasonality",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metis-repro",
        description=(
            "Reproduce the evaluation of 'Towards Maximal Service Profit in "
            "Geo-Distributed Clouds' (ICDCS 2019)"
        ),
        epilog=(
            "There are also 'serve' (the streaming broker; with --listen, "
            "the live TCP gateway) and 'loadgen' (the open-loop load "
            "harness) subcommands: metis-repro serve --help / loadgen --help"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=_EXPERIMENTS + _ABLATIONS + ("all", "ablations"),
        help="which figure or ablation to regenerate",
    )
    parser.add_argument(
        "--requests",
        type=int,
        nargs="+",
        default=None,
        metavar="K",
        help="request-count sweep (default depends on the experiment)",
    )
    parser.add_argument("--seed", type=int, default=2019, help="master seed")
    parser.add_argument(
        "--theta", type=int, default=30, help="Metis alternation rounds"
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=600.0,
        help="seconds per exact MILP solve",
    )
    parser.add_argument(
        "--roundings",
        type=int,
        default=1000,
        help="rounding repetitions for fig4b",
    )
    parser.add_argument(
        "--no-opt",
        action="store_true",
        help="fig3: skip the exact OPT solves",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="PATH",
        help="also write a Markdown report here",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render terminal line charts under each sweep table",
    )
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """The config fields the user set on the command line.

    Only these are overridden — each experiment keeps its figure-specific
    regime (topology, value model, request windows) unless explicitly
    swept.
    """
    fields = {
        "seed": args.seed,
        "theta": args.theta,
        "time_limit": args.time_limit,
    }
    if args.requests:
        fields["request_counts"] = tuple(args.requests)
    return fields


def _run(args: argparse.Namespace) -> list[ExperimentResult]:
    over = _overrides(args)
    fig4b_config = ExperimentConfig(
        **{"request_counts": (50, 100), **over}
    )
    runners = {
        "fig3": lambda: run_fig3(
            fig3.default_config(**over), include_opt=not args.no_opt
        ),
        "fig4a": lambda: run_fig4a(fig4.default_config_fig4a(**over)),
        "fig4b": lambda: run_fig4b(fig4b_config, num_roundings=args.roundings),
        "fig4cd": lambda: run_fig4cd(fig4.default_config_fig4cd(**over)),
        "fig5": lambda: run_fig5(fig5.default_config(**over)),
        "ablation-theta": lambda: run_theta_ablation(),
        "ablation-limiter": lambda: run_limiter_ablation(),
        "ablation-value-model": lambda: run_value_model_ablation(),
        "ablation-k-paths": lambda: run_k_paths_ablation(),
        "ablation-seeds": lambda: run_seed_stability(),
        "ablation-seasonality": lambda: run_seasonality_ablation(),
    }
    if args.experiment == "all":
        return [runners[name]() for name in _EXPERIMENTS]
    if args.experiment == "ablations":
        return [runners[name]() for name in _ABLATIONS]
    return [runners[args.experiment]()]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metis-repro serve",
        description=(
            "Run the profit-maximizing broker over simulated billing cycles "
            "(streaming sealed-bid admission, see repro.service)"
        ),
    )
    parser.add_argument(
        "--topology",
        choices=("b4", "sub-b4", "abilene"),
        default="b4",
        help="WAN topology served",
    )
    parser.add_argument(
        "--duration",
        type=int,
        default=12,
        metavar="T",
        help="slots per billing cycle (e.g. 288 five-minute slots per day)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        default=None,
        help=(
            "number of rolling billing cycles (default 1; with --listen, "
            "0 or unset serves until a signal)"
        ),
    )
    parser.add_argument(
        "--listen",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve the live TCP gateway on this address instead of the "
            "simulated broker (see repro.gateway)"
        ),
    )
    parser.add_argument(
        "--slot-seconds",
        type=float,
        default=None,
        metavar="S",
        help="gateway only: real seconds per billing slot (default 1)",
    )
    parser.add_argument(
        "--conn-buffer",
        type=int,
        default=None,
        metavar="N",
        help="gateway only: per-connection response buffer (slow readers "
        "beyond it are disconnected; default 4096)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=1,
        metavar="W",
        help="slots per admission window (batch cadence)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="K",
        help="broker only: bid arrivals per cycle (synthetic source; "
        "default 100)",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="replay a recorded trace (.json or .jsonl) instead of generating",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="broker only: master seed (default 2019)"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "shard the broker across N price-coordinated workers "
            "(see repro.shard; 1 = the monolithic broker)"
        ),
    )
    parser.add_argument(
        "--partition",
        choices=("hash", "region"),
        default=None,
        help=(
            "request-to-shard rule: source-DC hash (the default) or region "
            "affinity; needs --shards > 1"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="solver worker processes (>= 2 enables the pool)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="decision-cache entries (0 disables)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=None,
        metavar="N",
        help="split admission windows into MILPs of at most N bids",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        metavar="N",
        help="admission-queue bound; bids beyond it are shed",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="seconds per batch MILP solve (default 60; 1 with --listen)",
    )
    parser.add_argument(
        "--cycle-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock deadline per billing cycle; solves get shrinking "
            "slices of it and degrade down the resilience ladder "
            "(exact > incumbent > lp_round > greedy) when it runs short"
        ),
    )
    parser.add_argument(
        "--breaker-failures",
        type=int,
        default=0,
        metavar="N",
        help=(
            "open a circuit breaker after N consecutive solver failures "
            "(0 disables; degraded rungs answer while it is open)"
        ),
    )
    parser.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="seconds an open breaker waits before a half-open probe",
    )
    parser.add_argument(
        "--telemetry",
        type=str,
        default=None,
        metavar="PATH",
        help="dump the JSON telemetry report here",
    )
    parser.add_argument(
        "--wal",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "journal every decision to this write-ahead log "
            "(enables crash recovery, see repro.state)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="recover committed cycles from --wal before serving the rest",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=1,
        metavar="N",
        help="publish an atomic state snapshot every N committed cycles",
    )
    parser.add_argument(
        "--fsync",
        choices=("never", "batch", "always"),
        default="batch",
        help="WAL durability: fsync never, per cycle commit, or per record",
    )
    return parser


def _parse_listen(value: str, flag: str = "--listen") -> tuple[str, int]:
    """Split a ``HOST:PORT`` address (IPv6 hosts may be bracketed)."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"{flag} must be HOST:PORT, got {value!r}")
    return host.strip("[]") or "127.0.0.1", int(port)


def _install_drain_signals(on_first) -> None:
    """First SIGINT/SIGTERM drains via ``on_first``; the second exits 130."""
    import os
    import signal

    seen = {"count": 0}

    def handler(signum, frame) -> None:
        seen["count"] += 1
        if seen["count"] >= 2:
            os._exit(130)
        on_first()

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


def _serve_fields(args: argparse.Namespace) -> dict:
    """The config fields both serving fronts read from the same flags.

    The cycle shape, the decision cache, durability, the resilience
    levers and, when sharded, ``shards``/``partition`` (a monolithic
    ``BrokerConfig`` has neither).  Each front adds its own fields and
    defaults.
    """
    fields = dict(
        topology=args.topology,
        slots_per_cycle=args.duration,
        window=args.window,
        cache_size=args.cache_size,
        wal_path=args.wal,
        snapshot_every=args.snapshot_every,
        fsync=args.fsync,
        cycle_budget=args.cycle_budget,
        breaker_failures=args.breaker_failures,
        breaker_reset=args.breaker_reset,
    )
    if args.shards > 1:
        fields.update(shards=args.shards, partition=args.partition or "hash")
    return fields


def run_serve(argv: Sequence[str] | None = None) -> int:
    """The ``serve`` subcommand: run the broker and print its report."""
    from repro.exceptions import StateError, WorkloadError
    from repro.service import Broker, TraceSource
    from repro.service.broker import DEFAULT_TIME_LIMIT
    from repro.shard import ShardedBroker

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.resume and not args.wal:
        parser.error("--resume requires --wal")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.partition is not None and args.shards == 1:
        parser.error("--partition requires --shards > 1")
    if args.listen is not None:
        return _run_serve_live(parser, args)
    for flag, value in (
        ("--slot-seconds", args.slot_seconds),
        ("--conn-buffer", args.conn_buffer),
    ):
        if value is not None:
            parser.error(f"{flag} requires --listen")
    broker_class = ShardedBroker if args.shards > 1 else Broker
    try:
        config = broker_class.config_class(
            **_serve_fields(args),
            num_cycles=1 if args.cycles is None else args.cycles,
            requests_per_cycle=100 if args.requests is None else args.requests,
            seed=2019 if args.seed is None else args.seed,
            workers=args.workers,
            max_batch=args.max_batch,
            queue_capacity=args.queue_capacity,
            time_limit=(
                DEFAULT_TIME_LIMIT if args.time_limit is None else args.time_limit
            ),
        )
        source = TraceSource(args.trace) if args.trace else None
    except (ValueError, OSError, WorkloadError) as exc:
        parser.error(str(exc))
    broker = broker_class(config, source=source)
    # A first SIGINT/SIGTERM stops at the next cycle boundary — the WAL
    # commit + snapshot there make the exit durable — and still exits 0
    # with the partial report; a second signal forces exit 130.
    _install_drain_signals(broker.request_stop)
    try:
        report = broker.run(resume=args.resume)
    except StateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    headers = [
        "cycle", "requests", "accepted", "declined", "shed",
        "revenue", "cost", "profit", "wall_s",
    ]
    rows = [
        [
            c.cycle, c.num_requests, c.accepted, c.declined, c.shed,
            c.revenue, c.cost, c.profit, c.wall_seconds,
        ]
        for c in report.cycles
    ]
    print(
        format_table(
            headers,
            rows,
            float_fmt=".3f",
            title=(
                f"serve: {args.topology}, {config.num_cycles} cycle(s) "
                f"x {args.duration} slots"
            ),
        )
    )
    summary = report.summary()
    print(
        f"\ntotal profit {summary['profit']:.3f} "
        f"({summary['accepted']}/{summary['decisions']} bids accepted, "
        f"{summary['shed']} shed)"
    )
    print(
        f"throughput {summary['decisions_per_sec']:.1f} decisions/sec, "
        f"p50 {summary['latency_p50_ms']:.1f} ms, "
        f"p95 {summary['latency_p95_ms']:.1f} ms per batch"
    )
    print(
        f"cache hit rate {summary['cache_hit_rate']:.0%} "
        f"({summary['cache_hits']} hits / {summary['cache_misses']} solves), "
        f"solver time {summary['solver_seconds']:.2f}s "
        f"of {summary['wall_seconds']:.2f}s wall"
    )
    if args.shards > 1:
        print(
            f"shards {summary['num_shards']} ({config.partition}): "
            f"{summary['ledger_price_iterations']} price iteration(s), "
            f"{summary['reconciliation_evictions']} eviction(s), "
            f"concurrency {summary['shard_concurrency']}"
        )
    if args.cycle_budget is not None or args.breaker_failures:
        rungs = summary.get("rung_counts", {})
        rung_line = ", ".join(
            f"{name} {rungs.get(name, 0)}"
            for name in ("exact", "incumbent", "lp_round", "greedy")
        )
        print(
            f"resilience: {rung_line}; "
            f"breaker opens {summary.get('breaker_opens', 0)}, "
            f"backoff {summary.get('backoff_seconds', 0.0):.3f}s"
        )
    if args.wal:
        line = (
            f"wal {args.wal}: {summary['wal_bytes']} bytes "
            f"(fsync={args.fsync}), snapshots {summary['snapshot_seconds']:.3f}s"
        )
        if args.resume:
            line += f", {summary['recovered_batches']} batches recovered"
        print(line)
    if args.telemetry:
        report.dump_telemetry(args.telemetry)
        print(f"telemetry written to {args.telemetry}", file=sys.stderr)
    return 0


def _run_serve_live(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``serve --listen``: the real-time gateway of repro.gateway."""
    import asyncio
    import json

    from repro.gateway import GatewayConfig, run_gateway

    # Flags of the simulated broker the gateway has no use for: refuse
    # them rather than serve as if they had been applied.
    for flag, given in (
        ("--workers", args.workers != 0),
        ("--trace", bool(args.trace)),
        ("--requests", args.requests is not None),
        ("--seed", args.seed is not None),
    ):
        if given:
            parser.error(f"{flag} is not supported with --listen")
    # Unset limits keep the gateway's real-time defaults.
    overrides = {
        name: value
        for name, value in (
            ("time_limit", args.time_limit),
            ("queue_capacity", args.queue_capacity),
            ("max_batch", args.max_batch),
        )
        if value is not None
    }
    try:
        host, port = _parse_listen(args.listen)
        config = GatewayConfig(
            **_serve_fields(args),
            **overrides,
            host=host,
            port=port,
            slot_seconds=1.0 if args.slot_seconds is None else args.slot_seconds,
            num_cycles=args.cycles if args.cycles else None,
            conn_buffer=4096 if args.conn_buffer is None else args.conn_buffer,
            resume=args.resume,
        )
    except ValueError as exc:
        parser.error(str(exc))

    async def serve() -> "object":
        from repro.gateway import GatewayServer

        server = GatewayServer(config)
        await server.start()
        server.install_signal_handlers()
        bound_host, bound_port = server.address
        horizon = config.num_cycles if config.num_cycles else "unbounded"
        print(
            f"gateway listening on {bound_host}:{bound_port} "
            f"({args.topology}, {horizon} cycle(s) x {args.duration} slots "
            f"x {config.slot_seconds}s, window {args.window})",
            file=sys.stderr,
            flush=True,
        )
        await server.wait_closed()
        return server

    server = asyncio.run(serve())
    rows = [
        [
            c.cycle, c.num_requests, c.accepted, c.declined, c.shed,
            c.revenue, c.cost, c.profit, c.wall_seconds,
        ]
        for c in server.cycles
    ]
    if rows:
        print(
            format_table(
                [
                    "cycle", "requests", "accepted", "declined", "shed",
                    "revenue", "cost", "profit", "wall_s",
                ],
                rows,
                float_fmt=".3f",
                title=f"gateway: {args.topology}, {len(rows)} cycle(s) served",
            )
        )
    report = server.report()
    gw = report["gateway"]
    lat = report["admission_latency"]
    print(
        f"\n{gw['submitted']} bids: {gw['accepted']} accepted, "
        f"{gw['rejected']} rejected, {gw['shed']} shed, "
        f"{gw['errored']} errored ({report['bids_per_sec']:.1f} bids/sec)"
    )
    print(
        f"admission latency p50 {lat['p50_ms']:.1f} ms, "
        f"p99 {lat['p99_ms']:.1f} ms, p999 {lat['p999_ms']:.1f} ms"
    )
    if args.wal:
        print(f"wal {args.wal}: {report['wal_bytes']} bytes (fsync={args.fsync})")
    if args.telemetry:
        with open(args.telemetry, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"telemetry written to {args.telemetry}", file=sys.stderr)
    return 0


def build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metis-repro loadgen",
        description=(
            "Flood a running 'serve --listen' gateway with an open-loop "
            "bid stream and report throughput + admission-latency tails"
        ),
    )
    parser.add_argument(
        "--connect",
        type=str,
        default="127.0.0.1:7440",
        metavar="HOST:PORT",
        help="gateway address",
    )
    parser.add_argument(
        "--bids", type=int, default=10_000, metavar="N", help="bids to submit"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=1000.0,
        metavar="R",
        help="mean arrival rate, bids/sec",
    )
    parser.add_argument(
        "--process",
        choices=("constant", "poisson", "burst"),
        default="poisson",
        help="arrival process shape",
    )
    parser.add_argument(
        "--burst-period",
        type=float,
        default=1.0,
        metavar="S",
        help="burst process: seconds per on/off period",
    )
    parser.add_argument(
        "--burst-duty",
        type=float,
        default=0.2,
        metavar="F",
        help="burst process: fraction of each period spent bursting",
    )
    parser.add_argument(
        "--connections", type=int, default=4, help="parallel TCP connections"
    )
    parser.add_argument("--seed", type=int, default=2019, help="master seed")
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="replay a recorded trace instead of synthesizing bids",
    )
    parser.add_argument(
        "--report",
        type=str,
        default=None,
        metavar="PATH",
        help="dump the JSON load report here",
    )
    return parser


def run_loadgen(argv: Sequence[str] | None = None) -> int:
    """The ``loadgen`` subcommand: drive a live gateway, print the report."""
    import asyncio
    import itertools
    import json

    from repro.exceptions import GatewayError, WorkloadError
    from repro.loadgen import LoadGenerator, make_arrivals, probe_gateway, synthesize_bids
    from repro.service.broker import _make_topology
    from repro.service.ingest import TraceSource

    parser = build_loadgen_parser()
    args = parser.parse_args(argv)
    try:
        host, port = _parse_listen(args.connect, flag="--connect")
        arrivals = make_arrivals(
            args.process,
            args.rate,
            seed=args.seed,
            period=args.burst_period,
            duty=args.burst_duty,
        )
    except ValueError as exc:
        parser.error(str(exc))

    async def drive():
        hello = await probe_gateway(host, port)
        if args.trace:
            trace = TraceSource(args.trace).trace
            bids = itertools.islice(
                itertools.cycle(trace), args.bids or len(trace)
            )
        else:
            topology = _make_topology(str(hello["topology"]).lower())
            bids = synthesize_bids(
                topology,
                num_bids=args.bids,
                num_slots=int(hello["slots_per_cycle"]),
                seed=args.seed,
            )
        generator = LoadGenerator(
            host, port, arrivals=arrivals, connections=args.connections
        )
        return hello, await generator.run(bids)

    try:
        hello, report = asyncio.run(drive())
    except (ConnectionError, OSError, GatewayError, WorkloadError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat = report.latency.summary()
    print(
        f"loadgen -> {host}:{port} ({hello['topology']}, "
        f"{hello['slots_per_cycle']} slots x {hello['slot_seconds']}s): "
        f"{args.process} arrivals at {args.rate:.0f} bids/sec "
        f"over {report.connections} connection(s)"
    )
    print(
        f"{report.submitted} submitted: {report.accepted} accepted, "
        f"{report.rejected} rejected, {report.shed} shed, "
        f"{report.errored} errored, {report.lost} lost "
        f"in {report.duration_seconds:.2f}s "
        f"({report.decisions_per_sec:.1f} decisions/sec)"
    )
    print(
        f"end-to-end latency p50 {lat['p50_ms']:.1f} ms, "
        f"p99 {lat['p99_ms']:.1f} ms, p999 {lat['p999_ms']:.1f} ms "
        f"(max {lat['max_ms']:.1f} ms)"
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.report}", file=sys.stderr)
    if not report.reconciles():
        print(
            "error: accounting identity violated "
            f"(responded {report.responded} + lost {report.lost} "
            f"!= submitted {report.submitted})",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "loadgen":
        return run_loadgen(argv[1:])
    args = build_parser().parse_args(argv)
    results = _run(args)
    print(render_results(results, charts=args.chart))
    if args.output:
        write_markdown_report(
            results,
            args.output,
            title="Metis reproduction — experiment run",
        )
        print(f"\nreport written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
