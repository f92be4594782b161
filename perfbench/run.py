"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plan-b4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --smoke                   # tiny sizes, all names

Every figure goes to standard output as one JSON record per line
(``{"record": "metric", "workload", "seed", "name", "value", "unit", ...}``),
and the last line is the result object ``{"correct", "attempted",
"failed", "metrics"}``.  Standard output is reserved for these lines: file
descriptor 1 is pointed at standard error for the whole run, so what the
solver library prints there cannot split or corrupt a record.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each, untraced and then traced, and
reports the per-layer metrics of the traced pass plus the tracing
overhead (traced minus untraced median latency).  The spans are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``.

Any failed correctness check makes the result ``"correct": false`` and
the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The seed used when none is given.
DEFAULT_SEED = 1
#: Kept out of every run made while the benchmark was built: recheck a
#: claimed gain on it to see that it holds on fresh inputs.
HELD_OUT_SEED = 4242

WORKLOADS = ("plan-b4", "serve-b4", "live-b4", "live-sharded-b4")


def _emit(stream, record: dict) -> None:
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def _expected_names() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _measure(workload: str, seed: int, seconds: float, size: str, tracer=None):
    if workload == "plan-b4":
        import plan

        return plan.run(seed, seconds, plan.SIZES[size], tracer)
    if workload == "serve-b4":
        import serve

        return serve.run(seed, seconds, serve.SIZES[size], tracer)
    import live

    return live.run(workload, seed, seconds, live.SIZES[size], tracer)


def run_workload(workload, seed, seconds, trace, size, stream) -> dict:
    """Measure one workload, print its records, and return its result."""
    from common import OUT

    if trace:
        from spans import LAYERS, Tracer, layer_metrics

        base = _measure(workload, seed, seconds / 2, size)
        tracer = Tracer()
        outcome = _measure(workload, seed, seconds / 2, size, tracer)
        metrics = layer_metrics(tracer.spans, outcome.wall, outcome.counters)
        traced_ms = outcome.metrics["latency_p50_ms"][0]
        metrics["trace.overhead_ms"] = (traced_ms - base.metrics["latency_p50_ms"][0], "ms")
        selves = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        outcome.check(
            abs(selves + metrics["trace.other_s"][0] - outcome.wall) <= 1e-6 * max(1.0, outcome.wall),
            "layer self times plus other_s do not add up to the wall clock",
        )
        tracer.dump(OUT / f"spans-{workload}-{seed}.jsonl")
        outcome.errors = base.errors + outcome.errors
        outcome.attempted += base.attempted
        outcome.failed += base.failed
        kind = "per_layer"
    else:
        outcome = _measure(workload, seed, seconds, size)
        metrics = outcome.metrics
        kind = "end_to_end"

    expected = _expected_names()[kind]
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    outcome.check(
        emitted == expected,
        f"{kind} metrics differ from BENCHMARK.json: "
        f"missing {sorted(set(expected) - set(emitted))}, "
        f"extra {sorted(set(emitted) - set(expected))}, "
        f"unit changes {sorted(n for n in expected if n in emitted and emitted[n] != expected[n])}",
    )

    tags = {"workload": workload, "seed": seed}
    for name, (value, unit) in metrics.items():
        _emit(stream, {"record": "metric", **tags, "kind": kind, "name": name,
                       "value": value, "unit": unit})
    for name, (value, unit) in outcome.extra.items():
        _emit(stream, {"record": "metric", **tags, "kind": "extra", "name": name,
                       "value": value, "unit": unit})
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    _emit(stream, {"record": "failures", **tags, "attempted": outcome.attempted,
                   "failed": outcome.failed, "share": share})
    for error in outcome.errors:
        print(f"perfbench: {workload}: {error}", file=sys.stderr)
    return {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _combine(results: dict[str, dict]) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{workload}.{name}": metric
            for workload, r in results.items()
            for name, metric in r["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
        "for rechecking a claimed gain on fresh inputs)",
    )
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload at a tiny size, untraced and traced",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # Records go to a private copy of standard output; descriptor 1 itself
    # is pointed at standard error so that stray solver prints land there.
    stream = os.fdopen(os.dup(1), "w")
    sys.stdout.flush()
    os.dup2(2, 1)

    if args.smoke:
        results = {
            f"{workload}.trace{trace}": run_workload(
                workload, args.seed, 2.0, trace, "smoke", stream
            )
            for workload in WORKLOADS
            for trace in (0, 1)
        }
        result = _combine(results)
    elif args.workload == "all":
        result = _combine(
            {
                workload: run_workload(
                    workload, args.seed, args.seconds, args.trace, "full", stream
                )
                for workload in WORKLOADS
            }
        )
    else:
        result = run_workload(
            args.workload, args.seed, args.seconds, args.trace, "full", stream
        )
    _emit(stream, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
