"""In-memory span tracing around the public calls of each layer.

A :class:`Tracer` replaces a public function or method *at the name its
callers bind* (``repro.core.metis.solve_maa``, not only
``repro.core.maa.solve_maa``) with a wrapper that records one span per
call: name, start, end, parent span and root span.  Everything runs on
one thread (the benchmark process; the gateway's event loop is on that
thread too), so the open spans form a stack and the parent is its top.
Spans of one instance, cycle or window share the id of their root span.

Nothing under ``src/`` knows about tracing: :func:`install` patches from
the outside and :meth:`Tracer.uninstall` restores every original.

:func:`layer_metrics` turns the spans of one traced pass into the
per-layer metrics named in ``BENCHMARK.json``.  A span's self time is
its duration minus its children's; the self times of all spans plus
``trace.other_s`` (time covered by no span) equal the pass's wall clock.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

from common import percentile

#: Span-name prefix -> layer (the repository module that owns the call).
LAYER_OF = {
    "metis": "core.metis",
    "maa": "core.metis",
    "taa": "core.metis",
    "estimator": "core.metis",
    "fastform": "core.metis",
    "lp": "lp",
    "online": "core.online",
    "service": "service",
    "cache": "service",
    "journal": "state",
    "snapshot": "state",
    "ladder": "resilience",
    "gateway": "gateway",
    "shard": "shard",
    "ledger": "decomp",
    "net": "net",
}

LAYERS = (
    "gateway",
    "service",
    "core.online",
    "core.metis",
    "lp",
    "resilience",
    "state",
    "decomp",
    "shard",
    "net",
)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "root", "attrs")

    def __init__(self, sid: int, name: str, start: float, parent, root) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "root": self.root,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans for wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, *, attrs=None, pre=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``pre(args)`` runs before the call and ``attrs(args, result, pre)``
        after it; the dict ``attrs`` returns is stored on the span.
        """
        # The raw class attribute keeps a staticmethod's descriptor, so it
        # is both what the wrapper must mimic and what uninstall restores.
        raw = vars(owner)[attr]
        original = getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(
                len(spans),
                name,
                clock(),
                None if parent is None else parent.sid,
                len(spans) if parent is None else parent.root,
            )
            spans.append(span)
            stack.append(span)
            before = pre(args) if pre is not None else None
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs = {"error": type(exc).__name__}
                raise
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result, before)
            return result

        if isinstance(raw, (staticmethod, classmethod)):
            traced = staticmethod(traced)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every layer's public calls (see :func:`install`)."""
        install(self)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def _status(result) -> dict:
    return {"status": result.status.value}


def install(tracer: Tracer) -> None:
    """Wrap the public call of every layer at the names its callers bind."""
    mod = importlib.import_module

    metis = mod("repro.core.metis")
    tracer.wrap(
        metis.Metis, "solve", "metis.solve",
        attrs=lambda a, r, p: {"rounds": r.num_rounds},
    )
    tracer.wrap(metis, "solve_maa", "maa.solve")
    tracer.wrap(metis, "solve_taa", "taa.solve")
    tracer.wrap(metis, "improve_paths", "maa.improve")
    tracer.wrap(metis, "prune_unprofitable", "metis.prune")
    tracer.wrap(mod("repro.core.estimator").VectorizedEstimator, "walk", "estimator.walk")
    compiler = mod("repro.core.fastform").FormulationCompiler
    for method in ("compile_rl_spm", "compile_bl_spm", "compile_spm"):
        tracer.wrap(compiler, method, "fastform.compile")

    for caller in (
        "repro.core.maa",
        "repro.core.taa",
        "repro.core.online",
        "repro.resilience.ladder",
        "repro.decomp.solver",
    ):
        tracer.wrap(mod(caller), "solve_compiled_raw", "lp.solve", attrs=lambda a, r, p: _status(r))
    tracer.wrap(
        mod("repro.lp.warmstart").ResolveSession,
        "solve",
        "lp.session",
        pre=lambda a: a[0].stats.cold_solves,
        attrs=lambda a, r, p: {
            "cold": a[0].stats.cold_solves > p,
            "status": r.status.value,
        },
    )

    online = mod("repro.core.online")
    tracer.wrap(
        online.IncrementalBatchCompiler,
        "compile_batch",
        "online.compile_batch",
        attrs=lambda a, r, p: {
            "size": len(a[1]),
            "rows": int(r[0].a_matrix.shape[0]),
            "nnz": int(r[0].a_matrix.nnz),
        },
    )
    for caller in ("repro.service.broker", "repro.gateway.engine", "repro.resilience.ladder"):
        tracer.wrap(mod(caller), "solve_batch", "online.solve_batch")
        tracer.wrap(mod(caller), "commit_decision", "online.commit")

    tracer.wrap(mod("repro.service.broker"), "run_cycle", "service.run_cycle")
    cache = mod("repro.service.cache").DecisionCache
    tracer.wrap(cache, "make_key", "cache.make_key")
    tracer.wrap(cache, "get", "cache.get", attrs=lambda a, r, p: {"hit": r is not None})
    tracer.wrap(cache, "put", "cache.put")

    journal = mod("repro.state.journal").Journal
    tracer.wrap(journal, "append", "journal.append", attrs=lambda a, r, p: {"bytes": r})
    tracer.wrap(journal, "commit", "journal.commit")
    tracer.wrap(mod("repro.state.snapshot").SnapshotStore, "publish", "snapshot.publish")

    tracer.wrap(
        mod("repro.resilience.ladder").DegradationLadder,
        "decide",
        "ladder.decide",
        attrs=lambda a, r, p: {"rung": r.rung},
    )

    tracer.wrap(mod("repro.gateway.server"), "parse_bid_line", "gateway.parse")
    tracer.wrap(
        mod("repro.gateway.engine").LiveCycleEngine,
        "decide",
        "gateway.engine_decide",
        attrs=lambda a, r, p: {"size": len(a[1])},
    )
    tracer.wrap(
        mod("repro.shard.live").ShardedLiveEngine,
        "decide",
        "shard.window_decide",
        attrs=lambda a, r, p: {"size": len(a[1])},
    )
    ledger = mod("repro.decomp.ledger").BandwidthLedger
    tracer.wrap(ledger, "post", "ledger.post")
    tracer.wrap(
        ledger, "update_prices", "ledger.update_prices",
        attrs=lambda a, r, p: {"violation": r},
    )

    tracer.wrap(mod("repro.net.topology").Topology, "candidate_paths", "net.paths")


def layer_of(name: str) -> str:
    return LAYER_OF[name.split(".", 1)[0]]


def layer_metrics(spans: list[Span], wall: float, counters: dict) -> dict:
    """The per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    ``counters`` carries what the workload read from the program's own
    objects after the pass: ``shed``, ``errored`` and ``breaker_opens``.
    """
    child_time: dict[int, float] = defaultdict(float)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
            children[span.parent].append(span)
    by_name: dict[str, list[Span]] = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for span in spans:
        by_name[span.name].append(span)
        layer_self[layer_of(span.name)] += span.duration - child_time[span.sid]
        if span.parent is None:
            covered += span.duration

    def total(name: str) -> float:
        return sum(span.duration for span in by_name[name])

    def self_total(name: str) -> float:
        return sum(span.duration - child_time[span.sid] for span in by_name[name])

    def attr_values(name: str, key: str) -> list:
        return [span.attrs[key] for span in by_name[name] if span.attrs and key in span.attrs]

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics["trace.other_s"] = (wall - covered, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.spans"] = (len(spans), "count")

    # core.metis
    metrics["maa.self_s"] = (self_total("maa.solve"), "s")
    metrics["taa.self_s"] = (self_total("taa.solve"), "s")
    metrics["estimator.walk_s"] = (total("estimator.walk"), "s")
    metrics["improve.s"] = (total("maa.improve"), "s")
    metrics["prune.s"] = (total("metis.prune"), "s")
    metrics["fastform.compile_s"] = (total("fastform.compile"), "s")
    metrics["metis.rounds"] = (sum(attr_values("metis.solve", "rounds")), "count")

    # lp: a backend dispatch is every solve_compiled_raw call plus every
    # session solve that missed both reuse tiers.
    dispatches = by_name["lp.solve"] + [
        span for span in by_name["lp.session"] if span.attrs and span.attrs.get("cold")
    ]
    dispatch_ms = [span.duration * 1e3 for span in dispatches]
    statuses = [span.attrs["status"] for span in dispatches if span.attrs and "status" in span.attrs]
    sessions = by_name["lp.session"]
    metrics["lp.solves"] = (len(dispatches), "count")
    metrics["lp.solve_s"] = (sum(dispatch_ms) / 1e3, "s")
    metrics["lp.solve_p50_ms"] = (percentile(dispatch_ms, 50), "ms")
    metrics["lp.solve_p99_ms"] = (percentile(dispatch_ms, 99), "ms")
    for status in ("optimal", "feasible", "time_limit"):
        metrics[f"lp.{status}"] = (statuses.count(status), "count")
    warm = sum(1 for span in sessions if span.attrs and not span.attrs.get("cold"))
    metrics["lp.warm.hit_ratio"] = (warm / len(sessions) if sessions else 0.0, "ratio")

    # core.online
    sizes = attr_values("online.compile_batch", "size")
    rows = attr_values("online.compile_batch", "rows")
    nnz = attr_values("online.compile_batch", "nnz")
    metrics["online.assemble_s"] = (total("online.compile_batch"), "s")
    metrics["online.solve_batch_s"] = (total("online.solve_batch"), "s")
    metrics["online.commit_s"] = (total("online.commit"), "s")
    metrics["online.batches"] = (len(sizes), "count")
    metrics["online.batch_rows"] = (sum(rows) / len(rows) if rows else 0.0, "rows")
    metrics["online.batch_nnz"] = (sum(nnz) / len(nnz) if nnz else 0.0, "nnz")
    metrics["online.batch_p50"] = (percentile(sizes, 50), "bids")
    metrics["online.batch_max"] = (max(sizes, default=0), "bids")

    # service
    lookups = attr_values("cache.get", "hit")
    metrics["cache.lookups"] = (len(lookups), "count")
    metrics["cache.hit_ratio"] = (sum(lookups) / len(lookups) if lookups else 0.0, "ratio")
    metrics["cache.key_s"] = (total("cache.make_key"), "s")
    metrics["service.cycle_self_s"] = (self_total("service.run_cycle"), "s")

    # state
    commit_ms = [span.duration * 1e3 for span in by_name["journal.commit"]]
    metrics["journal.appends"] = (len(by_name["journal.append"]), "count")
    metrics["journal.bytes"] = (sum(attr_values("journal.append", "bytes")), "bytes")
    metrics["journal.append_s"] = (total("journal.append"), "s")
    metrics["journal.commit_p50_ms"] = (percentile(commit_ms, 50), "ms")
    metrics["journal.commit_p99_ms"] = (percentile(commit_ms, 99), "ms")
    metrics["snapshot.publish_s"] = (total("snapshot.publish"), "s")

    # resilience
    rungs = attr_values("ladder.decide", "rung")
    metrics["ladder.decide_s"] = (total("ladder.decide"), "s")
    for rung in ("exact", "incumbent", "lp_round", "greedy"):
        metrics[f"ladder.{rung}"] = (rungs.count(rung), "count")
    metrics["ladder.exact_share"] = (rungs.count("exact") / len(rungs) if rungs else 0.0, "ratio")
    metrics["breaker.opens"] = (counters.get("breaker_opens", 0), "count")

    # gateway: a window decide is the outermost decide span of a window.
    windows = by_name["shard.window_decide"] or [
        span for span in by_name["gateway.engine_decide"] if span.parent is None
    ]
    window_ms = [span.duration * 1e3 for span in windows]
    window_sizes = [span.attrs["size"] for span in windows if span.attrs]
    metrics["gateway.window_decide_p50_ms"] = (percentile(window_ms, 50), "ms")
    metrics["gateway.window_decide_p99_ms"] = (percentile(window_ms, 99), "ms")
    metrics["gateway.windows"] = (len(windows), "count")
    metrics["gateway.window_batch_p50"] = (percentile(window_sizes, 50), "bids")
    metrics["gateway.window_batch_max"] = (max(window_sizes, default=0), "bids")
    busy = covered / wall if windows and wall > 0 else 0.0
    metrics["gateway.loop_busy_share"] = (busy, "ratio")
    metrics["gateway.parse_s"] = (total("gateway.parse"), "s")
    metrics["gateway.shed"] = (counters.get("shed", 0), "count")
    metrics["gateway.errored"] = (counters.get("errored", 0), "count")

    # decomp / shard
    violations = attr_values("ledger.update_prices", "violation")
    metrics["ledger.post_s"] = (total("ledger.post"), "s")
    metrics["ledger.price_updates"] = (len(by_name["ledger.update_prices"]), "count")
    metrics["ledger.max_violation"] = (max(violations, default=0.0), "units")
    shard_decides = [
        span
        for window in by_name["shard.window_decide"]
        for span in children[window.sid]
        if span.name == "gateway.engine_decide"
    ]
    metrics["shard.decide_s"] = (sum(span.duration for span in shard_decides), "s")
    ratios = []
    for window in by_name["shard.window_decide"]:
        parts = [s.duration for s in children[window.sid] if s.name == "gateway.engine_decide"]
        if len(parts) >= 2:
            ratios.append(max(parts) / (sum(parts) / len(parts)))
    metrics["shard.imbalance"] = (sum(ratios) / len(ratios) if ratios else 0.0, "ratio")

    # net
    metrics["net.paths_s"] = (total("net.paths"), "s")
    metrics["net.paths_calls"] = (len(by_name["net.paths"]), "count")
    return metrics
