"""Service telemetry: per-batch counters, latency percentiles, JSON dumps.

Every admission batch the broker decides produces one :class:`BatchRecord`
(accepted/declined/shed counts, revenue, incremental bandwidth cost,
solver wall-time, cache hit).  :class:`TelemetryCollector` aggregates the
records of a whole run into the summary every perf-oriented PR needs as a
baseline: sustained decisions/sec, p50/p95/max decision latency, cache hit
rate, and the profit ledger — and serializes it to JSON so runs can be
diffed across commits.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import math

import numpy as np

__all__ = ["BatchRecord", "LatencyHistogram", "TelemetryCollector"]


class LatencyHistogram:
    """A log-bucketed latency histogram with O(1) recording.

    Buckets are spaced geometrically (``growth`` per bucket, default ~9%)
    between ``min_seconds`` and ``max_seconds``, so the relative
    quantile error is bounded by one bucket width no matter how many
    samples land — the structure every latency-reporting path (the
    gateway's admission loop, the load generator's client-side clock)
    shares instead of keeping per-sample arrays for millions of bids.

    ``percentile`` answers from cumulative bucket counts using the bucket
    upper edge (a conservative read).  Histograms with identical bucket
    geometry can be :meth:`merge`\\ d, and the dict round-trip
    (:meth:`to_dict` / :meth:`from_dict`) is what benchmark artifacts
    embed.
    """

    def __init__(
        self,
        *,
        min_seconds: float = 1e-6,
        max_seconds: float = 300.0,
        growth: float = 1.09,
    ) -> None:
        if not (0 < min_seconds < max_seconds):
            raise ValueError(
                f"need 0 < min_seconds < max_seconds, got "
                f"{min_seconds!r}, {max_seconds!r}"
            )
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth!r}")
        self.min_seconds = min_seconds
        self.max_seconds = max_seconds
        self.growth = growth
        self._log_min = math.log(min_seconds)
        self._log_growth = math.log(growth)
        num_buckets = (
            int(math.ceil((math.log(max_seconds) - self._log_min) / self._log_growth))
            + 1
        )
        #: counts[0] is the underflow bucket (< min_seconds); the last
        #: bucket absorbs overflow (>= max_seconds).
        self.counts = np.zeros(num_buckets + 1, dtype=np.int64)
        self.total = 0
        self.sum_seconds = 0.0
        self.max_observed = 0.0

    def _bucket(self, seconds: float) -> int:
        if seconds < self.min_seconds:
            return 0
        index = int((math.log(seconds) - self._log_min) / self._log_growth) + 1
        return min(index, len(self.counts) - 1)

    def bucket_upper(self, index: int) -> float:
        """The upper edge (seconds) of bucket ``index``."""
        if index <= 0:
            return self.min_seconds
        return min(self.min_seconds * self.growth**index, self.max_seconds)

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds!r}")
        self.counts[self._bucket(seconds)] += 1
        self.total += 1
        self.sum_seconds += seconds
        if seconds > self.max_observed:
            self.max_observed = seconds

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (seconds), read from bucket edges."""
        if not (0 <= q <= 100):
            raise ValueError(f"q must be in [0, 100], got {q!r}")
        if self.total == 0:
            return 0.0
        target = math.ceil(self.total * q / 100.0)
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, max(target, 1)))
        return min(self.bucket_upper(index), self.max_observed)

    @property
    def mean(self) -> float:
        return self.sum_seconds / self.total if self.total else 0.0

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (same geometry only)."""
        if (
            other.min_seconds != self.min_seconds
            or other.max_seconds != self.max_seconds
            or other.growth != self.growth
        ):
            raise ValueError("cannot merge histograms with different buckets")
        self.counts += other.counts
        self.total += other.total
        self.sum_seconds += other.sum_seconds
        self.max_observed = max(self.max_observed, other.max_observed)

    def summary(self) -> dict[str, float]:
        """The standard latency block: p50/p99/p999 in milliseconds."""
        return {
            "samples": self.total,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.percentile(50) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
            "p999_ms": self.percentile(99.9) * 1e3,
            "max_ms": self.max_observed * 1e3,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "growth": self.growth,
            "counts": self.counts.tolist(),
            "total": self.total,
            "sum_seconds": self.sum_seconds,
            "max_observed": self.max_observed,
        }

    @classmethod
    def merged(
        cls, histograms: "list[LatencyHistogram]", **kwargs
    ) -> "LatencyHistogram":
        """One histogram folding every input (all same geometry).

        The aggregation convenience shared by the multi-connection load
        generator and the sharded broker's per-shard latency roll-up:
        ``merged([])`` is an empty histogram with the given geometry.
        """
        result = cls(**kwargs)
        for histogram in histograms:
            result.merge(histogram)
        return result

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LatencyHistogram":
        hist = cls(
            min_seconds=data["min_seconds"],
            max_seconds=data["max_seconds"],
            growth=data["growth"],
        )
        counts = np.asarray(data["counts"], dtype=np.int64)
        if counts.shape != hist.counts.shape:
            raise ValueError("histogram counts do not match bucket geometry")
        hist.counts = counts
        hist.total = int(data["total"])
        hist.sum_seconds = float(data["sum_seconds"])
        hist.max_observed = float(data["max_observed"])
        return hist

    def __repr__(self) -> str:
        return (
            f"LatencyHistogram(samples={self.total}, "
            f"p50={self.percentile(50) * 1e3:.3f}ms, "
            f"p99={self.percentile(99) * 1e3:.3f}ms)"
        )


@dataclass(frozen=True)
class BatchRecord:
    """Counters of one decided admission batch.

    ``timed_out`` marks a batch whose exact solve hit its time limit —
    under the degradation ladder the batch is still *decided* (by a lower
    rung) rather than declined wholesale.  ``suboptimal`` marks a batch
    decided without an optimality certificate (a limit-hit feasible
    incumbent, or any degraded rung).  ``rung`` records which ladder rung
    produced the decision (see :data:`repro.resilience.ladder.RUNGS`),
    ``"cache"`` for decision-cache hits and ``"shed"`` for shed-only
    records; it defaults to ``"exact"`` so WALs written before the field
    existed replay.  ``screened`` marks an exact
    decision answered by the LP relaxation bound alone (``lp_screen`` —
    certified-optimal, no integer solve dispatched); it defaults off so
    pre-screening WALs replay unchanged.
    """

    cycle: int
    window_start: int
    size: int
    accepted: int
    declined: int
    shed: int
    revenue: float
    incremental_cost: float
    solver_seconds: float
    cache_hit: bool
    timed_out: bool = False
    suboptimal: bool = False
    rung: str = "exact"
    screened: bool = False


@dataclass
class TelemetryCollector:
    """Accumulates batch records and per-cycle ledgers into one summary."""

    batches: list[BatchRecord] = field(default_factory=list)
    _cycle_profit: dict[int, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: Durability counters, set by the broker when a WAL is configured:
    #: batches replayed from snapshot+journal instead of re-solved, the
    #: journal's size after the run, time spent publishing snapshots, and
    #: how often the solver pool replaced a dead worker.
    recovered_batches: int = 0
    wal_bytes: int = 0
    snapshot_seconds: float = 0.0
    worker_restarts: int = 0
    #: Resilience counters (see :mod:`repro.resilience`): seconds spent
    #: backing off between pool-executor restarts, and the circuit
    #: breaker's lifecycle counts.
    backoff_seconds: float = 0.0
    breaker_opens: int = 0
    breaker_failures: int = 0
    breaker_probes: int = 0
    breaker_short_circuits: int = 0
    #: Sharded-serving counters (see :mod:`repro.shard`): per-shard
    #: sections keyed by shard id, plus the run totals of the bandwidth
    #: ledger's dual-price iterations and reconciliation evictions.
    shards: dict[int, dict[str, Any]] = field(default_factory=dict)
    ledger_price_iterations: int = 0
    reconciliation_evictions: int = 0
    #: Worker processes the per-round shard solves ran on (1 = serial).
    shard_concurrency: int = 1
    #: Warm-start counters (see :mod:`repro.lp.warmstart`): solves the
    #: resolve sessions answered without dispatching the backend, summed
    #: across whatever sessions the run wired in (shard price loops, the
    #: decomposed solver).  ``screened_batches`` is derived from the batch
    #: records; this one is set by the component that owns the sessions.
    warm_start_hits: int = 0

    def record_batch(self, record: BatchRecord) -> None:
        self.batches.append(record)

    def record_shard(self, shard_id: int, counters: dict[str, Any]) -> None:
        """Book (or accumulate into) one shard's counter section.

        Numeric values accumulate across calls so per-cycle shard ledgers
        fold into run totals; non-numeric values overwrite.
        """
        section = self.shards.setdefault(int(shard_id), {})
        for key, value in counters.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                section[key] = value
            else:
                section[key] = section.get(key, 0) + value

    def record_cycle(self, cycle: int, profit: float) -> None:
        """Book one finished cycle's final profit.

        ``profit`` is the *schedule-level* profit (peak-based charging over
        the whole cycle), which the per-batch incremental costs must sum to
        — the consistency the broker tests assert.  ``wall_seconds`` is set
        by the broker to the run's *elapsed* time (not the per-cycle sum),
        so ``decisions_per_sec`` reflects real sustained throughput and a
        worker pool's speedup is visible in it.
        """
        self._cycle_profit[cycle] = profit

    # ------------------------------------------------------------- aggregates

    @property
    def num_decisions(self) -> int:
        """Bids decided by a solver or cache (shed bids never reach one)."""
        return sum(record.size for record in self.batches)

    @property
    def solver_seconds(self) -> float:
        return sum(record.solver_seconds for record in self.batches)

    def rung_counts(self) -> dict[str, int]:
        """Batches decided per ladder rung (see :mod:`repro.resilience`)."""
        counts: dict[str, int] = {}
        for record in self.batches:
            counts[record.rung] = counts.get(record.rung, 0) + 1
        return counts

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of per-batch decision latency (seconds)."""
        if not self.batches:
            return 0.0
        times = np.array([record.solver_seconds for record in self.batches])
        return float(np.percentile(times, q))

    def latency_histogram(self, **kwargs) -> LatencyHistogram:
        """The per-batch decision latencies as a :class:`LatencyHistogram`.

        The log-bucketed form the gateway and load generator share — exact
        per-sample percentiles stay available through
        :meth:`latency_percentile` for the batch-count regime the broker
        runs in.
        """
        hist = LatencyHistogram(**kwargs)
        for record in self.batches:
            hist.record(record.solver_seconds)
        return hist

    def summary(self) -> dict[str, Any]:
        """The run-level JSON-compatible summary."""
        accepted = sum(r.accepted for r in self.batches)
        declined = sum(r.declined for r in self.batches)
        shed = sum(r.shed for r in self.batches)
        hits = sum(1 for r in self.batches if r.cache_hit)
        solved = len(self.batches) - hits
        decisions = self.num_decisions
        wall = self.wall_seconds
        payload: dict[str, Any] = {
            "cycles": len(self._cycle_profit),
            "batches": len(self.batches),
            "decisions": decisions,
            "accepted": accepted,
            "declined": declined,
            "shed": shed,
            "revenue": sum(r.revenue for r in self.batches),
            "incremental_cost": sum(r.incremental_cost for r in self.batches),
            "profit": sum(self._cycle_profit.values()),
            "profit_per_cycle": [
                self._cycle_profit[c] for c in sorted(self._cycle_profit)
            ],
            "timed_out_batches": sum(1 for r in self.batches if r.timed_out),
            "suboptimal_batches": sum(1 for r in self.batches if r.suboptimal),
            "screened_batches": sum(1 for r in self.batches if r.screened),
            "warm_start_hits": self.warm_start_hits,
            "rung_counts": self.rung_counts(),
            "cache_hits": hits,
            "cache_misses": solved,
            "cache_hit_rate": hits / len(self.batches) if self.batches else 0.0,
            "solver_seconds": self.solver_seconds,
            "wall_seconds": wall,
            "decisions_per_sec": decisions / wall if wall > 0 else 0.0,
            "latency_p50_ms": self.latency_percentile(50) * 1e3,
            "latency_p95_ms": self.latency_percentile(95) * 1e3,
            "latency_p99_ms": self.latency_percentile(99) * 1e3,
            "latency_max_ms": self.latency_percentile(100) * 1e3,
            "recovered_batches": self.recovered_batches,
            "wal_bytes": self.wal_bytes,
            "snapshot_seconds": self.snapshot_seconds,
            "worker_restarts": self.worker_restarts,
            "backoff_seconds": self.backoff_seconds,
            "breaker_opens": self.breaker_opens,
            "breaker_failures": self.breaker_failures,
            "breaker_probes": self.breaker_probes,
            "breaker_short_circuits": self.breaker_short_circuits,
            "num_shards": len(self.shards),
            "ledger_price_iterations": self.ledger_price_iterations,
            "reconciliation_evictions": self.reconciliation_evictions,
            "shard_concurrency": self.shard_concurrency,
        }
        if self.shards:
            payload["shards"] = {
                str(shard_id): dict(self.shards[shard_id])
                for shard_id in sorted(self.shards)
            }
        return payload

    def dump_json(self, path: str | Path) -> None:
        """Write the summary plus every batch record to ``path``.

        Crash-safe: the payload is written to a temporary file in the
        target directory and ``os.replace``d into place, so an
        interrupted dump leaves either the previous file or the new one —
        never truncated JSON.
        """
        path = Path(path)
        payload = {
            "summary": self.summary(),
            "batches": [asdict(record) for record in self.batches],
        }
        if self.shards:
            payload["shards"] = {
                str(shard_id): dict(self.shards[shard_id])
                for shard_id in sorted(self.shards)
            }
        parent = path.parent if str(path.parent) else Path(".")
        fd, tmp_name = tempfile.mkstemp(
            dir=parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:
        s = self.summary()
        return (
            f"TelemetryCollector(decisions={s['decisions']}, "
            f"profit={s['profit']:.3f}, hit_rate={s['cache_hit_rate']:.0%})"
        )
