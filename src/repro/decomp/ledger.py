"""The shared bandwidth ledger: demand aggregation and dual link prices.

:class:`BandwidthLedger` is the only coordination point between shards.
Per price-iteration round every shard posts its (edge, slot) demand
matrix; the ledger folds them, measures each capped link's peak
over-subscription, and raises that link's Lagrangian dual price by a
projected subgradient step::

    lambda_e  <-  max(0, lambda_e + step(k) * (peak_e - cap_e))

Uncapped links (capacity ``None``) carry no dual — the decomposition's
only coupling there is the concavity of integer-unit charging, which the
profit-gap bound of :mod:`repro.decomp.solver` accounts for instead.

The step is the classic diminishing harmonic ``step(k) = step0 / (k + 1)``
that guarantees subgradient convergence, with ``step0`` the mean link
price (1.0 on a ledger without edges).  The whole ledger state
round-trips through :meth:`to_record` / :meth:`apply_record`: both
sharded engines carry it in every fleet cycle's commit record
(``CycleResult.fleet``) and restore the duals bit-identically on
recovery.  :func:`reconcile` is the feasibility pass
that evicts acceptances from oversubscribed capped cells.

``post`` is lock-protected: the sharded live engine posts from one event
loop, but the pooled broker's coordinator may later go concurrent and
the counters must stay exact either way.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import CEIL_TOL
from repro.exceptions import SolverError

__all__ = [
    "BandwidthLedger",
    "reconcile",
]


def _capacities(topology, edges) -> np.ndarray:
    """``topology``'s ceilings in ``edges`` order (``inf`` where uncapped)."""
    return np.array(
        [
            float("inf") if ceiling is None else float(ceiling)
            for ceiling in (topology.capacity(*key) for key in edges)
        ]
    )


class BandwidthLedger:
    """Shared per-link demand aggregation and dual-price state."""

    def __init__(
        self,
        edges: list,
        prices: np.ndarray,
        capacities: np.ndarray,
        num_slots: int,
    ) -> None:
        self.edges = list(edges)
        self.prices = np.asarray(prices, dtype=float)
        #: Per-edge ceilings; ``inf`` where the topology is uncapped.
        self.capacities = np.asarray(capacities, dtype=float)
        self.num_slots = int(num_slots)
        if self.prices.size != len(self.edges):
            raise ValueError("prices must align with edges")
        if self.capacities.size != len(self.edges):
            raise ValueError("capacities must align with edges")
        # The harmonic step scale: the mean link price, so one round
        # moves a unit violation by about one price unit.
        mean_price = float(self.prices.mean()) if self.prices.size else 1.0
        self.step0 = max(mean_price, 1e-12)
        self.duals = np.zeros(len(self.edges))
        self.demand = np.zeros((len(self.edges), self.num_slots))
        #: Dual-price updates performed (the subgradient iteration count).
        self.price_iterations = 0
        #: Shard demand matrices folded in (across all rounds).
        self.posts = 0
        #: Acceptances revoked by feasibility reconciliation.
        self.evictions = 0
        self._lock = threading.Lock()

    @classmethod
    def from_instance(cls, instance: SPMInstance) -> "BandwidthLedger":
        """A ledger over an instance's edges, prices and topology ceilings."""
        return cls(
            instance.edges,
            instance.prices,
            _capacities(instance.topology, instance.edges),
            instance.num_slots,
        )

    @classmethod
    def for_topology(cls, topology, num_slots: int) -> "BandwidthLedger":
        """A ledger over every edge of ``topology`` (a sharded fleet's).

        The edge order is the topology's, which every
        :class:`~repro.core.instance.SPMInstance` over it shares.
        """
        edges = [e.key for e in topology.edges]
        prices = np.array([topology.price(*key) for key in edges])
        return cls(edges, prices, _capacities(topology, edges), num_slots)

    # ------------------------------------------------------------- rounds

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def capped(self) -> bool:
        """Does any link carry a finite ceiling (and hence a dual)?"""
        return bool(np.isfinite(self.capacities).any())

    def effective_prices(self) -> np.ndarray:
        """The shard decision prices: true ``u_e`` plus dual ``lambda_e``."""
        return self.prices + self.duals

    def begin_round(self) -> None:
        """Zero the demand aggregation for a fresh posting round."""
        with self._lock:
            self.demand[:] = 0.0

    def post(self, shard_id: int, loads: np.ndarray) -> None:
        """Fold one shard's (edge, slot) demand into the round's total."""
        loads = np.asarray(loads, dtype=float)
        if loads.shape != self.demand.shape:
            raise ValueError(
                f"loads shaped {loads.shape}, expected {self.demand.shape}"
            )
        with self._lock:
            self.demand += loads
            self.posts += 1

    def violation(self) -> np.ndarray:
        """Per-edge peak over-subscription (0 where uncapped or feasible)."""
        peaks = self.demand.max(axis=1)
        over = peaks - self.capacities
        return np.where(np.isfinite(self.capacities), np.maximum(over, 0.0), 0.0)

    def update_prices(self) -> float:
        """One projected-subgradient dual update; returns the max violation.

        The subgradient is the *signed* slack ``peak_e - cap_e`` (zero on
        uncapped edges): oversubscribed links get pricier, slack links
        relax back toward zero, and the projection keeps every dual
        non-negative.  Update ``k`` (0-based) steps by the harmonic
        ``step0 / (k + 1)``.
        """
        violation = self.violation()
        worst = float(violation.max()) if violation.size else 0.0
        peaks = self.demand.max(axis=1) if self.demand.size else np.zeros(0)
        subgradient = np.where(
            np.isfinite(self.capacities), peaks - self.capacities, 0.0
        )
        step = self.step0 / (self.price_iterations + 1)
        with self._lock:
            self.duals = np.maximum(0.0, self.duals + step * subgradient)
            self.price_iterations += 1
        return worst

    def record_evictions(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        with self._lock:
            self.evictions += count

    # ---------------------------------------------------------- journaling

    def counters(self) -> dict[str, Any]:
        """The observability block shard telemetry embeds."""
        return {
            "price_iterations": self.price_iterations,
            "posts": self.posts,
            "evictions": self.evictions,
            "active_duals": int(np.count_nonzero(self.duals)),
            "max_dual": float(self.duals.max()) if self.duals.size else 0.0,
        }

    def to_record(self) -> dict[str, Any]:
        """The journal payload restoring this ledger bit-identically."""
        return {
            "duals": self.duals.tolist(),
            "price_iterations": self.price_iterations,
            "posts": self.posts,
            "evictions": self.evictions,
        }

    def apply_record(self, record: dict[str, Any]) -> None:
        """Restore dual prices and counters from :meth:`to_record` output."""
        duals = np.asarray(record["duals"], dtype=float)
        if duals.size != self.num_edges:
            raise ValueError(
                f"ledger record has {duals.size} duals, "
                f"expected {self.num_edges}"
            )
        with self._lock:
            self.duals = duals
            self.price_iterations = int(record["price_iterations"])
            self.posts = int(record["posts"])
            self.evictions = int(record["evictions"])

    def __repr__(self) -> str:
        return (
            f"BandwidthLedger(edges={self.num_edges}, "
            f"iterations={self.price_iterations}, "
            f"evictions={self.evictions})"
        )


def reconcile(
    instance: SPMInstance,
    assignment: dict[int, int | None],
    capacities: np.ndarray,
) -> list[int]:
    """Evict lowest-(value, id) acceptances until no capped cell overflows.

    Mutates ``assignment`` (evicted ids map to ``None``) and returns the
    evicted ids in eviction order.  Each step takes the most
    oversubscribed (edge, slot) cell and evicts the cheapest acceptance
    crossing it, so the pass is deterministic and bounded by the
    acceptance count.
    """
    loads = instance.loads(assignment)
    evicted: list[int] = []
    while True:
        over = loads - capacities[:, None]
        cells = np.argwhere(over > CEIL_TOL)
        if cells.size == 0:
            return evicted
        worst = cells[np.argmax(over[cells[:, 0], cells[:, 1]])]
        edge_idx, slot = int(worst[0]), int(worst[1])
        best: tuple | None = None
        for rid, path_idx in assignment.items():
            if path_idx is None:
                continue
            req = instance.request(rid)
            if not (req.start <= slot <= req.end):
                continue
            if edge_idx in instance.path_edges[rid][path_idx]:
                key = (req.value, rid)
                if best is None or key < best:
                    best = key
        if best is None:  # pragma: no cover - a violated cell has a crosser
            raise SolverError(
                f"oversubscribed cell (edge {edge_idx}, slot {slot}) "
                "has no evictable request"
            )
        rid = best[1]
        req = instance.request(rid)
        edge_rows = instance.path_edges[rid][assignment[rid]]
        loads[edge_rows, req.start : req.end + 1] -= req.rate
        assignment[rid] = None
        evicted.append(rid)
