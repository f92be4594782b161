"""Schedules and their profit accounting.

A :class:`Schedule` fixes, for every request of an instance, either a chosen
path index or ``None`` (declined), plus the integer bandwidth ``c_e``
purchased per directed edge.  It exposes the paper's bookkeeping:

* revenue  ``I = sum of v_i over accepted requests``;
* cost     ``C = sum of u_e * c_e``;
* profit   ``I - C``;
* per-slot loads and utilization statistics (Figs. 3c / 5c).

``charge_for`` reproduces MAA's ceiling step: the purchased bandwidth of an
edge is the ceiling of its peak fractional load across the billing cycle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.instance import SPMInstance
from repro.exceptions import CapacityViolationError, ScheduleError

__all__ = ["CEIL_TOL", "Schedule", "UtilizationStats"]

#: Loads this close to an integer are charged as that integer, absorbing
#: float accumulation noise before the ceiling.  The one float-noise
#: allowance before a ceiling: every layer that charges, or compares a
#: load with a ceiling, uses it.
CEIL_TOL = 1e-9


class UtilizationStats:
    """Max/min/mean link utilization of a schedule (paper Figs. 3c, 5c).

    Utilization of an edge is its *average* load over the billing cycle
    divided by its purchased bandwidth; edges with no purchased bandwidth
    are skipped (they carry no traffic and cost nothing).
    """

    def __init__(self, per_edge: dict[tuple, float]) -> None:
        self.per_edge = per_edge

    @property
    def max(self) -> float:
        return max(self.per_edge.values(), default=0.0)

    @property
    def min(self) -> float:
        return min(self.per_edge.values(), default=0.0)

    @property
    def mean(self) -> float:
        if not self.per_edge:
            return 0.0
        return sum(self.per_edge.values()) / len(self.per_edge)

    def __repr__(self) -> str:
        return (
            f"UtilizationStats(max={self.max:.3f}, min={self.min:.3f}, "
            f"mean={self.mean:.3f}, edges={len(self.per_edge)})"
        )


class Schedule:
    """A complete scheduling decision for an SPM instance."""

    def __init__(
        self,
        instance: SPMInstance,
        assignment: dict[int, int | None],
        charged: dict[tuple, int] | None = None,
    ) -> None:
        self.instance = instance
        self.assignment = dict(assignment)
        missing = set(instance.requests.request_ids) - set(self.assignment)
        if missing:
            raise ScheduleError(f"assignment missing requests: {sorted(missing)}")
        extra = set(self.assignment) - set(instance.requests.request_ids)
        if extra:
            raise ScheduleError(f"assignment has unknown requests: {sorted(extra)}")
        for req_id, path_idx in self.assignment.items():
            if path_idx is not None and not (
                0 <= path_idx < instance.num_paths(req_id)
            ):
                raise ScheduleError(
                    f"request {req_id}: path index {path_idx} out of range"
                )
        self._loads = instance.loads(self.assignment)
        if charged is None:
            self.charged = self.charge_for(instance, self._loads)
        else:
            self.charged = {instance.edges[i]: 0 for i in range(instance.num_edges)}
            self.charged.update(charged)
            self._check_within_charged()
        # Lazily cached accounting — assignment and charged are fixed at
        # construction, so both sums are computed at most once.
        self._revenue: float | None = None
        self._cost: float | None = None

    @staticmethod
    def charge_for(instance: SPMInstance, loads: np.ndarray) -> dict[tuple, int]:
        """MAA's ceiling step: ``c_e = ceil(max_t load_{e,t})`` per edge."""
        peaks = loads.max(axis=1)
        return {
            instance.edges[i]: int(math.ceil(peaks[i] - CEIL_TOL))
            for i in range(instance.num_edges)
        }

    def _check_within_charged(self) -> None:
        peaks = self._loads.max(axis=1)
        for idx, key in enumerate(self.instance.edges):
            if peaks[idx] > self.charged.get(key, 0) + CEIL_TOL:
                raise CapacityViolationError(
                    f"edge {key!r}: peak load {peaks[idx]:.6f} exceeds "
                    f"charged bandwidth {self.charged.get(key, 0)}"
                )

    # ------------------------------------------------------------ accounting

    @property
    def loads(self) -> np.ndarray:
        """Array ``(num_edges, num_slots)`` of carried bandwidth."""
        return self._loads

    @property
    def accepted_ids(self) -> list[int]:
        return [rid for rid, p in self.assignment.items() if p is not None]

    @property
    def declined_ids(self) -> list[int]:
        return [rid for rid, p in self.assignment.items() if p is None]

    @property
    def num_accepted(self) -> int:
        return len(self.accepted_ids)

    @property
    def revenue(self) -> float:
        """Service revenue: sum of accepted bids (cached after first read)."""
        if self._revenue is None:
            self._revenue = sum(
                self.instance.request(rid).value for rid in self.accepted_ids
            )
        return self._revenue

    @property
    def cost(self) -> float:
        """Service cost: sum of ``u_e * c_e`` (cached after first read)."""
        if self._cost is None:
            self._cost = sum(
                self.instance.prices[self.instance.edge_index[key]] * units
                for key, units in self.charged.items()
                if units
            )
        return self._cost

    @property
    def profit(self) -> float:
        """Service profit: revenue minus cost."""
        return self.revenue - self.cost

    # ------------------------------------------------------------ validation

    def check_capacities(self, capacities: dict[tuple, int | None]) -> None:
        """Raise :class:`CapacityViolationError` if loads exceed ``capacities``.

        ``capacities`` maps directed edge keys to integer ceilings; ``None``
        (or a missing key) means unlimited.
        """
        peaks = self._loads.max(axis=1)
        for idx, key in enumerate(self.instance.edges):
            cap = capacities.get(key)
            if cap is not None and peaks[idx] > cap + CEIL_TOL:
                raise CapacityViolationError(
                    f"edge {key!r}: peak load {peaks[idx]:.6f} exceeds capacity {cap}"
                )

    def utilization(self) -> UtilizationStats:
        """Average-load/purchased-bandwidth utilization per charged edge."""
        mean_loads = self._loads.mean(axis=1)
        per_edge = {}
        for idx, key in enumerate(self.instance.edges):
            units = self.charged.get(key, 0)
            if units > 0:
                per_edge[key] = float(mean_loads[idx] / units)
        return UtilizationStats(per_edge)

    def __repr__(self) -> str:
        return (
            f"Schedule(accepted={self.num_accepted}/{self.instance.num_requests}, "
            f"revenue={self.revenue:.3f}, cost={self.cost:.3f}, "
            f"profit={self.profit:.3f})"
        )
