"""The transfer-request model.

A request is the paper's six-tuple ``{s_i, d_i, ts_i, td_i, r_i, v_i}``
(§II-A): a bandwidth reservation of rate ``r_i`` from data center ``s_i`` to
``d_i`` over the *inclusive* slot window ``[ts_i, td_i]`` for which the
customer bids value ``v_i``.

Units follow the paper's convention: rates are measured in units of
chargeable bandwidth (1 unit = 10 Gbps), so a 2.5 Gbps request has
``rate = 0.25``.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.exceptions import WorkloadError

__all__ = ["Request", "RequestSet"]

NodeId = Hashable


@dataclass(frozen=True)
class Request:
    """A single inter-DC bandwidth-reservation request.

    Attributes mirror the paper's notation: ``source``/``dest`` are
    :math:`s_i, d_i`; ``start``/``end`` are the inclusive slot window
    :math:`[ts_i, td_i]`; ``rate`` is :math:`r_i` in bandwidth units; and
    ``value`` is the bid :math:`v_i`.
    """

    request_id: int
    source: NodeId
    dest: NodeId
    start: int
    end: int
    rate: float
    value: float

    def __post_init__(self) -> None:
        if self.request_id < 0:
            raise WorkloadError(f"request_id must be >= 0, got {self.request_id}")
        if self.source == self.dest:
            raise WorkloadError(
                f"request {self.request_id}: source equals destination ({self.source!r})"
            )
        if self.start < 0 or self.end < self.start:
            raise WorkloadError(
                f"request {self.request_id}: invalid slot window "
                f"[{self.start}, {self.end}]"
            )
        if not (0 < self.rate < math.inf):
            raise WorkloadError(
                f"request {self.request_id}: rate must be finite and > 0, "
                f"got {self.rate!r}"
            )
        if not (0 <= self.value < math.inf):
            raise WorkloadError(
                f"request {self.request_id}: value must be finite and >= 0, "
                f"got {self.value!r}"
            )

    @property
    def duration(self) -> int:
        """Number of active slots (inclusive window)."""
        return self.end - self.start + 1

    def rate_at(self, t: int) -> float:
        """The paper's :math:`r_{i,t}`: ``rate`` inside the window, else 0."""
        return self.rate if self.start <= t <= self.end else 0.0

    def is_active(self, t: int) -> bool:
        return self.start <= t <= self.end

    @property
    def slots(self) -> range:
        """The active slot indices."""
        return range(self.start, self.end + 1)


class RequestSet:
    """An ordered, id-indexed collection of requests for one billing cycle.

    ``num_slots`` is the billing cycle length ``T``; every request window
    must fit inside ``[0, T)``.
    """

    def __init__(self, requests: Iterable[Request], num_slots: int) -> None:
        if num_slots < 1:
            raise WorkloadError(f"num_slots must be >= 1, got {num_slots}")
        self.num_slots = num_slots
        self._requests: list[Request] = list(requests)
        self._by_id: dict[int, Request] = {}
        for req in self._requests:
            if req.request_id in self._by_id:
                raise WorkloadError(f"duplicate request_id {req.request_id}")
            if req.end >= num_slots:
                raise WorkloadError(
                    f"request {req.request_id} ends at slot {req.end}, "
                    f"outside the billing cycle of {num_slots} slots"
                )
            self._by_id[req.request_id] = req

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __contains__(self, request_id: int) -> bool:
        return request_id in self._by_id

    def __getitem__(self, request_id: int) -> Request:
        try:
            return self._by_id[request_id]
        except KeyError:
            raise WorkloadError(f"unknown request_id {request_id}") from None

    @property
    def requests(self) -> list[Request]:
        return list(self._requests)

    @property
    def request_ids(self) -> list[int]:
        return [r.request_id for r in self._requests]

    @property
    def total_value(self) -> float:
        """Sum of all bids — the revenue ceiling of any schedule."""
        return sum(r.value for r in self._requests)

    @property
    def max_rate(self) -> float:
        """The largest request rate (used for normalization in TAA)."""
        if not self._requests:
            return 0.0
        return max(r.rate for r in self._requests)

    def subset(self, request_ids: Iterable[int]) -> "RequestSet":
        """A new :class:`RequestSet` keeping only ``request_ids`` (order preserved)."""
        keep = set(request_ids)
        unknown = keep - set(self._by_id)
        if unknown:
            raise WorkloadError(f"unknown request ids: {sorted(unknown)}")
        return RequestSet(
            [r for r in self._requests if r.request_id in keep], self.num_slots
        )

    def active_at(self, t: int) -> list[Request]:
        """Requests whose window covers slot ``t``."""
        return [r for r in self._requests if r.is_active(t)]

    def __repr__(self) -> str:
        return f"RequestSet(n={len(self)}, num_slots={self.num_slots})"
