"""Bounded LRU cache of incremental batch decisions.

The broker's unit of work — "decide this arrival batch given the current
residual capacity" — is a pure function of (committed loads, charged
bandwidth, batch contents): :func:`repro.core.online.solve_batch` solves a
MILP determined entirely by those inputs.  Recurring traffic therefore
produces *identical* sub-instances across billing cycles (the first batch
of every cycle starts from empty state; periodic traces repeat whole
cycles), and re-solving them is pure waste.

:class:`DecisionCache` memoizes decisions under a key made of

* a **state fingerprint** — a BLAKE2b digest of the committed-load matrix
  and charged-bandwidth vector (tiny keys even for 288-slot cycles); and
* a **batch signature** — the decision-relevant tuple of every request in
  the batch (endpoints, window, rate, bid, candidate-path count), *not*
  request ids, so renumbered but otherwise identical batches still hit.

Because the key captures the full MILP input, a hit is exact: replaying
the cached path choices yields the same accounting as re-solving.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.core.instance import SPMInstance

__all__ = ["DecisionCache"]

#: (state fingerprint, batch signature)
CacheKey = tuple[bytes, tuple]
#: Chosen path index (or ``None``) per batch position.
Decision = tuple


class DecisionCache:
    """An LRU-evicting map from (state, batch) keys to batch decisions."""

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[CacheKey, Decision] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ keys

    @staticmethod
    def state_fingerprint(
        committed_loads: np.ndarray, charged: np.ndarray
    ) -> bytes:
        """A 16-byte digest of the residual-capacity state."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.ascontiguousarray(committed_loads).tobytes())
        digest.update(np.ascontiguousarray(charged).tobytes())
        return digest.digest()

    @staticmethod
    def batch_signature(instance: SPMInstance, batch_ids: list[int]) -> tuple:
        """The decision-relevant identity of a batch, id-free.

        Candidate paths are a function of (source, dest, k) on a fixed
        topology, so including the endpoints and the path count pins the
        feasible set without hashing the paths themselves.
        """
        rows = []
        for request_id in batch_ids:
            req = instance.request(request_id)
            rows.append(
                (
                    req.source,
                    req.dest,
                    req.start,
                    req.end,
                    req.rate,
                    req.value,
                    instance.num_paths(request_id),
                )
            )
        return tuple(rows)

    @classmethod
    def make_key(
        cls,
        instance: SPMInstance,
        batch_ids: list[int],
        committed_loads: np.ndarray,
        charged: np.ndarray,
    ) -> CacheKey:
        return (
            cls.state_fingerprint(committed_loads, charged),
            cls.batch_signature(instance, batch_ids),
        )

    # ---------------------------------------------------------------- lookup

    def get(self, key: CacheKey) -> Decision | None:
        """The cached decision for ``key``, or ``None``; counts hit/miss."""
        decision = self._entries.get(key)
        if decision is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return decision

    def put(self, key: CacheKey, decision) -> None:
        """Store ``decision`` (any sequence of path choices) under ``key``."""
        self._entries[key] = tuple(decision)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    # ----------------------------------------------------------------- stats

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
            "maxsize": self.maxsize,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"DecisionCache(entries={len(self._entries)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
