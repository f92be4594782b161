"""Frozen scalar reference implementations of the Metis local-search layer.

These are the per-request, per-candidate and per-draw loops that
``improve_paths``, ``prune_unprofitable``, ``round_paths`` and
``SPMInstance.loads`` ran before they became batched numpy kernels, kept
unchanged so the equivalence suite can hold the kernels to the old
trajectory: the same moves, removals, rng draws and float bits.
``SPMInstance.loads`` is the free function ``oracle_loads``, which the
oracle ``improve_paths`` calls.  ``ImproveMemo`` is the old memo with its
dirty-stamp bookkeeping; pass it to the oracle ``improve_paths`` only.

Test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.util.rng import ensure_rng

__all__ = [
    "ImproveMemo",
    "improve_paths",
    "oracle_loads",
    "prune_unprofitable",
    "round_paths",
]


def round_paths(
    instance: SPMInstance,
    weights: dict[int, list[float]],
    rng: int | np.random.Generator | None = None,
) -> dict[int, int | None]:
    """The randomized-rounding stage: one path per request, ~ ``weights``.

    Weights per request are normalized before sampling; a request whose
    weights sum to zero (possible only for degenerate inputs) falls back to
    its cheapest path, preserving RL-SPM's "every request satisfied"
    invariant.
    """
    gen = ensure_rng(rng)
    assignment: dict[int, int | None] = {}
    for req in instance.requests:
        w = np.asarray(weights[req.request_id], dtype=float)
        total = w.sum()
        if total <= 0:
            assignment[req.request_id] = 0
            continue
        assignment[req.request_id] = int(gen.choice(len(w), p=w / total))
    return assignment


class ImproveMemo:
    """Cross-call static caches for :func:`improve_paths`.

    Two things about a request never change between improve calls: the
    sorted edge union of any (current, candidate) path pair — and where
    each path's edges land inside it — and the union of *all* its
    candidate-path edges (the only loads a re-evaluation of that request
    can read).  Metis calls ``improve_paths`` ``maa_rounds * theta`` times
    over shrinking subsets of one request population, so a memo shared
    across those calls pays the ``np.unique``/``searchsorted`` cost once
    per (request, path-pair) ever.

    Passing a memo also switches on dirty-edge skipping *within* a call
    (see :func:`improve_paths`).  A memo is only valid across instances
    that share ``path_edges`` arrays by identity — exactly what
    :meth:`~repro.core.instance.SPMInstance.restrict` chains guarantee;
    never share one across unrelated instances.
    """

    __slots__ = ("_unions", "_touch")

    def __init__(self) -> None:
        self._unions: dict[tuple, tuple] = {}
        self._touch: dict[int, np.ndarray] = {}

    def union(self, instance: SPMInstance, rid: int, cur: int, cand: int):
        """``(affected, cur_pos, cand_pos)`` for a path-pair evaluation."""
        key = (rid, cur, cand)
        entry = self._unions.get(key)
        if entry is None:
            cur_edges = instance.path_edges[rid][cur]
            cand_edges = instance.path_edges[rid][cand]
            affected = np.unique(np.concatenate([cur_edges, cand_edges]))
            entry = (
                affected,
                np.searchsorted(affected, cur_edges),
                np.searchsorted(affected, cand_edges),
            )
            self._unions[key] = entry
        return entry

    def touch_edges(self, instance: SPMInstance, rid: int) -> np.ndarray:
        """Every edge any candidate path of ``rid`` can load."""
        arr = self._touch.get(rid)
        if arr is None:
            arr = np.unique(np.concatenate(instance.path_edges[rid]))
            self._touch[rid] = arr
        return arr


def improve_paths(
    instance: SPMInstance,
    assignment: dict[int, int | None],
    *,
    max_passes: int = 5,
    memo: ImproveMemo | None = None,
) -> dict[int, int | None]:
    """Greedy path-reassignment descent on the charged-bandwidth cost.

    Not part of Algorithm 1 — a practical post-pass used inside Metis: for
    each assigned request in turn, try each alternate candidate path and
    keep the move iff the total integer-charged cost strictly decreases.
    Loops until a fixpoint or ``max_passes`` full sweeps.  Returns a new
    assignment; the input is not mutated.

    Candidate moves are evaluated *without mutating* the shared load
    matrix: the affected rows are copied, the move applied to the copy in
    the same operation order a real move uses, and the charged costs
    compared.  Only an accepted move touches ``loads``.  Evaluations
    therefore depend solely on the current loads of the request's own
    candidate edges — which makes the following sound:

    With a ``memo``, requests whose candidate-edge neighborhood has not
    changed since their last evaluation are skipped.  A skipped request
    would re-derive byte-for-byte the same deltas from byte-for-byte the
    same loads and reach the same "no move" decision, so the descent
    trajectory — every move, every sweep, the final assignment — is
    identical to the exhaustive scan.  In the typical Metis profile the
    final sweep is a full no-op, and dirty-skipping eliminates almost all
    of it.

    Complexity is ``O(max_passes * K * L * h * T)`` where ``h`` bounds path
    length — the dominant non-LP cost of the Metis inner loop.
    """
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    assignment = dict(assignment)
    loads = oracle_loads(instance, assignment)
    prices = instance.prices

    def cost_of(edge_indices: np.ndarray) -> float:
        peaks = loads[edge_indices].max(axis=1)
        return float(
            (prices[edge_indices] * np.ceil(peaks - 1e-9).clip(min=0)).sum()
        )

    track = memo is not None
    if track:
        # Edge-modification clock: version[e] is the tick of the last move
        # touching edge e; stamps[rid] is the clock when rid was last
        # evaluated.  A request is clean iff none of its candidate edges
        # moved since — its own accepted move bumps its edges, so a moved
        # request always re-evaluates next sweep.
        version = np.zeros(instance.num_edges, dtype=np.int64)
        stamps: dict[int, int] = {}
        tick = 0

    for _ in range(max_passes):
        changed = False
        for req in instance.requests:
            rid = req.request_id
            current = assignment[rid]
            if current is None or instance.num_paths(rid) < 2:
                continue
            if track:
                stamp = stamps.get(rid)
                if stamp is not None:
                    touch = memo.touch_edges(instance, rid)
                    if not touch.size or version[touch].max() <= stamp:
                        continue
                stamps[rid] = tick
            window = slice(req.start, req.end + 1)
            cur_edges = instance.path_edges[rid][current]
            rate = req.rate
            best_path = current
            best_delta = -1e-12
            for candidate in range(instance.num_paths(rid)):
                if candidate == current:
                    continue
                if memo is not None:
                    affected, cur_pos, cand_pos = memo.union(
                        instance, rid, current, candidate
                    )
                else:
                    cand_edges = instance.path_edges[rid][candidate]
                    affected = np.unique(
                        np.concatenate([cur_edges, cand_edges])
                    )
                    cur_pos = np.searchsorted(affected, cur_edges)
                    cand_pos = np.searchsorted(affected, cand_edges)
                before = cost_of(affected)
                block = loads[affected]
                block[cur_pos, window] -= rate
                block[cand_pos, window] += rate
                peaks = block.max(axis=1)
                after = float(
                    (prices[affected] * np.ceil(peaks - 1e-9).clip(min=0)).sum()
                )
                delta = after - before
                if delta < best_delta:
                    best_delta = delta
                    best_path = candidate
            if best_path != current:
                new_edges = instance.path_edges[rid][best_path]
                loads[cur_edges, window] -= rate
                loads[new_edges, window] += rate
                assignment[rid] = best_path
                changed = True
                if track:
                    tick += 1
                    version[cur_edges] = tick
                    version[new_edges] = tick
        if not changed:
            break
    return assignment


def prune_unprofitable(instance: SPMInstance, schedule: Schedule) -> Schedule:
    """Iteratively decline requests whose bid is below their marginal cost.

    A request's marginal cost is the bandwidth spend its removal would
    free: for every edge of its path, the price times the drop in
    ``ceil(peak load)`` once its window's load is removed.  Requests are
    examined cheapest-bid first and removal repeats until no request's
    marginal cost exceeds its bid.  Returns a new schedule; the input is
    untouched.  Profit never decreases: each removal changes profit by
    ``saving - value > 0``.
    """
    assignment = dict(schedule.assignment)
    loads = schedule.loads.copy()
    prices = instance.prices

    def marginal_saving(req, path_idx: int) -> float:
        window = slice(req.start, req.end + 1)
        edge_indices = instance.path_edges[req.request_id][path_idx]
        before = np.ceil(loads[edge_indices].max(axis=1) - 1e-9).clip(min=0)
        loads[edge_indices, window] -= req.rate
        after = np.ceil(loads[edge_indices].max(axis=1) - 1e-9).clip(min=0)
        loads[edge_indices, window] += req.rate
        return float((prices[edge_indices] * (before - after)).sum())

    # Sort once; later passes walk the same order skipping removed
    # entries.  Stable sort of the survivors equals the survivor
    # subsequence of this list, so the examination sequence — and hence
    # the removal set — is identical to re-sorting every pass.
    order = sorted(
        (
            instance.request(rid)
            for rid, path_idx in assignment.items()
            if path_idx is not None
        ),
        key=lambda r: r.value,
    )
    while True:
        removed_any = False
        for req in order:
            path_idx = assignment[req.request_id]
            if path_idx is None:
                continue
            if marginal_saving(req, path_idx) > req.value:
                window = slice(req.start, req.end + 1)
                edge_indices = instance.path_edges[req.request_id][path_idx]
                loads[edge_indices, window] -= req.rate
                assignment[req.request_id] = None
                removed_any = True
        if not removed_any:
            return Schedule(instance, assignment)


def oracle_loads(
    instance: SPMInstance, assignment: dict[int, int | None]
) -> np.ndarray:
    """Per-(edge, slot) bandwidth demanded by ``assignment``.

    ``assignment`` maps request id -> chosen path index (or ``None`` for
    declined).  Returns an array of shape ``(num_edges, num_slots)``.
    """
    loads = np.zeros((instance.num_edges, instance.num_slots))
    for req_id, path_idx in assignment.items():
        if path_idx is None:
            continue
        req = instance.requests[req_id]
        edge_idx = instance.path_edges[req_id][path_idx]
        loads[edge_idx, req.start : req.end + 1] += req.rate
    return loads

