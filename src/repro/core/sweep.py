"""Exact batched replay of sequential greedy sweeps.

The Metis local-search layer (:func:`~repro.core.maa.improve_paths` and
:func:`~repro.core.metis.prune_unprofitable`) walks requests in a fixed
order and, for each, decides a move from the current link loads, applies
it, and moves on.  Almost every decision is "no move", and a decision
reads the loads of only a few edges, so the walk can decide every request
in one numpy pass and redo that only when an applied move changed an edge
a later request reads.  The helpers here keep that replay exact:

* :func:`run_sweep` drives the walk and decides where a batch goes stale;
* :class:`RunSums` sums the per-edge terms of every candidate in one
  pass, with the float bits of a separate ``.sum()`` per candidate;
* :func:`window_rates` lays a request's rate over the slots it occupies,
  the per-cell load a move adds or removes.

Blocks are slot-major, ``(slots, rows)``: the peak over slots is then a
reduction across whole rows of vector operations.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.workload.request import Request

__all__ = ["RunSums", "run_sweep", "window_rates"]


class RunSums:
    """Sums of consecutive runs of a vector, ``lengths[k]`` elements apiece.

    Each sum has the bits of calling ``.sum()`` on its run alone.  numpy
    sums a 1-D run pairwise, so the order of additions depends on the
    run's length (``np.add.reduceat`` follows yet another order):

    * below 8 elements it adds one by one starting from ``0.0``.  Such a
      sum is never ``-0.0``, so adding trailing zeros changes no bit, and
      all short runs are summed as one zero-padded block narrower than 8;
    * a C-contiguous ``(rows, n)`` block summed along its last axis
      follows each row's 1-D order (a strided block need not), so longer
      runs are summed in contiguous blocks of equal length.

    The gather indices are built once per ``lengths``; a call costs a
    handful of numpy operations however many runs there are.
    """

    __slots__ = ("size", "_groups")

    def __init__(self, lengths: np.ndarray) -> None:
        lengths = np.asarray(lengths, dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        #: Index ``lengths.sum()`` is a zero appended to the values.
        pad = int(lengths.sum())
        self.size = lengths.size
        self._groups: list[tuple[np.ndarray, np.ndarray]] = []
        short = np.flatnonzero(lengths < 8)
        if short.size:
            width = np.arange(int(lengths[short].max()))
            gather = starts[short, None] + width
            gather[width >= lengths[short, None]] = pad
            self._groups.append((short, gather))
        for n in np.unique(lengths[lengths >= 8]).tolist():
            rows = np.flatnonzero(lengths == n)
            self._groups.append((rows, starts[rows, None] + np.arange(n)))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Run sums of ``values``' last axis (shape ``(..., lengths.sum())``)."""
        padded = np.concatenate(
            [values, np.zeros(values.shape[:-1] + (1,))], axis=-1
        )
        out = np.empty(values.shape[:-1] + (self.size,))
        for rows, gather in self._groups:
            out[..., rows] = np.take(padded, gather, axis=-1).sum(axis=-1)
        return out


def run_sweep(
    touches: list[np.ndarray],
    num_edges: int,
    evaluate: Callable[[], np.ndarray],
    apply: Callable[[int, int], np.ndarray],
) -> bool:
    """Replay one in-order sweep over positions ``0 .. n-1`` in batches.

    The sweep being replayed visits each position in turn, decides an
    action from the current state, and applies it before the next
    position.  Position ``i``'s decision must read the state only on the
    edges ``touches[i]``.

    ``evaluate()`` decides every position against the current state in one
    batch and returns their actions as an int array (``-1`` for none).
    ``apply(q, action)`` performs position ``q``'s action and returns the
    edges it changed.  Decisions after ``q`` whose touch edges are among
    them are stale, so the walk re-evaluates and resumes from the first
    stale position; every decision it acts on is exactly the one the
    in-order sweep would have made.  Returns whether any action was
    applied.
    """
    n = len(touches)
    if n == 0:
        return False
    owners = np.repeat(np.arange(n), [len(t) for t in touches])
    reads = np.zeros((n, num_edges), dtype=bool)
    reads[owners, np.concatenate(touches)] = True
    actions = evaluate()
    pos, stop, acted = 0, n, False
    while True:
        ahead = np.flatnonzero(actions[pos:stop] >= 0)
        if not ahead.size:
            if stop == n:
                return acted
            pos, stop = stop, n
            actions = evaluate()
            continue
        q = pos + int(ahead[0])
        changed = apply(q, int(actions[q]))
        acted = True
        stale = np.flatnonzero(reads[q + 1 : stop][:, changed].any(axis=1))
        if stale.size:
            stop = q + 1 + int(stale[0])
        pos = q + 1


def window_rates(
    requests: Sequence[Request], repeats: np.ndarray, num_slots: int
) -> np.ndarray:
    """Each request's rate over its window, ``repeats[k]`` columns apiece.

    Returns a ``(num_slots, repeats.sum())`` block holding ``rate`` in the
    slots ``start .. end`` of the column's request and ``0.0`` elsewhere.
    Loads are never ``-0.0``, so adding or subtracting the block changes a
    cell outside the window by no bit, and inside it exactly as
    ``load +/- rate`` would.
    """
    slots = np.arange(num_slots)[:, None]
    starts = np.repeat([req.start for req in requests], repeats)
    ends = np.repeat([req.end for req in requests], repeats)
    rates = np.repeat([req.rate for req in requests], repeats)
    return np.where((slots >= starts) & (slots <= ends), rates, 0.0)
