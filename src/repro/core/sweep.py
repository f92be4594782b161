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
    adds ``0.0`` to a pairwise sum of the run, whose order of additions
    depends on the run's length (``np.add.reduceat`` follows yet another
    order):

    * below 8 elements the pairwise sum adds one by one;
    * from 8 to 15 elements it sums the first 8 as a tree,
      ``((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))``, then adds the
      rest one by one;
    * a C-contiguous ``(rows, n)`` block summed along its last axis
      follows each row's 1-D order (a strided block need not).

    Runs shorter than 16 are the columns of one zero-padded ``(width,
    runs)`` block, runs along the fast axis.  A run of 8 or more reads its
    first 8 elements' tree sum (gathered and summed beforehand) in row 0
    and zeros in rows 1-7; then one ``sum`` down the block adds each
    column's entries one by one (numpy sums pairwise only along the fast
    axis).  Padding and the zeros only ever add ``0.0`` or ``-0.0``: that
    changes the sign of a zero partial sum and nothing else, and a zero
    result's sign is settled by the final ``0.0 +``, so no bit differs.
    Longer runs are summed in contiguous blocks of equal length.  The
    gather indices are built once per ``lengths``; a call costs a handful
    of numpy operations however many runs there are.
    """

    __slots__ = ("size", "_short", "_gather", "_heads", "_groups")

    def __init__(self, lengths: np.ndarray) -> None:
        lengths = np.asarray(lengths, dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        #: Index ``lengths.sum()`` is a zero appended to the values; the
        #: tree sums follow it.
        pad = int(lengths.sum())
        self.size = lengths.size
        self._short: np.ndarray | None = None
        self._groups: list[tuple[np.ndarray, np.ndarray]] = []
        if lengths.size and int(lengths.max()) >= 16:
            self._short = np.flatnonzero(lengths < 16)
            for n in np.unique(lengths[lengths >= 16]).tolist():
                rows = np.flatnonzero(lengths == n)
                self._groups.append((rows, starts[rows, None] + np.arange(n)))
            lengths = lengths[self._short]
            starts = starts[self._short]
        rows = np.arange(max(int(lengths.max(initial=0)), 1))[:, None]
        self._gather = np.where(rows < lengths, starts + rows, pad)
        tree = np.flatnonzero(lengths >= 8)
        #: The first 8 elements of each run summed as a tree, if any.
        self._heads = self._gather[:8, tree] if tree.size else None
        if tree.size:
            self._gather[0, tree] = pad + 1 + np.arange(tree.size)
            self._gather[1:8, tree] = pad

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """Run sums of ``values``' last axis (shape ``(..., lengths.sum())``)."""
        padded = np.concatenate(
            [values, np.zeros(values.shape[:-1] + (1,))], axis=-1
        )
        if self._heads is not None:
            head = np.take(padded, self._heads, axis=-1)
            pairs = head[..., 0::2, :] + head[..., 1::2, :]
            quads = pairs[..., 0::2, :] + pairs[..., 1::2, :]
            padded = np.concatenate(
                [padded, quads[..., 0, :] + quads[..., 1, :]], axis=-1
            )
        short = 0.0 + np.take(padded, self._gather, axis=-1).sum(axis=-2)
        if self._short is None:
            return short
        out = np.empty(values.shape[:-1] + (self.size,))
        out[..., self._short] = short
        for rows, gather in self._groups:
            out[..., rows] = np.take(padded, gather, axis=-1).sum(axis=-1)
        return out


def run_sweep(
    reads: np.ndarray,
    evaluate: Callable[[np.ndarray], np.ndarray],
    apply: Callable[[int, int], np.ndarray],
    dirty: np.ndarray,
) -> bool:
    """Replay one in-order sweep over positions ``0 .. n-1`` in batches.

    The sweep being replayed visits each position in turn, decides an
    action from the current state, and applies it before the next
    position.  Position ``i``'s decision must read the state only on the
    edges ``reads[i]`` marks (a boolean ``(n, num_edges)`` matrix).

    ``evaluate(positions)`` decides the given positions (ascending)
    against the current state in one batch and returns their actions as
    an int array (``-1`` for none).  ``apply(q, action)`` performs
    position ``q``'s action and returns the edges it changed.  Decisions
    whose read edges are among them are stale, so the walk resumes from
    the first stale position after ``q`` once it gets there, re-deciding
    the stale positions only; every decision it acts on is exactly the
    one the in-order sweep would have made.  Returns whether any action
    was applied.

    ``dirty`` (a boolean mask over the positions, updated in place)
    carries decisions across sweeps; a first sweep passes all ``True``.
    A position left clean was last decided "no action" (an acted
    position is marked dirty by its own change) and no edge it reads has
    changed since, so it would decide the same again: only the dirty
    positions are evaluated.  After the call the mask holds exactly the
    positions the next sweep must re-decide.
    """
    n = len(reads)
    if n == 0:
        return False
    actions = np.full(n, -1)

    def refresh(lo: int) -> None:
        stale = lo + np.flatnonzero(dirty[lo:])
        if stale.size:
            actions[stale] = evaluate(stale)
            dirty[stale] = False

    refresh(0)
    pos, stop, acted = 0, n, False
    while True:
        ahead = np.flatnonzero(actions[pos:stop] >= 0)
        if not ahead.size:
            if stop == n:
                return acted
            pos, stop = stop, n
            refresh(pos)
            continue
        q = pos + int(ahead[0])
        changed = apply(q, int(actions[q]))
        acted = True
        hit = reads[:, changed].any(axis=1)
        hit[q] = True
        dirty |= hit
        stale = np.flatnonzero(hit[q + 1 : stop])
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
