"""MAA — the Multistage Approximation Algorithm for RL-SPM (paper §III).

Given a set of *accepted* requests, MAA minimizes the bandwidth cost in
three stages (Algorithm 1):

1. **Relaxation** — solve the LP relaxation of RL-SPM (``x in [0,1]``,
   continuous ``c``), obtaining fractional path weights ``x_hat`` and
   fractional bandwidth ``c_hat``.
2. **Randomized rounding** — select exactly one path per request, path ``j``
   with probability ``x_hat[i][j]`` (the relaxation satisfies
   ``sum_j x_hat[i][j] = 1``).  This gives the
   ``O(log|E| / log log|E|)``-approximation for the unsplittable-flow
   subproblem P1 w.h.p. (Raghavan-Thompson).
3. **Ceiling** — charge each edge the ceiling of its peak load,
   ``c_e = ceil(max_t load_{e,t})``, the ``(alpha+1)/alpha``-relaxed step
   for subproblem P2 (Theorem 2, with ``alpha = min positive c_hat``).

Theorem 4 combines the two ratios multiplicatively (Theorem 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fastform import FormulationCompiler
from repro.core.instance import SPMInstance
from repro.core.schedule import CEIL_TOL, Schedule
from repro.core.sweep import RunSums, run_sweep
from repro.exceptions import InfeasibleError, SolverError
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw  # noqa: F401  (bound for perfbench/spans.py)
from repro.util.rng import ensure_rng
from repro.workload.request import Request

__all__ = [
    "MAAResult",
    "solve_maa",
    "round_paths",
    "improve_paths",
    "ImproveMemo",
]

#: Fractional bandwidth below this is treated as zero when computing alpha.
_ALPHA_TOL = 1e-9

#: ``Generator.choice``'s tolerance on a probability vector's sum.
_PROB_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: A move must lower the charged cost by more than this to be taken.
_MIN_GAIN = 1e-12


@dataclass
class MAAResult:
    """Outcome of one MAA run.

    ``fractional_cost`` is the LP-relaxation optimum (the lower bound both
    approximation ratios are stated against); ``alpha`` is the minimum
    positive fractional bandwidth, the parameter of Theorem 2.
    """

    schedule: Schedule
    fractional_cost: float
    fractional_weights: dict[int, list[float]]
    alpha: float

    @property
    def cost(self) -> float:
        """The rounded, integer-charged bandwidth cost."""
        return self.schedule.cost

    @property
    def ceiling_ratio_bound(self) -> float:
        """Theorem 2's ``(alpha+1)/alpha`` bound (inf when alpha is 0)."""
        if self.alpha <= 0:
            return float("inf")
        return (self.alpha + 1.0) / self.alpha


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

    Sampling is one ``gen.random(m)`` draw for the ``m`` requests with
    positive total weight, in request order.  ``Generator.choice(n, p=p)``
    picks ``searchsorted(cumsum(p) / cumsum(p)[-1], gen.random(),
    side="right")`` and ``gen.random(m)`` yields the doubles of ``m``
    scalar draws, so the picks and the generator's state afterwards are
    those of one ``choice`` call per request.  ``choice``'s checks are
    kept: NaN or negative probabilities raise :class:`ValueError`.
    """
    gen = ensure_rng(rng)
    ids = instance.requests.request_ids
    rows = [np.asarray(weights[rid], dtype=float) for rid in ids]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    flat = np.concatenate(rows) if rows else np.zeros(0)
    totals = RunSums(lengths)(flat)
    draw = ~(totals <= 0)
    picks = np.zeros(len(ids), dtype=np.intp)
    if draw.any():
        # Zero padding leaves each row's cumulative sums unchanged and its
        # padded cdf entries at 1.0, which no draw in [0, 1) reaches.
        padded = np.zeros((len(ids), int(lengths.max())))
        padded[np.arange(padded.shape[1]) < lengths[:, None]] = flat
        probs = padded[draw] / totals[draw][:, None]
        _check_probabilities(probs)
        cdf = probs.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        u = gen.random(int(draw.sum()))
        picks[draw] = (cdf <= u[:, None]).sum(axis=1)
    return dict(zip(ids, picks.tolist()))


def _check_probabilities(probs: np.ndarray) -> None:
    """``Generator.choice``'s checks on its ``p``, one row per request."""
    bad_nan = np.isnan(probs).any(axis=1)
    bad_neg = (probs < 0).any(axis=1)
    bad_sum = np.abs(probs.sum(axis=1) - 1.0) > _PROB_ATOL
    bad = np.flatnonzero(bad_nan | bad_neg | bad_sum)
    if bad.size:
        row = int(bad[0])
        if bad_nan[row]:
            raise ValueError("Probabilities contain NaN")
        if bad_neg[row]:
            raise ValueError("Probabilities are not non-negative")
        raise ValueError("Probabilities do not sum to 1")


def solve_maa(
    instance: SPMInstance,
    *,
    rng: int | np.random.Generator | None = None,
) -> MAAResult:
    """Run Algorithm 1 (MAA) on ``instance``.

    The RL-SPM relaxation is assembled by the instance's cached
    :class:`~repro.core.fastform.FormulationCompiler` and the weights /
    fractional bandwidth are read straight from the raw solution columns.

    The relaxation is solved through the formulation's
    :class:`~repro.lp.warmstart.ResolveSession`: the Metis inner loop
    re-solves the *identical* RL-SPM relaxation ``maa_rounds`` times per
    round (only the rounding rng differs), so every repeat after the first
    is answered from the session's exact-repeat cache — with
    bitwise-identical solutions by the session's certification rules.  A
    relaxation that stops short of optimal raises even when an incumbent
    exists: the approximation ratios are stated against the true LP
    optimum.

    Raises :class:`~repro.exceptions.InfeasibleError` if the relaxation is
    infeasible (cannot happen on strongly connected topologies with
    unlimited purchasable bandwidth) and :class:`SolverError` on solver
    failure.
    """
    formulation = instance.formulation_compiler().compile_rl_spm(
        instance, integral=False
    )
    solution = formulation.session.solve(formulation.compiled)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("RL-SPM relaxation is infeasible")
    if not solution.is_optimal:
        raise SolverError(f"RL-SPM relaxation failed: {solution.status}")

    weights = FormulationCompiler.weights_from_raw(formulation, solution.x)
    c_hat = np.array(solution.x[formulation.num_x :])
    positive = c_hat[c_hat > _ALPHA_TOL]
    alpha = float(positive.min()) if positive.size else 0.0

    assignment = round_paths(instance, weights, rng)
    schedule = Schedule(instance, assignment)
    return MAAResult(
        schedule=schedule,
        fractional_cost=float(solution.objective),
        fractional_weights=weights,
        alpha=alpha,
    )


class ImproveMemo:
    """Cross-call move layout for :func:`improve_paths`.

    What a move evaluation needs besides the loads and prices never
    changes for a request: for every ordered pair of distinct candidate
    paths (current, candidate), the sorted union of their edges and the
    per-cell load the move takes off and puts on them.  The memo lays out
    every move of every request it has seen as one set of arrays, built
    in one vectorized pass whenever new requests arrive:

    * per request slot: ``moves[slot, current, rank]``, the move from
      path ``current`` to its ``rank``-th other path (``-1`` past the
      request's paths), and ``reads``, a row marking every edge its
      candidate paths use (all an evaluation of it reads);
    * per move: ``first_column`` and ``lengths`` (its union's size); a
      move's union edges are consecutive columns, ascending;
    * per column: ``edges``, the request's ``rates`` and ``windows``
      (first and last slot), and ``moved``, ``(2, columns)``: whether the
      current path leaves the edge (``[0]``) / the candidate enters it
      (``[1]``).  An evaluation lays the rate over the window of each
      column it reads, so the memo stays a few arrays per column.  A
      shared edge is both left and entered, so its load becomes ``(x -
      rate) + rate``.

    Metis calls ``improve_paths`` ``maa_rounds * theta`` times over
    shrinking subsets of one request population, so a memo shared across
    those calls lays the moves out once per solve.  Without one, every
    call builds its own.

    Slots are keyed by request id, so a memo is only valid across
    instances that share each request's ``path_edges`` list by identity —
    exactly what :meth:`~repro.core.instance.SPMInstance.restrict` and
    :meth:`~repro.core.instance.SPMInstance.reprice` views guarantee (they
    also share the request and the slot count; prices are read per call).
    The memo records each list it saw and raises :class:`ValueError` when
    an instance brings a different one for the same request id.  Only
    requests with two or more candidate paths have moves to lay out.
    """

    __slots__ = (
        "_slot",
        "_path_edges",
        "_requests",
        "moves",
        "reads",
        "first_column",
        "lengths",
        "edges",
        "rates",
        "windows",
        "moved",
    )

    def __init__(self) -> None:
        self._slot: dict[int, int] = {}
        self._path_edges: list[list[np.ndarray]] = []
        self._requests: list[Request] = []
        self.moves = np.zeros((0, 0, 0), dtype=np.intp)

    def slots(self, instance: SPMInstance, rids: list[int]) -> np.ndarray:
        """The memo slot of each request, laying out any new ones."""
        out = []
        for rid in rids:
            path_edges = instance.path_edges[rid]
            slot = self._slot.get(rid)
            if slot is None:
                slot = self._slot[rid] = len(self._path_edges)
                self._path_edges.append(path_edges)
                self._requests.append(instance.request(rid))
            elif self._path_edges[slot] is not path_edges:
                raise ValueError(
                    f"ImproveMemo reused across unrelated instances: request "
                    f"{rid} has different path_edges than when it was memoized"
                )
            out.append(slot)
        if len(self.moves) < len(self._path_edges):
            self._layout(instance.num_edges, instance.num_slots)
        return np.array(out, dtype=np.intp)

    def _layout(self, num_edges: int, num_slots: int) -> None:
        """Lay out every move of every request seen so far."""
        paths = [path for path_edges in self._path_edges for path in path_edges]
        counts = np.array([len(pe) for pe in self._path_edges])
        first_path = np.cumsum(counts) - counts
        path_of = np.repeat(np.arange(len(paths)), [path.size for path in paths])
        on_path = np.zeros((len(paths), num_edges), dtype=bool)
        on_path[path_of, np.concatenate(paths)] = True
        self.reads = np.logical_or.reduceat(on_path, first_path, axis=0)
        # Moves grouped by request, then current path, candidates in order.
        others = counts - 1
        moves_per = counts * others
        slot = np.repeat(np.arange(counts.size), moves_per)
        local = np.arange(slot.size) - np.repeat(
            np.cumsum(moves_per) - moves_per, moves_per
        )
        from_path = local // others[slot]
        rank = local % others[slot]
        widest = int(counts.max())
        self.moves = np.full((counts.size, widest, widest - 1), -1, dtype=np.intp)
        self.moves[slot, from_path, rank] = np.arange(slot.size)
        cur = first_path[slot] + from_path
        cand = first_path[slot] + rank + (rank >= from_path)
        union = on_path[cur] | on_path[cand]
        # Row-major nonzeros: moves in order, each union's edges ascending.
        move, self.edges = np.nonzero(union)
        self.lengths = union.sum(axis=1)
        self.first_column = np.cumsum(self.lengths) - self.lengths
        owner = slot[move]
        self.rates = np.array([req.rate for req in self._requests])[owner]
        self.windows = np.array(
            [(req.start, req.end) for req in self._requests]
        )[owner]
        self.moved = np.stack(
            [on_path[cur[move], self.edges], on_path[cand[move], self.edges]]
        )


def improve_paths(
    instance: SPMInstance,
    assignment: dict[int, int | None],
    *,
    max_passes: int = 5,
    memo: ImproveMemo | None = None,
    loads: np.ndarray | None = None,
) -> dict[int, int | None]:
    """Greedy path-reassignment descent on the charged-bandwidth cost.

    Not part of Algorithm 1 — a practical post-pass used inside Metis: for
    each assigned request in turn, try each alternate candidate path and
    keep the best move iff the total integer-charged cost strictly
    decreases.  Loops until a fixpoint or ``max_passes`` full sweeps.
    Returns a new assignment; the input is not mutated.

    Each sweep is replayed in batches by
    :func:`~repro.core.sweep.run_sweep`: one numpy pass evaluates the
    requests whose decision may have changed against the current loads,
    and a request is re-evaluated only after an accepted move changed an
    edge one of its candidates uses — within a sweep and across sweeps,
    so a later sweep evaluates only the requests a move reached.  A
    candidate's cost delta is computed as the scalar descent computed it
    — the affected rows with the move applied in the same operation
    order (``(x - rate) + rate`` on edges both paths share),
    ``ceil(peak - 1e-9)`` charged per edge, and each sum in numpy's 1-D
    order — so every move, sweep and final assignment is the scalar
    descent's, bit for bit.  The cost before a move comes from a per-edge
    charged-cost vector updated on each accepted move.

    ``memo`` carries the per-request move tables across calls (see
    :class:`ImproveMemo`).  ``loads`` may hand in
    ``instance.loads(assignment)`` when the caller already holds it (a
    :class:`~repro.core.schedule.Schedule` of ``assignment`` does); it is
    read, not modified.
    """
    if max_passes < 1:
        raise ValueError(f"max_passes must be >= 1, got {max_passes}")
    if memo is None:
        memo = ImproveMemo()
    assignment = dict(assignment)
    live = [
        req
        for req in instance.requests
        if assignment[req.request_id] is not None
        and len(instance.path_edges[req.request_id]) >= 2
    ]
    if not live:
        return assignment
    slots = memo.slots(instance, [req.request_id for req in live])
    current = np.array([assignment[req.request_id] for req in live])
    prices = instance.prices
    if loads is None:
        loads = instance.loads(assignment)
    loads = loads.T.copy()
    charged = prices * np.ceil(loads.max(axis=0) - CEIL_TOL).clip(min=0)
    slot_index = np.arange(instance.num_slots)[:, None]

    def apply(q: int, best: int) -> np.ndarray:
        req = live[q]
        paths = instance.path_edges[req.request_id]
        old_edges = paths[current[q]]
        new_edges = paths[best]
        window = slice(req.start, req.end + 1)
        loads[window, old_edges] -= req.rate
        loads[window, new_edges] += req.rate
        assignment[req.request_id] = best
        current[q] = best
        changed = np.concatenate([old_edges, new_edges])
        charged[changed] = prices[changed] * np.ceil(
            loads[:, changed].max(axis=0) - CEIL_TOL
        ).clip(min=0)
        return changed

    def evaluate(positions: np.ndarray) -> np.ndarray:
        # The moves away from each position's current path (a row of
        # ``delta`` each, by rank), then their union columns.
        at = current[positions]
        table = memo.moves[slots[positions], at]
        exists = table >= 0
        moves = table[exists]
        lengths = memo.lengths[moves]
        offsets = np.cumsum(lengths) - lengths
        columns = np.repeat(memo.first_column[moves] - offsets, lengths) + (
            np.arange(int(offsets[-1] + lengths[-1]))
        )
        edges = memo.edges[columns]
        windows = memo.windows[columns]
        inside = (slot_index >= windows[:, 0]) & (slot_index <= windows[:, 1])
        rates = np.where(inside, memo.rates[columns], 0.0)
        moved = memo.moved[:, columns]
        block = loads.take(edges, axis=1)
        block -= np.where(moved[0], rates, 0.0)
        block += np.where(moved[1], rates, 0.0)
        peaks = block.max(axis=0)
        after = prices[edges] * np.ceil(peaks - CEIL_TOL).clip(min=0)
        totals = RunSums(lengths)(np.stack([after, charged[edges]]))
        delta = np.full(table.shape, np.inf)
        delta[exists] = totals[0] - totals[1]
        pick = delta.argmin(axis=1)
        gain = delta.min(axis=1)
        return np.where(gain < -_MIN_GAIN, pick + (pick >= at), -1)

    dirty = np.ones(len(live), dtype=bool)
    reads = memo.reads[slots]
    for _ in range(max_passes):
        if not run_sweep(reads, evaluate, apply, dirty):
            break
    return assignment
