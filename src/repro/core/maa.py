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
from repro.core.schedule import Schedule
from repro.core.sweep import RunSums, run_sweep, window_rates
from repro.exceptions import InfeasibleError, SolverError
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw
from repro.util.rng import ensure_rng

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

#: Peak loads this close to an integer are charged as that integer.
_CEIL_TOL = 1e-9

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
    time_limit: float | None = None,
    warm_start: bool = False,
) -> MAAResult:
    """Run Algorithm 1 (MAA) on ``instance``.

    ``time_limit`` (seconds) bounds the RL-SPM relaxation solve, so
    serving-path callers can guarantee a decision deadline.  A limit-hit
    relaxation raises even when an incumbent exists: the approximation
    ratios are stated against the true LP optimum.

    The RL-SPM relaxation is assembled by the instance's cached
    :class:`~repro.core.fastform.FormulationCompiler` and the weights /
    fractional bandwidth are read straight from the raw solution columns.

    ``warm_start`` routes the relaxation solve through
    the formulation's :class:`~repro.lp.warmstart.ResolveSession`: the
    Metis inner loop re-solves the *identical* RL-SPM relaxation
    ``maa_rounds`` times per round (only the rounding rng differs), so
    every repeat after the first is answered from the session's
    exact-repeat cache — with bitwise-identical solutions by the session's
    certification rules.

    Raises :class:`~repro.exceptions.InfeasibleError` if the relaxation is
    infeasible (cannot happen on strongly connected topologies with
    unlimited purchasable bandwidth) and :class:`SolverError` on solver
    failure.
    """
    formulation = instance.formulation_compiler().compile_rl_spm(
        instance, integral=False
    )
    if warm_start and formulation.session is not None:
        solution = formulation.session.solve(
            formulation.compiled, time_limit=time_limit
        )
    else:
        solution = solve_compiled_raw(formulation.compiled, time_limit=time_limit)
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


class _RequestMoves:
    """One request's move tables, built on first use (see ImproveMemo)."""

    __slots__ = ("path_edges", "touch", "tables")

    def __init__(self, path_edges: list[np.ndarray]) -> None:
        self.path_edges = path_edges
        #: Every edge any candidate path uses: all a move evaluation reads.
        self.touch = np.unique(np.concatenate(path_edges))
        self.tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def table(self, current: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(edges, codes, lengths)`` of every move away from ``current``.

        Candidates are every other path in index order.  For each, the
        sorted union of its and the current path's edges is appended to
        ``edges`` (its size to ``lengths``) with a code per edge: bit 0
        set when the current path uses it, bit 1 when the candidate does.
        """
        entry = self.tables.get(current)
        if entry is None:
            on_cur = set(self.path_edges[current].tolist())
            edges: list[int] = []
            codes: list[int] = []
            lengths: list[int] = []
            for idx, path in enumerate(self.path_edges):
                if idx == current:
                    continue
                on_cand = set(path.tolist())
                union = sorted(on_cur | on_cand)
                edges.extend(union)
                codes.extend((e in on_cur) | (e in on_cand) << 1 for e in union)
                lengths.append(len(union))
            entry = (
                np.array(edges, dtype=np.intp),
                np.array(codes, dtype=np.int8),
                np.array(lengths, dtype=np.intp),
            )
            self.tables[current] = entry
        return entry


class ImproveMemo:
    """Cross-call move tables for :func:`improve_paths`.

    What a move evaluation needs besides the loads never changes for a
    request: for each (current path, candidate) pair, the sorted union of
    the two paths' edges and which path uses each.  Metis calls
    ``improve_paths`` ``maa_rounds * theta`` times over shrinking subsets
    of one request population, so a memo shared across those calls builds
    each request's tables once per solve.  Without one, every call builds
    its own.

    Tables are keyed by request id, so a memo is only valid across
    instances that share each request's ``path_edges`` list by identity —
    exactly what :meth:`~repro.core.instance.SPMInstance.restrict` and
    :meth:`~repro.core.instance.SPMInstance.reprice` views guarantee.  The
    memo records each list it saw and raises :class:`ValueError` when an
    instance brings a different one for the same request id.
    """

    __slots__ = ("_requests",)

    def __init__(self) -> None:
        self._requests: dict[int, _RequestMoves] = {}

    def moves(self, instance: SPMInstance, rid: int) -> _RequestMoves:
        """Request ``rid``'s move tables, checked against ``instance``."""
        path_edges = instance.path_edges[rid]
        entry = self._requests.get(rid)
        if entry is None:
            entry = self._requests[rid] = _RequestMoves(path_edges)
        elif entry.path_edges is not path_edges:
            raise ValueError(
                f"ImproveMemo reused across unrelated instances: request "
                f"{rid} has different path_edges than when it was memoized"
            )
        return entry


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
    :func:`~repro.core.sweep.run_sweep`: one numpy pass evaluates every
    remaining request's candidates against the current loads, and a
    request is re-evaluated only after an accepted move changed an edge
    one of its candidates uses.  A candidate's cost delta is computed as
    the scalar descent computed it — the affected rows with the move
    applied in the same operation order (``(x - rate) + rate`` on edges
    both paths share), ``ceil(peak - 1e-9)`` charged per edge, and each
    sum in numpy's 1-D order — so every move, sweep and final assignment
    is the scalar descent's, bit for bit.  The cost before a move comes
    from a per-edge charged-cost vector updated on each accepted move.

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
    live, moves = [], []
    for req in instance.requests:
        if assignment[req.request_id] is not None:
            entry = memo.moves(instance, req.request_id)
            if len(entry.path_edges) >= 2:
                live.append(req)
                moves.append(entry)
    if not live:
        return assignment
    current = np.array([assignment[req.request_id] for req in live])
    prices = instance.prices
    if loads is None:
        loads = instance.loads(assignment)
    loads = loads.T.copy()
    charged = prices * np.ceil(loads.max(axis=0) - _CEIL_TOL).clip(min=0)

    def apply(q: int, best: int) -> np.ndarray:
        req = live[q]
        paths = moves[q].path_edges
        old_edges = paths[current[q]]
        new_edges = paths[best]
        window = slice(req.start, req.end + 1)
        loads[window, old_edges] -= req.rate
        loads[window, new_edges] += req.rate
        assignment[req.request_id] = best
        current[q] = best
        changed = np.concatenate([old_edges, new_edges])
        charged[changed] = prices[changed] * np.ceil(
            loads[:, changed].max(axis=0) - _CEIL_TOL
        ).clip(min=0)
        return changed

    touches = [entry.touch for entry in moves]
    for _ in range(max_passes):
        tables = [entry.table(c) for entry, c in zip(moves, current.tolist())]
        edges = np.concatenate([t[0] for t in tables])
        codes = np.concatenate([t[1] for t in tables])
        sums = RunSums(np.concatenate([t[2] for t in tables]))
        rows_per = np.array([t[0].size for t in tables])
        cands_per = np.array([t[2].size for t in tables])
        # Each candidate's request position and rank among its candidates.
        owner = np.repeat(np.arange(len(live)), cands_per)
        rank = np.arange(owner.size) - np.repeat(
            np.cumsum(cands_per) - cands_per, cands_per
        )
        # The move as per-cell addends: the request's rate inside its
        # window on edges the current path leaves / the candidate enters.
        # A shared edge still gets ``(x - rate) + rate``.
        rated = window_rates(live, rows_per, instance.num_slots)
        leave = np.where((codes & 1).astype(bool), rated, 0.0)
        enter = np.where((codes & 2).astype(bool), rated, 0.0)
        edge_prices = prices[edges]
        delta = np.full((len(live), int(cands_per.max())), np.inf)

        def evaluate() -> np.ndarray:
            block = loads.take(edges, axis=1)
            block -= leave
            block += enter
            peaks = block.max(axis=0)
            after = edge_prices * np.ceil(peaks - _CEIL_TOL).clip(min=0)
            totals = sums(np.stack([after, charged[edges]]))
            delta[owner, rank] = totals[0] - totals[1]
            pick = delta.argmin(axis=1)
            gain = delta.min(axis=1)
            return np.where(gain < -_MIN_GAIN, pick + (pick >= current), -1)

        if not run_sweep(touches, instance.num_edges, evaluate, apply):
            break
    return assignment
