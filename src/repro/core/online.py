"""Online SPM: deciding sealed bids slot by slot (extension).

The paper evaluates the *offline* problem — all bids for a billing cycle
are known before any decision.  Its operational story (first-price
sealed-bid requests submitted to the provider) equally supports an online
reading: bids arrive over the cycle and each must be accepted (with a
path) or declined when its window starts, irrevocably.  This module
implements that variant on top of the same substrate:

* at each slot ``t`` the provider faces the batch of requests starting at
  ``t``, with the loads and integer bandwidth of earlier commitments sunk;
* the batch decision is made *exactly* by an incremental MILP: maximize
  batch revenue minus the cost of the **extra** bandwidth units forced
  beyond what is already purchased (:func:`build_incremental_spm`) — the
  integer charging makes "ride an already-paid unit" free, which is what
  distinguishes this from EcoFlow's one-request-at-a-time greedy;
* the final accounting charges each edge the ceiling of its realized peak
  load, exactly like the offline solutions, so online and offline profits
  are directly comparable.

The batch MILP is built two ways.  :func:`build_incremental_spm` is the
readable reference: dict-backed :class:`~repro.lp.expr.LinExpr` rows
compiled per constraint.  :class:`IncrementalBatchCompiler` is the hot
path: it precomputes each request's (path, edge, slot) incidence arrays
once per instance and then emits the *identical* compiled sparse model
per batch with vectorized numpy assembly — only the right-hand sides
(residual headroom) change between batches.  Both produce the same
matrix, so decisions are bitwise identical; the equivalence tests assert
it.  Neither runs for a batch of a few bids: when its joint choice space
``prod(|P_i| + 1)`` is at most :data:`ENUMERATION_CAP`,
:func:`enumerate_batch` lists every joint choice and computes the MILP's
objective for each exactly, in a fraction of a HiGHS call.

The online provider is myopic across slots (it cannot see future bids),
so its profit is upper-bounded by offline OPT(SPM); the tests assert this
dominance and the exactness of each batch step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.exceptions import InfeasibleError, SolverError, SolverTimeoutError
from repro.lp.expr import LinExpr
from repro.lp.fastbuild import compile_coo
from repro.lp.model import CompiledModel, Model
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw
from repro.lp.warmstart import relax

__all__ = [
    "OnlineOutcome",
    "OnlineScheduler",
    "BatchDecision",
    "ENUMERATION_CAP",
    "IncrementalBatchCompiler",
    "build_incremental_spm",
    "choice_space",
    "enumerate_batch",
    "solve_batch",
    "commit_decision",
]

EdgeKey = tuple

_CEIL_TOL = 1e-9

#: Largest joint choice space ``prod(|P_i| + 1)`` that :func:`solve_batch`
#: decides by exact enumeration (:func:`enumerate_batch`) instead of HiGHS.
#: ``benchmarks/bench_online.py`` checks that enumeration stays at most half
#: of HiGHS's median time for every live-shaped batch up to this size.
ENUMERATION_CAP = 1024


def build_incremental_spm(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
):
    """The incremental MILP for one arrival batch (reference implementation).

    Decision variables: ``x[i, j]`` (binary path choice per batch request)
    and integer ``extra[e] >= 0``, the bandwidth units purchased beyond the
    already-charged ``charged[e]``.  Constraints couple the committed plus
    batch load at every (edge, slot) to ``charged[e] + extra[e]``; the
    objective is batch revenue minus the price of the extra units.

    This is the expression-layer build the fast path
    (:class:`IncrementalBatchCompiler`) is verified against.  Returns
    ``(model, x_vars, extra_vars)``.
    """
    model = Model("incremental-spm")
    x_vars = {}
    for request_id in batch_ids:
        for path_idx in range(instance.num_paths(request_id)):
            x_vars[(request_id, path_idx)] = model.add_binary(
                f"x_{request_id}_{path_idx}"
            )
    extra_vars = {
        edge_idx: model.add_var(f"extra_{edge_idx}", 0.0, is_integer=True)
        for edge_idx in range(instance.num_edges)
    }

    for request_id in batch_ids:
        row = sum(
            x_vars[(request_id, j)]
            for j in range(instance.num_paths(request_id))
        )
        model.add_constr(row <= 1, name=f"choice_{request_id}")

    # Sparse (edge, slot) rows: only where a batch path adds load.
    touched: dict[tuple[int, int], LinExpr] = {}
    for request_id in batch_ids:
        req = instance.request(request_id)
        for path_idx in range(instance.num_paths(request_id)):
            var = x_vars[(request_id, path_idx)]
            for edge_idx in instance.path_edges[request_id][path_idx]:
                for t in req.slots:
                    key = (int(edge_idx), t)
                    expr = touched.get(key)
                    if expr is None:
                        expr = LinExpr()
                        touched[key] = expr
                    expr.terms[var] = expr.terms.get(var, 0.0) + req.rate

    for (edge_idx, t), load_expr in touched.items():
        headroom = float(charged[edge_idx] - committed_loads[edge_idx, t])
        model.add_constr(
            load_expr - extra_vars[edge_idx] <= headroom,
            name=f"cap_{edge_idx}_{t}",
        )

    objective = LinExpr()
    for request_id in batch_ids:
        req = instance.request(request_id)
        for path_idx in range(instance.num_paths(request_id)):
            var = x_vars[(request_id, path_idx)]
            objective.terms[var] = objective.terms.get(var, 0.0) + req.value
    for edge_idx, var in extra_vars.items():
        objective.terms[var] = objective.terms.get(var, 0.0) - float(
            instance.prices[edge_idx]
        )
    model.set_objective(objective, maximize=True)
    return model, x_vars, extra_vars


class IncrementalBatchCompiler:
    """Array-native builder for the incremental batch MILP.

    Per instance (once): every request's flattened (path, edge) × slot
    incidence — for each candidate path, each edge it crosses, each active
    slot — as three parallel arrays: the ``edge * T + slot`` key, the local
    path index (the request's x-column offset) and the rate coefficient.
    Obtain the cached compiler via
    :meth:`repro.core.instance.SPMInstance.batch_compiler`.

    Per batch (:meth:`compile_batch`): concatenate the cached arrays of the
    batch's requests, rank the touched (edge, slot) keys in first-appearance
    order, and emit the compiled sparse model whose rows, columns, and
    coefficients are *identical* to compiling
    :func:`build_incremental_spm` — only assembled with vectorized numpy
    instead of per-term Python.  The per-batch state (``committed_loads``,
    ``charged``) enters solely through the cap-row right-hand sides.
    """

    def __init__(self, instance: SPMInstance) -> None:
        self.instance = instance
        num_slots = instance.num_slots
        #: request_id -> (num_paths, pair_keys, pair_path_cols, pair_rates, value)
        self._per_request: dict[int, tuple] = {}
        for req in instance.requests:
            rid = req.request_id
            path_edges = instance.path_edges[rid]
            entry_path = np.concatenate(
                [
                    np.full(edges.size, j, dtype=np.int64)
                    for j, edges in enumerate(path_edges)
                ]
            )
            entry_edge = np.concatenate(path_edges).astype(np.int64)
            slots = np.arange(req.start, req.end + 1, dtype=np.int64)
            # Cross product in (entry-major, slot-minor) order — the same
            # nesting the expression build walks, so first-appearance order
            # of (edge, slot) keys (and hence cap-row order) matches.
            keys = np.repeat(entry_edge, slots.size) * num_slots + np.tile(
                slots, entry_edge.size
            )
            cols = np.repeat(entry_path, slots.size)
            rates = np.full(keys.size, float(req.rate))
            self._per_request[rid] = (
                len(path_edges), keys, cols, rates, float(req.value)
            )

    def compile_batch(
        self,
        batch_ids: list[int],
        committed_loads: np.ndarray,
        charged: np.ndarray,
    ) -> tuple[CompiledModel, np.ndarray]:
        """Compile one batch's MILP; returns ``(compiled, x_offsets)``.

        ``x_offsets`` has ``len(batch_ids) + 1`` entries: request ``i`` of
        the batch owns x-columns ``x_offsets[i]:x_offsets[i + 1]``, one per
        candidate path in path order.  The ``extra`` columns for all edges
        follow the x block, exactly as in the reference build.
        """
        instance = self.instance
        num_slots = instance.num_slots
        num_edges = instance.num_edges
        per = [self._per_request[rid] for rid in batch_ids]
        num_batch = len(batch_ids)

        paths_per_req = np.array([p[0] for p in per], dtype=np.int64)
        x_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(paths_per_req)]
        )
        num_x = int(x_offsets[-1])

        # One <= 1 choice row per batch request, coefficient 1 per path.
        choice_rows = np.repeat(np.arange(num_batch, dtype=np.int64), paths_per_req)
        choice_cols = np.arange(num_x, dtype=np.int64)

        # Touched (edge, slot) pairs across the batch, first-appearance rank.
        pair_keys = np.concatenate([p[1] for p in per])
        pair_cols = np.concatenate(
            [x_offsets[i] + per[i][2] for i in range(num_batch)]
        )
        pair_data = np.concatenate([p[3] for p in per])
        uniq_keys, first_pos, inverse = np.unique(
            pair_keys, return_index=True, return_inverse=True
        )
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(appearance.size, dtype=np.int64)
        rank[appearance] = np.arange(appearance.size)
        num_cap = uniq_keys.size
        cap_edges = (uniq_keys // num_slots)[appearance]
        cap_slots = (uniq_keys % num_slots)[appearance]

        # Each cap row also carries -1 on its edge's integer extra column.
        rows = np.concatenate(
            [
                choice_rows,
                num_batch + rank[inverse],
                num_batch + np.arange(num_cap, dtype=np.int64),
            ]
        )
        cols = np.concatenate(
            [choice_cols, pair_cols, num_x + cap_edges]
        )
        data = np.concatenate(
            [np.ones(num_x), pair_data, -np.ones(num_cap)]
        )

        num_rows = num_batch + num_cap
        row_upper = np.empty(num_rows)
        row_upper[:num_batch] = 1.0
        row_upper[num_batch:] = charged[cap_edges] - committed_loads[cap_edges, cap_slots]
        row_lower = np.full(num_rows, -np.inf)

        num_vars = num_x + num_edges
        objective = np.empty(num_vars)
        objective[:num_x] = np.repeat(
            np.array([p[4] for p in per]), paths_per_req
        )
        objective[num_x:] = -instance.prices

        var_upper = np.empty(num_vars)
        var_upper[:num_x] = 1.0
        var_upper[num_x:] = np.inf

        compiled = compile_coo(
            objective=objective,
            maximize=True,
            rows=rows,
            cols=cols,
            data=data,
            num_rows=num_rows,
            row_lower=row_lower,
            row_upper=row_upper,
            var_lower=np.zeros(num_vars),
            var_upper=var_upper,
            integrality=np.ones(num_vars, dtype=np.int8),
            check=False,
        )
        return compiled, x_offsets


@dataclass(frozen=True)
class BatchDecision:
    """A decided batch: path choice per position plus solve provenance.

    ``suboptimal`` flags a decision read from a limit-hit incumbent
    (status ``FEASIBLE``): still a valid, capacity-respecting decision,
    just without an optimality certificate.  ``screened`` marks a batch
    decided by the LP bound alone (see :func:`solve_batch`'s
    ``lp_screen``): the relaxation proved no acceptance can beat
    declining everything, so the all-decline decision carries a full
    optimality certificate without an integer solve — status ``OPTIMAL``,
    cacheable like any exact decision.
    """

    choices: tuple
    status: SolveStatus
    objective: float
    screened: bool = False

    @property
    def suboptimal(self) -> bool:
        return self.status is SolveStatus.FEASIBLE


def choice_space(instance: SPMInstance, batch_ids: list[int]) -> int:
    """Number of joint choices ``prod(|P_i| + 1)`` of a batch (decline included)."""
    return math.prod(instance.num_paths(rid) + 1 for rid in batch_ids)


def enumerate_batch(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
) -> tuple[tuple, float]:
    """Decide a batch exactly by listing every joint choice; ``(choices, objective)``.

    Each request either takes one of its candidate paths or declines, so a
    batch has ``prod(|P_i| + 1)`` joint choices.  For every one of them the
    incremental MILP's objective is computed exactly, with
    :func:`commit_decision`'s own accounting: per touched edge the new
    peak is ``max(window loads, committed peak)``, the units bought are
    ``max(ceil(peak - tol) - charged, 0)``, and the objective is the
    accepted value minus those units at ``instance.prices`` (the
    dual-adjusted prices when the caller repriced the instance).  So the
    reported objective is exactly what committing the choice realizes.

    The arrays are restricted to the batch's touched edges and to the slot
    segments between its window boundaries: a window adds the same load
    over a whole segment, and ``x -> fl(x + rate)`` is monotone, so each
    segment's peak is its committed maximum plus the added rates, bit for
    bit.  Ties go to the first maximum in lexicographic order — requests
    in batch order, each one's paths in path order, decline last.  Two
    choices with the same accepted set and the same units bought produce
    the same floating-point sums, so equally priced alternatives tie
    exactly.
    """
    requests = [instance.request(rid) for rid in batch_ids]
    path_edges = [instance.path_edges[rid] for rid in batch_ids]
    edges = np.unique(
        np.concatenate([edge_idx for paths in path_edges for edge_idx in paths])
    )
    sizes = [len(paths) + 1 for paths in path_edges]

    # Slot segments between window boundaries; keep those inside a window.
    bounds = np.unique(
        [req.start for req in requests] + [req.end + 1 for req in requests]
    )
    seg_start = bounds[:-1]
    starts = np.array([req.start for req in requests])
    ends = np.array([req.end for req in requests])
    in_window = (seg_start[None, :] >= starts[:, None]) & (
        seg_start[None, :] <= ends[:, None]
    )
    covered = in_window.any(axis=0)
    span = committed_loads[edges, bounds[0] : bounds[-1]]
    base = np.maximum.reduceat(span, seg_start - bounds[0], axis=1)[:, covered]
    in_window = in_window[:, covered]
    num_edges, num_segments = base.shape

    loads = base[None]
    revenue = np.zeros(1)
    for pos, req in enumerate(requests):
        options = np.zeros((sizes[pos], num_edges, num_segments))
        for path_idx, edge_idx in enumerate(path_edges[pos]):
            rows = np.searchsorted(edges, edge_idx)
            options[path_idx, rows[:, None], in_window[pos]] = req.rate
        values = np.full(sizes[pos], float(req.value))
        values[-1] = 0.0
        loads = (loads[:, None] + options[None]).reshape(
            -1, num_edges, num_segments
        )
        revenue = (revenue[:, None] + values[None]).reshape(-1)

    peak = np.maximum(
        loads.max(axis=2), committed_loads[edges].max(axis=1)
    )
    extra = np.maximum(np.ceil(peak - _CEIL_TOL) - charged[edges], 0.0)
    objective = revenue - (extra * instance.prices[edges]).sum(axis=1)
    best = int(np.argmax(objective))
    picks = np.unravel_index(best, sizes)
    choices = tuple(
        None if int(pick) == size - 1 else int(pick)
        for pick, size in zip(picks, sizes)
    )
    return choices, float(objective[best])


def solve_batch(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
    *,
    time_limit: float | None = None,
    check_cancelled=None,
    accept_feasible: bool = True,
    fast_path: bool = True,
    lp_screen: bool = False,
) -> BatchDecision:
    """Decide one arrival batch: a chosen path (or ``None``) per position.

    State arrays are not mutated — apply the returned decision with
    :func:`commit_decision`.  The pure state-in/decision-out shape is
    what lets :mod:`repro.service` cache decisions and ship them across
    solver worker processes.

    With ``fast_path`` (default) the MILP is assembled by the instance's
    cached :class:`IncrementalBatchCompiler`; otherwise by the reference
    expression build — the two are decision-identical.  With
    ``accept_feasible`` (default) a solve that hits ``time_limit`` with an
    incumbent returns it as a valid (possibly suboptimal) decision; set it
    ``False`` for strict raise-on-non-optimal semantics.

    ``lp_screen`` (fast path only) solves the batch model's LP relaxation
    first and skips the integer solve when its bound certifies that no
    acceptance can be profitable.  The screen is *sound*, never
    heuristic: declining everything is always feasible at objective 0
    (the capacity rows' headroom is non-negative by the charged-units
    invariant), so the MILP optimum is ``>= 0``; the relaxation optimum
    is an upper bound on it; hence a relaxation bound ``<= 0`` pins the
    MILP optimum to exactly 0 and all-decline is optimal.  A bound above
    0 falls through to the normal integer solve — screening never changes
    a decision's objective, only the price paid for hopeless batches
    (the relaxation solves in a fraction of the MILP's time).  The screen
    and the integer solve share one ``time_limit``: the MILP gets what the
    screen left, and a screen that used it all is a timeout.

    A batch whose joint choice space is at most :data:`ENUMERATION_CAP`
    skips both builds and the screen: :func:`enumerate_batch` certifies
    it exactly (status ``OPTIMAL``, cacheable like a HiGHS optimum).  Its
    result is a timeout, as a solve's would be, when it took longer than
    ``time_limit``.

    Raises :class:`~repro.exceptions.SolverTimeoutError` when the limit is
    hit with no usable incumbent, so callers (the broker) can decline the
    batch instead of crashing.
    """
    if choice_space(instance, batch_ids) <= ENUMERATION_CAP:
        if check_cancelled is not None and check_cancelled():
            raise SolverError("solve cancelled before dispatch")
        started = time.perf_counter()
        choices, objective = enumerate_batch(
            instance, batch_ids, committed_loads, charged
        )
        if time_limit is not None and time.perf_counter() - started > time_limit:
            raise SolverTimeoutError(
                f"batch enumeration exceeded its time limit ({time_limit} s)"
            )
        return BatchDecision(
            choices=choices, status=SolveStatus.OPTIMAL, objective=objective
        )
    if fast_path:
        compiled, x_offsets = instance.batch_compiler().compile_batch(
            batch_ids, committed_loads, charged
        )
        if lp_screen:
            started = time.perf_counter()
            bound = solve_compiled_raw(
                relax(compiled),
                time_limit=time_limit,
                check_cancelled=check_cancelled,
            )
            if bound.status is SolveStatus.OPTIMAL and bound.objective <= 0.0:
                return BatchDecision(
                    choices=(None,) * len(batch_ids),
                    status=SolveStatus.OPTIMAL,
                    objective=0.0,
                    screened=True,
                )
            if time_limit is not None:
                time_limit -= time.perf_counter() - started
                if time_limit <= 0.0:
                    raise SolverTimeoutError(
                        "LP screen used up the batch's time limit"
                    )
        raw = solve_compiled_raw(
            compiled, time_limit=time_limit, check_cancelled=check_cancelled
        )
        status, objective = raw.status, raw.objective
        extract = lambda: _choices_from_x(raw.x, x_offsets)  # noqa: E731
    else:
        model, x_vars, _ = build_incremental_spm(
            instance, batch_ids, committed_loads, charged
        )
        solution = model.solve(
            time_limit=time_limit, check_cancelled=check_cancelled
        )
        status, objective = solution.status, solution.objective
        extract = lambda: _choices_from_values(  # noqa: E731
            instance, batch_ids, solution.values, x_vars
        )

    if status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("incremental batch MILP infeasible")
    if status is SolveStatus.OPTIMAL or (
        accept_feasible and status is SolveStatus.FEASIBLE
    ):
        return BatchDecision(choices=extract(), status=status, objective=objective)
    if status in (SolveStatus.TIME_LIMIT, SolveStatus.FEASIBLE):
        raise SolverTimeoutError(
            f"batch MILP hit its time limit ({status.value}, "
            f"accept_feasible={accept_feasible})"
        )
    raise SolverError(f"batch MILP did not reach optimality: {status}")


def _choices_from_x(x: np.ndarray, x_offsets: np.ndarray) -> tuple:
    """Read per-request path choices from the raw fast-path solution."""
    chosen = np.round(x[: x_offsets[-1]]) > 0.5
    choices = []
    for lo, hi in zip(x_offsets[:-1], x_offsets[1:]):
        hit = np.flatnonzero(chosen[lo:hi])
        choices.append(int(hit[0]) if hit.size else None)
    return tuple(choices)


def _choices_from_values(
    instance: SPMInstance, batch_ids: list[int], values: dict, x_vars: dict
) -> tuple:
    """Read per-request path choices from the expression-path solution."""
    choices = []
    for request_id in batch_ids:
        chosen = None
        for path_idx in range(instance.num_paths(request_id)):
            if values[x_vars[(request_id, path_idx)]] > 0.5:
                chosen = path_idx
                break
        choices.append(chosen)
    return tuple(choices)


def commit_decision(
    instance: SPMInstance,
    batch_ids: list[int],
    decision: list[int | None],
    committed_loads: np.ndarray,
    charged: np.ndarray,
) -> int:
    """Apply a batch decision to the running state; returns accepted count.

    ``committed_loads`` gains the accepted requests' window loads and
    ``charged`` is raised to the ceiling of each touched edge's new peak —
    the same integer-unit accounting the offline solutions use.
    """
    accepted = 0
    for request_id, chosen in zip(batch_ids, decision):
        if chosen is None:
            continue
        accepted += 1
        req = instance.request(request_id)
        edge_idx = instance.path_edges[request_id][chosen]
        committed_loads[edge_idx, req.start : req.end + 1] += req.rate
        peaks = committed_loads[edge_idx].max(axis=1)
        charged[edge_idx] = np.maximum(
            charged[edge_idx], np.ceil(peaks - _CEIL_TOL)
        )
    return accepted


@dataclass
class OnlineOutcome:
    """The result of an online run: final schedule plus per-slot telemetry."""

    schedule: Schedule
    decisions_per_slot: list[tuple[int, int, int]] = field(default_factory=list)
    """Per slot: (slot, batch size, accepted count)."""

    @property
    def profit(self) -> float:
        return self.schedule.profit

    @property
    def revenue(self) -> float:
        return self.schedule.revenue

    @property
    def num_accepted(self) -> int:
        return self.schedule.num_accepted


class OnlineScheduler:
    """Slot-by-slot exact-incremental admission.

    ``time_limit`` bounds each batch MILP (they are small — one slot's
    arrivals); a limit-hit batch keeps its feasible incumbent when one
    exists and raises :class:`~repro.exceptions.SolverTimeoutError`
    otherwise, rather than guessing.  ``fast_path`` selects the
    array-native model build (default; decision-identical to the
    expression build).  ``lp_screen`` enables the sound relaxation-bound
    skip of :func:`solve_batch` for every batch; ``screened_batches``
    counts how many batches it answered.
    """

    def __init__(
        self,
        *,
        time_limit: float | None = 60.0,
        fast_path: bool = True,
        lp_screen: bool = False,
    ) -> None:
        self.time_limit = time_limit
        self.fast_path = fast_path
        self.lp_screen = lp_screen
        self.screened_batches = 0

    def run(self, instance: SPMInstance) -> OnlineOutcome:
        """Process every arrival batch in slot order and return the outcome."""
        assignment: dict[int, int | None] = {}
        committed_loads = np.zeros((instance.num_edges, instance.num_slots))
        charged = np.zeros(instance.num_edges)
        decisions: list[tuple[int, int, int]] = []

        by_start: dict[int, list[int]] = {}
        for req in instance.requests:
            by_start.setdefault(req.start, []).append(req.request_id)

        for slot in range(instance.num_slots):
            batch = by_start.get(slot, [])
            if not batch:
                continue
            accepted = self._decide_batch(
                instance, batch, committed_loads, charged, assignment
            )
            decisions.append((slot, len(batch), accepted))

        schedule = Schedule(instance, assignment)
        return OnlineOutcome(schedule=schedule, decisions_per_slot=decisions)

    def _decide_batch(
        self,
        instance: SPMInstance,
        batch: list[int],
        committed_loads: np.ndarray,
        charged: np.ndarray,
        assignment: dict[int, int | None],
    ) -> int:
        outcome = solve_batch(
            instance,
            batch,
            committed_loads,
            charged,
            time_limit=self.time_limit,
            fast_path=self.fast_path,
            lp_screen=self.lp_screen,
        )
        if outcome.screened:
            self.screened_batches += 1
        decision = list(outcome.choices)
        assignment.update(zip(batch, decision))
        return commit_decision(instance, batch, decision, committed_loads, charged)
