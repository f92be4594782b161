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
  beyond what is already purchased (:class:`IncrementalBatchCompiler`) —
  the integer charging makes "ride an already-paid unit" free, which is what
  distinguishes this from EcoFlow's one-request-at-a-time greedy;
* the final accounting charges each edge the ceiling of its realized peak
  load, exactly like the offline solutions, so online and offline profits
  are directly comparable.

:class:`IncrementalBatchCompiler` builds the batch MILP.  It is the full
SPM over the batch, assembled by the offline
:class:`~repro.core.fastform.FormulationCompiler`, with two bound vectors
rewritten: the capacity rows' right-hand sides become the residual
headroom over the committed loads, and the ``extra`` columns stay
unbounded.  Bounding ``extra`` by each link's ceiling minus its charged
units is the remaining one-line fix for capacity-respecting online
serving.  The equivalence tests hold it bit for bit to the test-suite's
expression-layer reference build.  It does not run for a batch of a few
bids: when its joint choice space ``prod(|P_i| + 1)`` is at most
:data:`ENUMERATION_CAP`,
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
from repro.core.schedule import CEIL_TOL, Schedule
from repro.exceptions import InfeasibleError, SolverError, SolverTimeoutError
from repro.lp.model import CompiledModel
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw

__all__ = [
    "OnlineOutcome",
    "OnlineScheduler",
    "BatchDecision",
    "ENUMERATION_CAP",
    "IncrementalBatchCompiler",
    "choice_space",
    "enumerate_batch",
    "solve_batch",
    "commit_decision",
]

EdgeKey = tuple

#: Largest joint choice space ``prod(|P_i| + 1)`` that :func:`solve_batch`
#: decides by exact enumeration (:func:`enumerate_batch`) instead of HiGHS.
#: ``benchmarks/bench_online.py`` checks that enumeration stays at most half
#: of HiGHS's median time for every live-shaped batch up to this size.
ENUMERATION_CAP = 1024


class IncrementalBatchCompiler:
    """The online batch MILP: the SPM over one batch, with rewritten bounds.

    A thin view over the instance's
    :class:`~repro.core.fastform.FormulationCompiler` (built once per
    instance and shared by its restricted views), so constructing one is
    cheap.  :meth:`compile_batch` takes the integral SPM over the batch
    ids in batch order and rewrites two bound vectors:

    * every capacity row's upper bound becomes the residual headroom
      ``charged[e] - committed_loads[e, t]``, so the ``c`` columns count
      the **extra** units bought beyond what is already charged;
    * the ``c`` columns' upper bounds go back to ``inf``.  Bounding them
      by the topology's ceiling minus ``charged`` is the open capacity
      fix for online serving, a one-line change here.

    The rows, columns and coefficients are those of the test-suite's
    expression-layer reference build, bit for bit.
    """

    def __init__(self, instance: SPMInstance) -> None:
        self._compiler = instance.formulation_compiler()

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
        form = self._compiler.compile_spm_batch(batch_ids)
        compiled = form.compiled
        # The uncached build's arrays belong to this call alone.
        compiled.row_upper[form.num_choice_rows :] = (
            charged[form.cap_edges]
            - committed_loads[form.cap_edges, form.cap_slots]
        )
        compiled.var_upper[form.num_x :] = np.inf
        return compiled, form.x_offsets


@dataclass(frozen=True)
class BatchDecision:
    """A decided batch: path choice per position plus solve provenance.

    ``suboptimal`` flags a decision read from a limit-hit incumbent
    (status ``FEASIBLE``): still a valid, capacity-respecting decision,
    just without an optimality certificate.
    """

    choices: tuple
    status: SolveStatus
    objective: float

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
    extra = np.maximum(np.ceil(peak - CEIL_TOL) - charged[edges], 0.0)
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
) -> BatchDecision:
    """Decide one arrival batch: a chosen path (or ``None``) per position.

    State arrays are not mutated — apply the returned decision with
    :func:`commit_decision`.  The pure state-in/decision-out shape is
    what lets :mod:`repro.service` cache decisions and ship them across
    solver worker processes.

    ``check_cancelled`` is polled once, first; returning truthy raises
    :class:`~repro.exceptions.SolverError`.  ``time_limit`` covers the
    whole call from entry: the poll, then either the enumeration or the
    MILP build plus the HiGHS solve, which gets only what is left.

    A batch whose joint choice space is at most :data:`ENUMERATION_CAP`
    is decided by :func:`enumerate_batch` (status ``OPTIMAL``, cacheable
    like a HiGHS optimum).  Above the cap an
    :class:`IncrementalBatchCompiler` builds the MILP; a solve that hits
    the limit with an incumbent returns it with status ``FEASIBLE`` (a
    valid, possibly suboptimal decision).

    Raises :class:`~repro.exceptions.SolverTimeoutError` when the limit is
    hit with no usable incumbent, so callers (the broker) can decline the
    batch instead of crashing.
    """
    started = time.perf_counter()
    if check_cancelled is not None and check_cancelled():
        raise SolverError("solve cancelled before dispatch")
    if choice_space(instance, batch_ids) <= ENUMERATION_CAP:
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
    compiled, x_offsets = IncrementalBatchCompiler(instance).compile_batch(
        batch_ids, committed_loads, charged
    )
    if time_limit is not None:
        time_limit -= time.perf_counter() - started
        if time_limit <= 0.0:
            raise SolverTimeoutError(
                "batch MILP used up its time limit before dispatch"
            )
    raw = solve_compiled_raw(compiled, time_limit=time_limit)
    status = raw.status
    if status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("incremental batch MILP infeasible")
    if status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        return BatchDecision(
            choices=_choices_from_x(raw.x, x_offsets),
            status=status,
            objective=raw.objective,
        )
    if status is SolveStatus.TIME_LIMIT:
        raise SolverTimeoutError("batch MILP hit its time limit with no incumbent")
    raise SolverError(f"batch MILP did not reach optimality: {status}")


def _choices_from_x(x: np.ndarray, x_offsets: np.ndarray) -> tuple:
    """Read per-request path choices from the raw solution vector."""
    chosen = np.round(x[: x_offsets[-1]]) > 0.5
    choices = []
    for lo, hi in zip(x_offsets[:-1], x_offsets[1:]):
        hit = np.flatnonzero(chosen[lo:hi])
        choices.append(int(hit[0]) if hit.size else None)
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
            charged[edge_idx], np.ceil(peaks - CEIL_TOL)
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
    otherwise, rather than guessing.
    """

    def __init__(self, *, time_limit: float | None = 60.0) -> None:
        self.time_limit = time_limit

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
        )
        decision = list(outcome.choices)
        assignment.update(zip(batch, decision))
        return commit_decision(instance, batch, decision, committed_loads, charged)
