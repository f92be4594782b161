"""The degradation ladder: every batch gets an answer that fits its budget.

Four rungs, cheapest-feasible wins when the budget (or the breaker) says
the rungs above it no longer fit:

1. **exact** — the incremental batch MILP solved to optimality
   (:func:`repro.core.online.solve_batch`, status ``OPTIMAL``);
2. **incumbent** — the same solve hit its time limit but produced a
   feasible incumbent (status ``FEASIBLE``): valid, just uncertified;
3. **lp_round** — the LP relaxation of the *same compiled model* (zeroed
   integrality, solved in milliseconds), rounded path-by-path with an
   explicit margin check so the rounding can never buy units worth more
   than the request pays;
4. **greedy** — pure-numpy value-density admission: requests in
   descending ``value / (rate * duration)`` order, each taking its
   cheapest-margin path iff the incremental charged-unit cost leaves a
   non-negative margin.  No solver, microseconds, and by construction
   link-feasible and never worse than declining the batch.

The two degraded rungs are armed only when a budget or a breaker is
set.  Unarmed, the ladder has a fifth, bottom rung: **decline** — a
limit-hit solve with no incumbent declines the whole batch, the
unbudgeted serving behaviour.  Every serving engine decides through a
ladder, so this is the only place a batch is decided.

Every rung emits decisions in the same shape (`choices` tuple aligned
with the batch), so :func:`repro.core.online.commit_decision` applies
them identically and the WAL/telemetry layers only learn *which* rung
answered via :class:`LadderDecision.rung`.

Profit-safety under dual steering: when the caller hands the ladder a
repriced decision instance (effective prices ``u + lambda``, duals
``>= 0``), a non-negative margin at effective prices implies a
non-negative margin at true prices — so greedy/lp_round acceptances are
profitable under the real tariff too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.online import (
    IncrementalBatchCompiler,
    commit_decision,
    solve_batch,
)
from repro.core.schedule import CEIL_TOL
from repro.exceptions import SolverError, SolverTimeoutError
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw
from repro.lp.warmstart import relax
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import CycleBudget

__all__ = [
    "RUNGS",
    "LadderDecision",
    "DegradationLadder",
    "greedy_admission",
    "lp_round_admission",
]

#: Rung names, best first.  ``exact`` and ``incumbent`` share the MILP
#: dispatch (they differ only in solve status); ``lp_round`` and
#: ``greedy`` are the degraded rungs; ``decline`` is the unarmed ladder's
#: answer to a limit-hit solve with no incumbent.
RUNGS = ("exact", "incumbent", "lp_round", "greedy", "decline")


@dataclass(frozen=True)
class LadderDecision:
    """One batch's decision plus which rung produced it.

    ``cacheable`` is only ``True`` for certified-optimal decisions —
    degraded rungs must not poison the decision cache, because a cache
    hit replays the decision even when the next cycle has budget for an
    exact solve.
    """

    choices: tuple
    rung: str
    timed_out: bool = False
    suboptimal: bool = False
    cacheable: bool = False


def _density_order(instance: SPMInstance, batch_ids: list[int]) -> list[int]:
    """Batch ids in descending value-density order (ties: lower id first)."""

    def density(rid: int) -> float:
        req = instance.request(rid)
        weight = float(req.rate) * float(req.end - req.start + 1)
        return float(req.value) / max(weight, 1e-12)

    return sorted(batch_ids, key=lambda rid: (-density(rid), rid))


def _path_margin(
    instance: SPMInstance,
    rid: int,
    path_idx: int,
    work_loads: np.ndarray,
    work_charged: np.ndarray,
) -> float:
    """Value minus incremental charged-unit cost of routing ``rid`` on a path.

    The incremental cost prices exactly the integer units the commit
    would ratchet ``charged`` by: the ceiling of each touched edge's new
    peak, less what is already charged, clipped at zero (riding an
    already-paid unit is free — the same accounting as the MILP's
    ``extra`` variables).
    """
    req = instance.request(rid)
    edge_idx = instance.path_edges[rid][path_idx]
    window = work_loads[edge_idx, req.start : req.end + 1] + req.rate
    new_peak = np.maximum(
        window.max(axis=1), work_loads[edge_idx].max(axis=1)
    )
    units = np.ceil(new_peak - CEIL_TOL)
    extra = np.maximum(units - work_charged[edge_idx], 0.0)
    return float(req.value) - float(extra @ instance.prices[edge_idx])


def greedy_admission(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
) -> list[int | None]:
    """Value-density greedy admission — the ladder's always-on bottom rung.

    Pure numpy, no solver: requests in descending value-density order
    each take their best-margin candidate path iff that margin (value
    minus incremental charged-unit cost) is non-negative; everyone else
    is declined.  The input state arrays are **not** mutated — the
    returned decision has the same shape as
    :func:`repro.core.online.solve_batch`'s choices and is applied with
    :func:`repro.core.online.commit_decision`.

    Guarantees (property-tested): the decision is link-feasible on any
    instance — including :meth:`~repro.core.instance.SPMInstance.restrict`
    shards — and its committed profit is ``>= 0``, i.e. never worse than
    declining the whole batch.
    """
    work_loads = committed_loads.copy()
    work_charged = charged.copy()
    decision: dict[int, int | None] = {rid: None for rid in batch_ids}
    for rid in _density_order(instance, batch_ids):
        best_path: int | None = None
        best_margin = 0.0
        for path_idx in range(instance.num_paths(rid)):
            margin = _path_margin(
                instance, rid, path_idx, work_loads, work_charged
            )
            if margin > best_margin + 1e-12 or (
                best_path is None and margin >= best_margin
            ):
                best_path, best_margin = path_idx, margin
        if best_path is not None:
            decision[rid] = best_path
            commit_decision(
                instance, [rid], [best_path], work_loads, work_charged
            )
    return [decision[rid] for rid in batch_ids]


def lp_round_admission(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
    *,
    time_limit: float | None = None,
    check_cancelled=None,
) -> list[int | None] | None:
    """LP-relaxation rounding — the rung between incumbent and greedy.

    Compiles the *same* incremental batch model as the exact rung, zeroes
    the integrality mask, and solves the relaxation (milliseconds even
    where the MILP stalls).  The fractional solution only *guides*: per
    request we take its highest-fraction path as the candidate, walk
    requests in descending fraction order, and admit each candidate only
    if its incremental margin is non-negative — so the rounding inherits
    greedy's feasibility and profit-safety guarantees while keeping the
    LP's global view of contention.

    Returns ``None`` when the relaxation itself fails inside the limit
    (the ladder then falls through to greedy).
    """
    compiled, x_offsets = IncrementalBatchCompiler(instance).compile_batch(
        batch_ids, committed_loads, charged
    )
    try:
        raw = solve_compiled_raw(
            relax(compiled), time_limit=time_limit, check_cancelled=check_cancelled
        )
    except SolverError:
        return None
    if raw.x is None or raw.status not in (
        SolveStatus.OPTIMAL,
        SolveStatus.FEASIBLE,
    ):
        return None

    frac = raw.x[: int(x_offsets[-1])]
    candidates: list[tuple[float, int, int]] = []
    for pos, rid in enumerate(batch_ids):
        lo, hi = int(x_offsets[pos]), int(x_offsets[pos + 1])
        local = frac[lo:hi]
        best = int(np.argmax(local))
        candidates.append((float(local[best]), rid, best))

    work_loads = committed_loads.copy()
    work_charged = charged.copy()
    decision: dict[int, int | None] = {rid: None for rid in batch_ids}
    for weight, rid, path_idx in sorted(
        candidates, key=lambda c: (-c[0], c[1])
    ):
        if weight <= 1e-6:
            continue
        margin = _path_margin(instance, rid, path_idx, work_loads, work_charged)
        if margin >= 0.0:
            decision[rid] = path_idx
            commit_decision(
                instance, [rid], [path_idx], work_loads, work_charged
            )
    return [decision[rid] for rid in batch_ids]


class DegradationLadder:
    """Route one batch to the best rung the budget and breaker still afford.

    The ladder owns no cycle state — it reads the (optional) shared
    :class:`~repro.resilience.budget.CycleBudget` for shrinking time
    limits and consults the (optional)
    :class:`~repro.resilience.breaker.CircuitBreaker` before paying for a
    MILP dispatch.  ``time_limit`` is the static per-solve cap and keeps
    its meaning under a budget (the granted slice is clipped to it).

    The degraded rungs are *armed* iff a budget or a breaker is set.  An
    unarmed ladder answers a limit-hit solve with no incumbent by
    declining the whole batch (rung ``decline``), so an unbudgeted run
    never trades exactness for a heuristic answer.
    """

    def __init__(
        self,
        *,
        budget: CycleBudget | None = None,
        breaker: CircuitBreaker | None = None,
        time_limit: float | None = None,
    ) -> None:
        self.budget = budget
        self.breaker = breaker
        self.time_limit = time_limit
        self.armed = budget is not None or breaker is not None

    def solve_limit(self) -> float | None:
        """The time limit the exact rung would get right now."""
        if self.budget is None:
            return self.time_limit
        return self.budget.solve_limit(cap=self.time_limit)

    def _decided(self, choices, rung: str, **flags) -> LadderDecision:
        return LadderDecision(choices=tuple(choices), rung=rung, **flags)

    def decide(
        self,
        instance: SPMInstance,
        batch_ids: list[int],
        committed_loads: np.ndarray,
        charged: np.ndarray,
        *,
        check_cancelled=None,
    ) -> LadderDecision:
        """Decide one batch at the best rung that fits, degrading as needed."""
        solve = True
        if self.breaker is not None and not self.breaker.allow():
            solve = False
        elif self.budget is not None and not self.budget.affords_solver():
            # Not enough budget for any solver dispatch: the answer must
            # come from the microsecond rung.
            solve = False

        timed_out = False
        if solve:
            try:
                decided = solve_batch(
                    instance,
                    batch_ids,
                    committed_loads,
                    charged,
                    time_limit=self.solve_limit(),
                    check_cancelled=check_cancelled,
                )
            except SolverTimeoutError:
                if self.breaker is not None:
                    self.breaker.record_failure()
                timed_out = True
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                exact = decided.status is SolveStatus.OPTIMAL
                return self._decided(
                    decided.choices,
                    "exact" if exact else "incumbent",
                    suboptimal=decided.suboptimal,
                    cacheable=exact,
                )
            if not self.armed:
                return self._decided(
                    (None,) * len(batch_ids), "decline", timed_out=True
                )
            if self.budget is None or not self.budget.expired:
                choices = lp_round_admission(
                    instance,
                    batch_ids,
                    committed_loads,
                    charged,
                    time_limit=self.solve_limit(),
                    check_cancelled=check_cancelled,
                )
                if choices is not None:
                    return self._decided(
                        choices, "lp_round", timed_out=True, suboptimal=True
                    )

        choices = greedy_admission(instance, batch_ids, committed_loads, charged)
        return self._decided(
            choices, "greedy", timed_out=timed_out, suboptimal=True
        )
