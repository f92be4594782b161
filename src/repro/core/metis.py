"""Metis — the alternating SPM framework (paper §II-C, Fig. 1).

Metis couples the two variant solvers through six modules:

* **Input/Output** — the :class:`~repro.core.instance.SPMInstance` in, the
  best (acceptance, schedule, bandwidth) decision out;
* **RL-SPM Solver** — :func:`~repro.core.maa.solve_maa`, minimizing cost
  for the currently accepted requests;
* **BW Limiter** — a provider-chosen rule ``tau`` shrinking the purchased
  bandwidth; the paper's rule (reduce the link with minimum average
  utilization) is :class:`MinUtilizationLimiter`;
* **BL-SPM Solver** — :func:`~repro.core.taa.solve_taa`, maximizing revenue
  under the shrunken bandwidth, declining requests that no longer fit;
* **SP Updater** — keeps the best service profit seen across the
  alternation, initialized at zero (accept nothing, buy nothing).

Each round runs BW Limiter -> TAA -> (shrink the request set) -> MAA; the
loop stops after ``theta`` rounds, when every request has been declined, or
when the limiter cannot shrink further.  Because TAA only ever *declines*
requests, the candidate set is non-increasing and the alternation needs at
most K effective rounds (paper's convergence remark).

Beyond the paper, every MAA schedule additionally spawns a *pruned*
candidate for the SP Updater: requests whose bid is below the bandwidth
cost their removal would save are dropped, cheapest first, until a
fixpoint (:func:`prune_unprofitable`).  This only adds candidate
decisions — the alternation itself proceeds exactly as the paper
describes — and covers the regime where purchased units are mostly
singletons, which the capacity-squeezing loop explores too slowly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.maa import ImproveMemo, improve_paths, solve_maa
from repro.core.schedule import Schedule
from repro.core.sweep import RunSums, run_sweep, window_rates
from repro.core.taa import solve_taa
from repro.util.rng import ensure_rng

__all__ = [
    "BandwidthLimiter",
    "MinUtilizationLimiter",
    "ProportionalLimiter",
    "MetisRecord",
    "MetisRound",
    "MetisOutcome",
    "Metis",
    "prune_unprofitable",
]


def prune_unprofitable(instance: SPMInstance, schedule: Schedule) -> Schedule:
    """Iteratively decline requests whose bid is below their marginal cost.

    A request's marginal cost is the bandwidth spend its removal would
    free: for every edge of its path, the price times the drop in
    ``ceil(peak load)`` once its window's load is removed.  Requests are
    examined cheapest-bid first and removal repeats until no request's
    marginal cost exceeds its bid.  Returns a new schedule, or
    ``schedule`` itself when nothing is removed (the same assignment,
    hence the same loads and charges); the input is never modified.
    Profit never decreases: each removal changes profit by ``saving -
    value > 0``.

    Each pass is replayed in batches by
    :func:`~repro.core.sweep.run_sweep` over one fixed order: one numpy
    pass computes the savings of the requests that need a decision, and a
    request is re-evaluated only after a removal changed an edge of its
    path — within a pass and across passes.  Removed requests stay in the
    order and decide nothing, which walks the survivors exactly as a
    fresh stable sort per pass would.  A saving is derived without
    touching the working loads (the load with the request removed is
    ``x - rate`` inside its window), each sum in numpy's 1-D order, so
    the removals are those of examining one request at a time.
    """
    assignment = dict(schedule.assignment)
    live = sorted(
        (
            instance.request(rid)
            for rid, path_idx in assignment.items()
            if path_idx is not None
        ),
        key=lambda r: r.value,
    )
    if not live:
        return schedule
    loads = schedule.loads.T.copy()
    paths = [
        instance.path_edges[req.request_id][assignment[req.request_id]]
        for req in live
    ]
    hops = np.array([path.size for path in paths])
    edges = np.concatenate(paths)
    edge_prices = instance.prices[edges]
    values = np.array([req.value for req in live])
    own = window_rates(live, hops, instance.num_slots)
    column_owner = np.repeat(np.arange(len(live)), hops)
    reads = np.zeros((len(live), instance.num_edges), dtype=bool)
    reads[column_owner, edges] = True
    alive = np.ones(len(live), dtype=bool)

    def evaluate(positions: np.ndarray) -> np.ndarray:
        chosen = np.zeros(len(live), dtype=bool)
        chosen[positions] = True
        columns = chosen[column_owner]
        block = loads.take(edges[columns], axis=1)
        before = np.ceil(block.max(axis=0) - 1e-9).clip(min=0)
        after = np.ceil((block - own[:, columns]).max(axis=0) - 1e-9).clip(min=0)
        saving = RunSums(hops[positions])(edge_prices[columns] * (before - after))
        return np.where(alive[positions] & (saving > values[positions]), 0, -1)

    def remove(q: int, _action: int) -> np.ndarray:
        req = live[q]
        loads[req.start : req.end + 1, paths[q]] -= req.rate
        assignment[req.request_id] = None
        alive[q] = False
        return paths[q]

    dirty = np.ones(len(live), dtype=bool)
    removed = False
    while run_sweep(reads, evaluate, remove, dirty):
        removed = True
    return Schedule(instance, assignment) if removed else schedule

EdgeKey = tuple


class BandwidthLimiter(ABC):
    """The BW Limiter rule ``tau`` (pluggable, provider-defined)."""

    @abstractmethod
    def limit(
        self,
        instance: SPMInstance,
        schedule: Schedule,
        capacities: dict[EdgeKey, int],
    ) -> dict[EdgeKey, int] | None:
        """Return shrunken capacities, or ``None`` when exhausted.

        Implementations must not mutate ``capacities``.
        """


class MinUtilizationLimiter(BandwidthLimiter):
    """The paper's default ``tau``: shrink the least-utilized link.

    Average utilization of a link is its mean load over the cycle divided
    by its current bandwidth; the link with the minimum is reduced by
    ``step`` units (not below zero).  Returns ``None`` once no link has
    positive bandwidth left.
    """

    def __init__(self, step: int = 1) -> None:
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        self.step = step

    def limit(
        self,
        instance: SPMInstance,
        schedule: Schedule,
        capacities: dict[EdgeKey, int],
    ) -> dict[EdgeKey, int] | None:
        mean_loads = schedule.loads.mean(axis=1)
        caps = np.array(
            [capacities.get(key, 0) for key in instance.edges], dtype=float
        )
        positive = caps > 0.0
        if not positive.any():
            return None
        # argmin's first-minimum convention preserves the deterministic
        # tie-break of the scalar scan: the lowest edge index wins.
        utils = np.full(caps.size, math.inf)
        utils[positive] = mean_loads[positive] / caps[positive]
        best_key = instance.edges[int(np.argmin(utils))]
        shrunk = dict(capacities)
        shrunk[best_key] = max(0, shrunk[best_key] - self.step)
        return shrunk


class ProportionalLimiter(BandwidthLimiter):
    """Alternative ``tau``: scale every link down by ``factor``.

    Capacities shrink to ``floor(cap * factor)``; to guarantee progress, if
    rounding changes nothing the largest link is reduced by one unit.
    """

    def __init__(self, factor: float = 0.9) -> None:
        if not (0 < factor < 1):
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        self.factor = factor

    def limit(
        self,
        instance: SPMInstance,
        schedule: Schedule,
        capacities: dict[EdgeKey, int],
    ) -> dict[EdgeKey, int] | None:
        if all(capacities.get(key, 0) <= 0 for key in instance.edges):
            return None
        shrunk = {
            key: int(math.floor(capacities.get(key, 0) * self.factor))
            for key in capacities
        }
        if shrunk == dict(capacities):
            largest = max(capacities, key=lambda k: capacities[k])
            shrunk[largest] = max(0, shrunk[largest] - 1)
        return shrunk


@dataclass
class MetisRecord:
    """A candidate decision tracked by the SP Updater."""

    profit: float
    schedule: Schedule | None
    capacities: dict[EdgeKey, int] = field(default_factory=dict)
    source: str = "init"
    round_index: int = 0

    @property
    def revenue(self) -> float:
        return self.schedule.revenue if self.schedule else 0.0

    @property
    def cost(self) -> float:
        return self.schedule.cost if self.schedule else 0.0

    @property
    def num_accepted(self) -> int:
        return self.schedule.num_accepted if self.schedule else 0


@dataclass
class MetisRound:
    """Telemetry of one alternation round."""

    round_index: int
    candidate_requests: int
    taa_accepted: int
    taa_profit: float
    maa_profit: float | None
    total_capacity: int


@dataclass
class MetisOutcome:
    """The framework's output: the best decision plus the round history."""

    best: MetisRecord
    rounds: list[MetisRound]
    initial_profit: float

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


class Metis:
    """The alternating framework; tune ``theta`` (rounds) and ``tau`` (limiter).

    ``maa_rounds`` repeats MAA's randomized rounding and keeps the cheapest
    outcome (the paper's Fig. 4b repeats the rounding the same way);
    ``local_search=True`` additionally runs the greedy path-reassignment
    descent of :func:`~repro.core.maa.improve_paths` on each rounding —
    both only ever lower the recorded cost.

    The alternation reuses work across its structurally-identical
    re-solves: RL/BL relaxations go through per-structure
    :class:`~repro.lp.warmstart.ResolveSession` caches (exact repeats and
    certified-dual capacity shrinks skip the solver), and the local-search
    descent shares one :class:`~repro.core.maa.ImproveMemo` per solve so
    unchanged requests are never re-evaluated.  Both reuse tiers are
    certified, so the outcome is bit-identical to solving every relaxation
    afresh; ``tests/oracles/reuse.py`` keeps that cold path as the
    equivalence oracle and the performance baseline.
    """

    def __init__(
        self,
        theta: int = 10,
        limiter: BandwidthLimiter | None = None,
        *,
        maa_rounds: int = 3,
        local_search: bool = True,
        prune: bool = True,
    ) -> None:
        if theta < 1:
            raise ValueError(f"theta must be >= 1, got {theta}")
        if maa_rounds < 1:
            raise ValueError(f"maa_rounds must be >= 1, got {maa_rounds}")
        self.theta = theta
        self.limiter = limiter if limiter is not None else MinUtilizationLimiter()
        self.maa_rounds = maa_rounds
        self.local_search = local_search
        self.prune = prune

    def _best_maa_schedule(
        self,
        instance: SPMInstance,
        rng: np.random.Generator,
        memo: ImproveMemo | None,
    ) -> Schedule:
        best: Schedule | None = None
        for _ in range(self.maa_rounds):
            candidate = solve_maa(instance, rng=rng).schedule
            if self.local_search:
                improved = improve_paths(
                    instance,
                    candidate.assignment,
                    memo=memo,
                    loads=candidate.loads,
                )
                candidate = Schedule(instance, improved)
            if best is None or candidate.cost < best.cost:
                best = candidate
        return best

    def solve(
        self,
        instance: SPMInstance,
        *,
        rng: int | np.random.Generator | None = None,
    ) -> MetisOutcome:
        """Run the alternation and return the SP Updater's best decision.

        The SP Updater starts at profit zero (accept nothing); if every
        candidate decision loses money the returned best has
        ``schedule=None`` and zero profit — the provider's rational choice.
        """
        gen = ensure_rng(rng)
        best = MetisRecord(profit=0.0, schedule=None, source="init")
        rounds: list[MetisRound] = []
        # One improve-memo per solve: every restricted instance in the
        # alternation shares the parent's path_edges arrays, which is the
        # memo's validity condition.
        memo = ImproveMemo() if self.local_search else None

        def offer(candidate: Schedule, source: str, round_index: int) -> Schedule:
            """SP Updater: record ``candidate`` (and its pruning) if better.

            Returns the pruned version (identical to the input when pruning
            is off or removed nothing) so callers can continue the
            alternation from the dominating schedule.
            """
            nonlocal best
            versions = [(candidate, source)]
            if self.prune:
                pruned = prune_unprofitable(candidate.instance, candidate)
                if pruned.num_accepted != candidate.num_accepted:
                    versions.append((pruned, f"{source}+prune"))
            for sched, src in versions:
                if sched.profit > best.profit:
                    best = MetisRecord(
                        profit=sched.profit,
                        schedule=sched,
                        capacities={
                            key: int(units) for key, units in sched.charged.items()
                        },
                        source=src,
                        round_index=round_index,
                    )
            return versions[-1][0]

        if instance.num_requests == 0:
            return MetisOutcome(best=best, rounds=rounds, initial_profit=0.0)

        # Initialization: accept every request, schedule with MAA.
        schedule = self._best_maa_schedule(instance, gen, memo)
        initial_profit = schedule.profit
        schedule = offer(schedule, "maa", 0)
        capacities = {key: int(units) for key, units in schedule.charged.items()}

        current = instance
        if self.prune and schedule.declined_ids:
            current = instance.restrict(schedule.accepted_ids)
        for round_index in range(1, self.theta + 1):
            shrunk = self.limiter.limit(current, schedule, capacities)
            if shrunk is None:
                break
            capacities = shrunk

            taa = solve_taa(current, capacities)
            taa_profit = taa.schedule.profit
            offer(taa.schedule, "taa", round_index)

            accepted = taa.accepted_ids
            maa_profit: float | None = None
            if accepted:
                current = current.restrict(accepted)
                schedule = self._best_maa_schedule(current, gen, memo)
                maa_profit = schedule.profit
                schedule = offer(schedule, "maa", round_index)
                if self.prune and schedule.declined_ids:
                    current = current.restrict(schedule.accepted_ids)
                # The next limiting step starts from what MAA actually uses,
                # never more than the current limit.
                capacities = {
                    key: min(capacities[key], int(schedule.charged[key]))
                    for key in capacities
                }

            rounds.append(
                MetisRound(
                    round_index=round_index,
                    candidate_requests=current.num_requests,
                    taa_accepted=len(accepted),
                    taa_profit=taa_profit,
                    maa_profit=maa_profit,
                    total_capacity=sum(capacities.values()),
                )
            )
            if not accepted:
                break

        return MetisOutcome(best=best, rounds=rounds, initial_profit=initial_profit)
