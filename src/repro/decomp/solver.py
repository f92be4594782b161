"""Price-coordinated decomposition of one SPM instance across shards.

:func:`solve_decomposed` is the batch entry point.  The requests are
partitioned by source DC (:mod:`repro.decomp.partition`), each shard
becomes a zero-copy :meth:`~repro.core.instance.SPMInstance.restrict`
view, and each shard's full-SPM MILP is compiled **once** through the
shared :class:`~repro.core.fastform.FormulationCompiler`.  The price
iteration then never reassembles a matrix: per round each shard's model
is re-solved under the ledger's effective link prices
``u_e + lambda_e`` via :func:`repro.lp.fastbuild.with_objective` (only
the objective tail changes — the x-block values are untouched), the
resulting per-(edge, slot) demand is posted to the
:class:`~repro.decomp.ledger.BandwidthLedger`, and the duals take one
projected-subgradient step on the capacity violation.

The duals steer *decisions* only.  All accounting — shard revenue, the
final schedule's integer-unit charging, the oracle comparison — uses the
true prices ``u_e``.

Because the duals relax (not enforce) the cross-shard capacity coupling,
the round decisions may still oversubscribe a link.  The reconciliation
pass makes the outcome unconditionally feasible: while any capped
(edge, slot) cell is oversubscribed, the accepted request with the
lowest ``(value, request_id)`` among those crossing that cell is
evicted.  Deterministic, value-ordered, and bounded by the acceptance
count, so :attr:`DecompOutcome.schedule` always passes
:meth:`~repro.core.schedule.Schedule.check_capacities`.

:func:`solve_exact` keeps the single-shard MILP as the equivalence
oracle, and :func:`profit_gap_bound` gives the additive bound the tests
assert: on an *uncapped* instance whose per-edge loads peak in a common
slot (e.g. every request spans the whole billing cycle — the default
full-cycle workload shape), splitting any assignment across ``S`` shards
costs at most ``S - 1`` extra integer units per edge (sum-of-ceilings
versus ceiling-of-sum), so::

    exact_profit - decomposed_profit  <=  (S - 1) * sum_e u_e

With edge-disjoint shards (e.g. region partition on a topology whose
regions share no links) the subproblems are independent and the
decomposed assignment matches the oracle bit-identically.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.decomp.ledger import BandwidthLedger, make_step_schedule, reconcile
from repro.decomp.partition import PARTITION_MODES, partition_requests
from repro.exceptions import SolverError
from repro.lp.fastbuild import with_objective
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw
from repro.lp.warmstart import ResolveSession, relax
from repro.resilience.budget import CycleBudget
from repro.resilience.ladder import greedy_admission
from repro.service.pool import SolverPool

__all__ = [
    "DecompConfig",
    "ShardOutcome",
    "DecompOutcome",
    "solve_decomposed",
    "solve_exact",
    "oracle_gap",
    "profit_gap_bound",
]

#: Float noise allowed when comparing objective values and gaps.
_TOL = 1e-9


@dataclass(frozen=True)
class DecompConfig:
    """Knobs of one decomposed solve."""

    #: Shard count; 1 degenerates to the exact single-shard solve.
    num_shards: int = 2
    #: Partition rule, one of :data:`~repro.decomp.partition.PARTITION_MODES`.
    mode: str = "hash"
    #: Price-iteration rounds (each round re-solves every shard).
    max_rounds: int = 8
    #: Stop as soon as the worst per-edge violation is at most this.
    tolerance: float = 1e-9
    #: Step schedule name: ``constant`` / ``harmonic`` / ``geometric``.
    step: str = "harmonic"
    #: Initial step size; ``None`` scales to the instance's mean link price.
    step0: float | None = None
    #: Decay factor (geometric schedule only).
    decay: float = 0.5
    #: Per-shard solve time limit in seconds (``None`` = unbounded).
    time_limit: float | None = None
    #: Worker processes for the per-round shard solves; ``>= 2`` runs the
    #: shards of each price round concurrently through a
    #: :class:`~repro.service.pool.SolverPool` (HiGHS holds the GIL, so
    #: concurrency must be process-based).  Ignored when a ``budget`` is
    #: passed — deadline slicing is inherently sequential.
    workers: int = 1
    #: Reuse each shard's :class:`~repro.lp.warmstart.ResolveSession`
    #: across rounds: converged effective prices repeat the exact
    #: ``(c, bounds)`` key and the cached optimum is returned without a
    #: solver call.  Bitwise-neutral — only certified results are reused.
    warm_start: bool = True
    #: Screen each shard round against its incumbent: when the round's LP
    #: relaxation bound does not beat the previous assignment re-costed
    #: under the new effective prices, keep the incumbent and skip the
    #: MILP.  Objective-optimal (the kept incumbent attains the round's
    #: optimum) but not assignment-identical to a fresh solve when the
    #: round optimum is degenerate.
    screen: bool = False
    #: Adaptive round budget: stop the price iteration after this many
    #: consecutive rounds whose max violation failed to decay below
    #: ``stall_decay`` times the previous round's.  ``0`` disables the
    #: check (always run to ``max_rounds``/tolerance).
    stall_rounds: int = 0
    #: Required per-round violation decay factor for the stall check.
    stall_decay: float = 0.9

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.mode not in PARTITION_MODES:
            raise ValueError(
                f"mode must be one of {PARTITION_MODES}, got {self.mode!r}"
            )
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.stall_rounds < 0:
            raise ValueError(
                f"stall_rounds must be >= 0, got {self.stall_rounds}"
            )
        if not 0.0 < self.stall_decay <= 1.0:
            raise ValueError(
                f"stall_decay must be in (0, 1], got {self.stall_decay}"
            )


@dataclass(frozen=True)
class ShardOutcome:
    """One shard's final subproblem decision (true-price accounting)."""

    shard_id: int
    request_ids: tuple
    assignment: dict
    accepted: int
    revenue: float
    #: Shard-local profit: revenue minus the shard's own integer-unit cost.
    profit: float


@dataclass(frozen=True)
class DecompOutcome:
    """The feasible joint schedule plus per-shard and ledger diagnostics."""

    schedule: Schedule
    shards: list = field(default_factory=list)
    ledger: BandwidthLedger | None = None
    #: Price-iteration rounds actually run (each re-solves every shard).
    rounds: int = 0
    #: Worst per-edge violation after the last round, before reconciliation.
    max_violation: float = 0.0
    #: Request ids revoked by the reconciliation pass, in eviction order.
    evicted: tuple = ()
    #: Shard-round MILPs skipped by the incumbent screen.
    screened_solves: int = 0
    #: Exact-repeat + certified session hits across all shard sessions.
    warm_hits: int = 0
    #: Worker processes the round solves actually ran on (1 = in-process).
    workers: int = 1

    @property
    def profit(self) -> float:
        return self.schedule.profit


def _ledger_for(instance: SPMInstance, config: DecompConfig) -> BandwidthLedger:
    if config.step0 is not None:
        step0 = config.step0
    else:
        step0 = max(
            float(instance.prices.mean()) if instance.prices.size else 1.0,
            1e-12,
        )
    schedule = make_step_schedule(config.step, step0, decay=config.decay)
    return BandwidthLedger.from_instance(instance, schedule=schedule)


def _choices(formulation, x: np.ndarray) -> dict[int, int | None]:
    """Raw solution vector -> request id -> chosen path index (or None)."""
    assignment: dict[int, int | None] = {}
    offsets = formulation.x_offsets
    for i, rid in enumerate(formulation.request_ids):
        weights = x[offsets[i] : offsets[i + 1]]
        best = int(np.argmax(weights)) if weights.size else 0
        assignment[rid] = best if weights.size and weights[best] > 0.5 else None
    return assignment


class _ShardProblem:
    """One shard's compiled subproblem, re-solvable under shifted prices.

    Holds two :class:`~repro.lp.warmstart.ResolveSession`\\ s — one for the
    round MILPs, one for their LP relaxations — anchored once on the
    shard's compiled arrays (``with_objective``/``relax`` alias every
    array but ``c``, so the anchor survives every round).  ``last_x``
    carries the previous round's raw incumbent for the screening bound.
    """

    def __init__(self, shard_id: int, instance: SPMInstance) -> None:
        self.shard_id = shard_id
        self.instance = instance
        self.formulation = instance.formulation_compiler().compile_spm(instance)
        compiled = self.formulation.compiled
        # The objective in the model's original (maximization) sense; the
        # x-block holds the request values and stays fixed across rounds.
        self._values_head = (compiled.sign * compiled.c)[
            : self.formulation.num_x
        ]
        self.assignment: dict[int, int | None] = {}
        self.session = ResolveSession()
        self.relax_session = ResolveSession()
        self.last_x: np.ndarray | None = None
        self.screened_solves = 0

    @property
    def warm_hits(self) -> int:
        return self.session.stats.warm_hits + self.relax_session.stats.warm_hits

    def adopt(self, assignment: dict, x: np.ndarray | None) -> None:
        """Install a worker-computed round result (pooled path)."""
        self.assignment = assignment
        self.last_x = x

    def solve(
        self,
        effective_prices: np.ndarray,
        *,
        time_limit: float | None,
        warm_start: bool = False,
        screen: bool = False,
        incumbent_x: np.ndarray | None = None,
    ) -> dict[int, int | None]:
        objective = np.concatenate([self._values_head, -effective_prices])
        shifted = with_objective(self.formulation.compiled, objective)
        incumbent = self.last_x if incumbent_x is None else incumbent_x
        if screen and incumbent is not None:
            # The incumbent is still feasible (only the objective moved);
            # when the relaxation bound cannot beat its re-costed value
            # the incumbent attains this round's optimum — keep it.
            relaxed = relax(shifted)
            bound = (
                self.relax_session.solve(relaxed, time_limit=time_limit)
                if warm_start
                else solve_compiled_raw(relaxed, time_limit=time_limit)
            )
            value = float(objective @ incumbent)
            if bound.status is SolveStatus.OPTIMAL and bound.objective <= (
                value + _TOL * max(1.0, abs(value))
            ):
                self.screened_solves += 1
                self.last_x = incumbent
                self.assignment = _choices(self.formulation, incumbent)
                return self.assignment
        raw = (
            self.session.solve(shifted, time_limit=time_limit)
            if warm_start
            else solve_compiled_raw(shifted, time_limit=time_limit)
        )
        if raw.x is None:
            raise SolverError(
                f"shard {self.shard_id} solve returned no incumbent "
                f"(status {raw.status.value})"
            )
        self.last_x = raw.x
        self.assignment = _choices(self.formulation, raw.x)
        return self.assignment

    def fallback(self, effective_prices: np.ndarray) -> dict[int, int | None]:
        """Greedy value-density decision under the effective prices.

        The budget-starved rung of the decomposition: no solver, so it
        always fits whatever deadline is left.  May oversubscribe capped
        links like any relaxed round decision — the reconciliation pass
        restores feasibility either way.
        """
        ids = list(self.instance.requests.request_ids)
        priced = self.instance.reprice(effective_prices)
        choices = greedy_admission(
            priced,
            ids,
            np.zeros((priced.num_edges, priced.num_slots)),
            np.zeros(priced.num_edges),
        )
        self.assignment = dict(zip(ids, choices))
        return self.assignment

    def outcome(self) -> ShardOutcome:
        schedule = Schedule(self.instance, self.assignment)
        return ShardOutcome(
            shard_id=self.shard_id,
            request_ids=tuple(self.instance.requests.request_ids),
            assignment=dict(self.assignment),
            accepted=schedule.num_accepted,
            revenue=schedule.revenue,
            profit=schedule.profit,
        )


# Per-worker-process shard registry for the pooled round path: keyed by
# (token, shard_id) so a long-lived pool serving successive decomposed
# solves never replays a stale shard's sessions.  Entries from older
# tokens are dropped on first miss of a new token.
_WORKER_SHARDS: dict = {}
_TOKENS = itertools.count()


def _solve_shard_task(payload) -> tuple:
    """One shard's round solve inside a pool worker.

    Ships the shard instance every round (cheap at shard scale) so the
    task is idempotent and worker-affinity-free: a registry hit reuses
    the worker's warm ``_ShardProblem`` (sessions and all); a miss —
    fresh worker, restarted executor, or shard rebalanced to a different
    worker — rebuilds it from the payload.  The incumbent travels in the
    payload, so screening keeps working across worker reassignment.
    """
    token, shard_id, instance, effective, time_limit, warm, screen, last_x = (
        payload
    )
    key = (token, shard_id)
    problem = _WORKER_SHARDS.get(key)
    if problem is None:
        for stale in [k for k in _WORKER_SHARDS if k[0] != token]:
            del _WORKER_SHARDS[stale]
        problem = _ShardProblem(shard_id, instance)
        _WORKER_SHARDS[key] = problem
    screened_before = problem.screened_solves
    warm_before = problem.warm_hits
    assignment = problem.solve(
        effective,
        time_limit=time_limit,
        warm_start=warm,
        screen=screen,
        incumbent_x=last_x,
    )
    return (
        assignment,
        problem.last_x,
        problem.screened_solves - screened_before,
        problem.warm_hits - warm_before,
    )


def solve_decomposed(
    instance: SPMInstance,
    config: DecompConfig | None = None,
    *,
    ledger: BandwidthLedger | None = None,
    budget: "CycleBudget | None" = None,
    pool: SolverPool | None = None,
) -> DecompOutcome:
    """Solve ``instance`` by sharded Lagrangian price iteration.

    Pass ``ledger`` to coordinate through caller-owned dual state (the
    sharded broker carries its ledger across cycles); by default a fresh
    ledger is built from the instance under ``config``'s step schedule.
    The returned outcome's schedule is always feasible for the
    topology's link ceilings.

    ``budget`` (a :class:`~repro.resilience.budget.CycleBudget`) makes
    the price iteration deadline-aware: each round's shard solves share
    a shrinking slice of the remaining budget (split across the shards
    still to solve this round, clipped to ``config.time_limit``), and an
    expired budget ends the rounds loop early — the current incumbent
    assignments are reconciled and returned instead of iterating on.

    ``config.workers >= 2`` (or an explicit ``pool``) runs each round's
    shard solves concurrently across processes; pass a long-lived
    ``pool`` to amortize worker startup across calls (the sharded broker
    does).  A ``budget`` forces the serial path — its per-shard deadline
    slicing is ordered by construction.
    """
    config = config or DecompConfig()
    if ledger is None:
        ledger = _ledger_for(instance, config)
    shard_ids = partition_requests(
        instance.topology, instance.requests, config.num_shards, config.mode
    )
    problems = [
        _ShardProblem(shard_id, instance.restrict(ids))
        for shard_id, ids in enumerate(shard_ids)
        if ids
    ]

    use_pool = budget is None and len(problems) >= 2 and (
        pool is not None or config.workers >= 2
    )
    owned_pool: SolverPool | None = None
    if use_pool and pool is None:
        owned_pool = pool = SolverPool(
            min(config.workers, len(problems)), cache_size=0
        )
    token = (os.getpid(), next(_TOKENS))

    rounds = 0
    max_violation = 0.0
    prev_violation: float | None = None
    stalled = 0
    deadline_hit = False
    screened_solves = 0
    warm_hits = 0
    try:
        while True:
            effective = ledger.effective_prices()
            ledger.begin_round()
            if use_pool:
                payloads = [
                    (
                        token,
                        problem.shard_id,
                        problem.instance,
                        effective,
                        config.time_limit,
                        config.warm_start,
                        config.screen,
                        problem.last_x,
                    )
                    for problem in problems
                ]
                for problem, result in zip(
                    problems, pool.imap(_solve_shard_task, payloads)
                ):
                    assignment, x, screened, warm = result
                    problem.adopt(assignment, x)
                    screened_solves += screened
                    warm_hits += warm
                    ledger.post(
                        problem.shard_id, problem.instance.loads(assignment)
                    )
            else:
                for position, problem in enumerate(problems):
                    if budget is not None and not budget.affords_solver(
                        shares=len(problems) - position
                    ):
                        # Starved mid-round: keep the shard's incumbent from
                        # the previous round, or greedy if it has none.
                        deadline_hit = True
                        if not problem.assignment:
                            problem.fallback(effective)
                        assignment = problem.assignment
                    else:
                        limit = config.time_limit
                        if budget is not None:
                            limit = budget.solve_limit(
                                shares=len(problems) - position,
                                cap=config.time_limit,
                            )
                        assignment = problem.solve(
                            effective,
                            time_limit=limit,
                            warm_start=config.warm_start,
                            screen=config.screen,
                        )
                    ledger.post(
                        problem.shard_id, problem.instance.loads(assignment)
                    )
            rounds += 1
            max_violation = (
                float(ledger.violation().max()) if ledger.num_edges else 0.0
            )
            if budget is not None and not budget.affords_solver(
                shares=max(len(problems), 1)
            ):
                deadline_hit = True
            if config.stall_rounds:
                if (
                    prev_violation is not None
                    and max_violation > config.stall_decay * prev_violation
                ):
                    stalled += 1
                else:
                    stalled = 0
                prev_violation = max_violation
            if (
                max_violation <= config.tolerance
                or rounds >= config.max_rounds
                or not ledger.capped
                or deadline_hit
                or (config.stall_rounds and stalled >= config.stall_rounds)
            ):
                break
            ledger.update_prices()
    finally:
        if owned_pool is not None:
            owned_pool.shutdown()
    if not use_pool:
        screened_solves = sum(p.screened_solves for p in problems)
        warm_hits = sum(p.warm_hits for p in problems)

    assignment: dict[int, int | None] = {
        rid: None for rid in instance.requests.request_ids
    }
    for problem in problems:
        assignment.update(problem.assignment)
    evicted = reconcile(instance, assignment, ledger.capacities)
    ledger.record_evictions(len(evicted))

    schedule = Schedule(instance, assignment)
    schedule.check_capacities(instance.topology.capacities())
    return DecompOutcome(
        schedule=schedule,
        shards=[problem.outcome() for problem in problems],
        ledger=ledger,
        rounds=rounds,
        max_violation=max_violation,
        evicted=tuple(evicted),
        screened_solves=screened_solves,
        warm_hits=warm_hits,
        workers=(pool.workers if use_pool else 1),
    )


def solve_exact(
    instance: SPMInstance, *, time_limit: float | None = None
) -> Schedule:
    """The single-shard oracle: one full-SPM MILP over every request.

    Honors the topology's per-link ceilings through the compiled model's
    ``c``-column upper bounds, so it is the exact benchmark for both the
    capped and the uncapped decomposition.
    """
    formulation = instance.formulation_compiler().compile_spm(instance)
    raw = solve_compiled_raw(formulation.compiled, time_limit=time_limit)
    if raw.x is None:
        raise SolverError(
            f"exact solve returned no incumbent (status {raw.status.value})"
        )
    return Schedule(instance, _choices(formulation, raw.x))


def profit_gap_bound(instance: SPMInstance, num_shards: int) -> float:
    """The additive decomposition penalty: ``(S - 1) * sum_e u_e``.

    Valid on uncapped instances whose per-edge loads peak in a common
    slot (in particular when every request spans the full billing
    cycle): each edge then loses at most ``S - 1`` integer purchase
    units to sum-of-ceilings versus ceiling-of-sum, and each shard's
    subproblem is otherwise solved exactly.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return float((num_shards - 1) * instance.prices.sum())


def oracle_gap(
    instance: SPMInstance, config: DecompConfig | None = None
) -> dict:
    """Decomposed-versus-exact comparison on one instance.

    Returns the two profits, their gap (``exact - decomposed``), the
    additive bound of :func:`profit_gap_bound`, and whether the gap is
    within it.  Intended for small instances where the exact MILP is
    cheap — the equivalence harness of the decomposition tests.
    """
    config = config or DecompConfig()
    outcome = solve_decomposed(instance, config)
    exact = solve_exact(instance, time_limit=config.time_limit)
    gap = exact.profit - outcome.profit
    bound = profit_gap_bound(instance, config.num_shards)
    return {
        "decomposed": outcome.profit,
        "exact": exact.profit,
        "gap": gap,
        "bound": bound,
        "within_bound": bool(gap <= bound + _TOL),
        "rounds": outcome.rounds,
        "evicted": len(outcome.evicted),
    }
