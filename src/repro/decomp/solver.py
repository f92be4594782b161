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

from dataclasses import dataclass, field

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import CEIL_TOL, Schedule
from repro.decomp.ledger import BandwidthLedger, reconcile
from repro.decomp.partition import PARTITION_MODES, partition_requests
from repro.exceptions import SolverError
from repro.lp.fastbuild import with_objective
from repro.lp.solvers import solve_compiled_raw
from repro.lp.warmstart import ResolveSession

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

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.mode not in PARTITION_MODES:
            raise ValueError(
                f"mode must be one of {PARTITION_MODES}, got {self.mode!r}"
            )
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


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

    @property
    def profit(self) -> float:
        return self.schedule.profit


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

    Its :class:`~repro.lp.warmstart.ResolveSession` is anchored once on
    the shard's compiled arrays (``with_objective`` aliases every array
    but ``c``, so the anchor survives every round): converged effective
    prices repeat the exact ``(c, bounds)`` key and the cached optimum is
    returned without a solver call.
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

    def solve(self, effective_prices: np.ndarray) -> dict[int, int | None]:
        objective = np.concatenate([self._values_head, -effective_prices])
        shifted = with_objective(self.formulation.compiled, objective)
        raw = self.session.solve(shifted)
        if raw.x is None:
            raise SolverError(
                f"shard {self.shard_id} solve returned no incumbent "
                f"(status {raw.status.value})"
            )
        self.assignment = _choices(self.formulation, raw.x)
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


def solve_decomposed(
    instance: SPMInstance, config: DecompConfig | None = None
) -> DecompOutcome:
    """Solve ``instance`` by sharded Lagrangian price iteration.

    A fresh ledger over the instance carries the duals.  Each round
    solves every shard in turn; the rounds stop once the worst per-edge
    violation is within :data:`~repro.core.schedule.CEIL_TOL` or after
    ``config.max_rounds``.  The returned outcome's schedule is always
    feasible for the topology's link ceilings.
    """
    config = config or DecompConfig()
    ledger = BandwidthLedger.from_instance(instance)
    shard_ids = partition_requests(
        instance.topology, instance.requests, config.num_shards, config.mode
    )
    problems = [
        _ShardProblem(shard_id, instance.restrict(ids))
        for shard_id, ids in enumerate(shard_ids)
        if ids
    ]

    rounds = 0
    while True:
        effective = ledger.effective_prices()
        ledger.begin_round()
        for problem in problems:
            assignment = problem.solve(effective)
            ledger.post(problem.shard_id, problem.instance.loads(assignment))
        rounds += 1
        max_violation = (
            float(ledger.violation().max()) if ledger.num_edges else 0.0
        )
        if max_violation <= CEIL_TOL or rounds >= config.max_rounds:
            break
        ledger.update_prices()

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
    exact = solve_exact(instance)
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
