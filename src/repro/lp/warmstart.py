"""Warm-started re-solves: one compiled structure, many cheap solves.

Every hot loop in this library re-solves a *structurally identical* model
over and over: the Metis alternation re-solves BL-SPM with only capacity
right-hand sides shrinking and repeats the very same RL-SPM relaxation
``maa_rounds`` times per round; the Lagrangian price iteration of
:mod:`repro.decomp` re-solves each shard's SPM with only objective
coefficients (the effective prices ``u + lambda``) moving.  A
:class:`ResolveSession` owns one such structure and exploits what changed
between consecutive solves, with two reuse tiers that are *certified* —
never heuristic — so the session's answers are bitwise-identical to what a
cold solve would return:

**Exact-repeat reuse.**  Solves are keyed by the bytes of ``(c,
row_upper, row_lower)``.  A byte-identical model is the same model; the
cached :class:`~repro.lp.result.RawSolution` is returned outright.  This
is the dominant hit for MAA, whose repeated randomized roundings all start
from one identical RL-SPM relaxation per round.

**Certified dual reuse (LPs only).**  When only ``row_upper`` moved, the
previous optimum ``x*`` remains optimal iff (a) ``x*`` still satisfies
every changed row and (b) every changed row had an exactly-zero dual.
Zero duals keep the old dual solution feasible for the new problem with an
unchanged dual objective, and (a) keeps ``x*`` primal feasible, so strong
duality pins the optimum: both bounds meet at the old objective value.
The session then returns the previous solution without dispatching HiGHS
at all.  Rows whose bound change breaks the certificate (a tightened
binding row, a nonzero dual) trigger an honest cold solve.  Duals are
HiGHS's row duals, read by the driver on every cold LP solve.

Only ``OPTIMAL`` results enter either tier: any other result is returned
to the caller but never cached (an incumbent is not a certificate of
anything).

Reuse is not optional: MAA, TAA and the decomposition's shard loop solve
every relaxation through a session, and none of them takes a switch to
bypass it.  The cold reference, every solve dispatched afresh, is the
test oracle ``tests/oracles/reuse.py::no_reuse()``.

The bitwise guarantee rests on an empirical property of HiGHS that the
equivalence suites (``tests/test_lp_warmstart.py``) enforce: re-solving
after a slack, zero-dual bound change reproduces not just the objective
but the identical solution vector — the optimal basis is unchanged, and
the basic solution is a deterministic factorization of the same basis.

:func:`relax` builds the LP relaxation of a MILP while *sharing* every
array (and the solver's row-split cache) with the parent — the
degradation ladder's ``lp_round`` rung rounds its fractional solution.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.lp import solvers as _solvers
from repro.lp.model import CompiledModel
from repro.lp.result import RawSolution, SolveStatus

__all__ = ["ResolveSession", "SessionStats", "relax"]

#: Bound of each session's exact-repeat LRU.
CACHE_SIZE = 8


def relax(compiled: CompiledModel) -> CompiledModel:
    """The LP relaxation of ``compiled``, sharing every other array.

    Integrality is the only field replaced, so the relaxation aliases the
    parent's matrix, bounds and row-split cache; models that are already
    pure LPs are returned as-is.
    """
    if not np.any(compiled.integrality):
        return compiled
    return replace(
        compiled, integrality=np.zeros_like(compiled.integrality)
    )


@dataclass
class SessionStats:
    """Reuse counters of one :class:`ResolveSession` (telemetry)."""

    cold_solves: int = 0
    repeat_hits: int = 0
    certified_hits: int = 0


class _LastSolve:
    """The certificate state of the most recent cold OPTIMAL LP solve."""

    __slots__ = ("key", "row_upper", "activity", "solution")

    def __init__(self, key, row_upper, activity, solution) -> None:
        self.key = key
        self.row_upper = row_upper
        self.activity = activity
        self.solution = solution


class ResolveSession:
    """Owns one compiled structure across structurally-identical solves.

    The session anchors on the first model it sees: the constraint matrix,
    column bounds and integrality pattern must be the *same objects* on
    every later call (exactly what :func:`~repro.lp.fastbuild.with_row_upper`
    and :func:`~repro.lp.fastbuild.with_objective` derivatives provide).  A
    model with a different structure re-anchors the session, dropping all
    cached state — so holding one session per cached formulation structure
    is always safe, never wrong.

    :data:`CACHE_SIZE` bounds the exact-repeat LRU; certificate state is
    one extra solution.  Returned solutions are shared objects — callers
    must treat ``x`` as read-only (every consumer in this library already
    does).
    """

    def __init__(self) -> None:
        self.stats = SessionStats()
        self._anchor: tuple | None = None
        self._is_milp = False
        self._cache: OrderedDict[tuple, RawSolution] = OrderedDict()
        self._last: _LastSolve | None = None

    # ------------------------------------------------------------ internals

    def _anchored(self, compiled: CompiledModel) -> None:
        anchor = (
            id(compiled.a_matrix),
            id(compiled.var_lower),
            id(compiled.var_upper),
            id(compiled.integrality),
        )
        if self._anchor != anchor:
            self._anchor = anchor
            self._is_milp = bool(np.any(compiled.integrality))
            self._cache.clear()
            self._last = None

    @staticmethod
    def _key(compiled: CompiledModel) -> tuple:
        return (
            compiled.c.tobytes(),
            compiled.row_upper.tobytes(),
            compiled.row_lower.tobytes(),
        )

    def _certified(self, compiled: CompiledModel, key: tuple) -> RawSolution | None:
        """The previous optimum, iff the dual certificate covers the change."""
        last = self._last
        if last is None or self._is_milp:
            return None
        if key[0] != last.key[0] or key[2] != last.key[2]:
            return None  # objective or row lower bounds moved
        new_upper = compiled.row_upper
        changed = np.flatnonzero(new_upper != last.row_upper)
        if changed.size == 0:
            # Values compare equal though bytes differ (-0.0 vs +0.0):
            # mathematically the same model.
            return last.solution
        duals = last.solution.upper_duals
        if duals is None or not np.all(np.isfinite(new_upper[changed])):
            return None
        if np.any(duals[changed] != 0.0):
            return None
        if np.any(last.activity[changed] > new_upper[changed]):
            return None
        return last.solution

    def _remember(self, key: tuple, solution: RawSolution) -> None:
        self._cache[key] = solution
        self._cache.move_to_end(key)
        while len(self._cache) > CACHE_SIZE:
            self._cache.popitem(last=False)

    # -------------------------------------------------------------- solving

    def solve(self, compiled: CompiledModel) -> RawSolution:
        """Solve ``compiled``, reusing prior work whenever certified.

        Semantics match :func:`repro.lp.solvers.solve_compiled_raw`
        without a time limit exactly; the only difference is that
        byte-identical repeats and certified-slack bound changes skip the
        backend dispatch.
        """
        self._anchored(compiled)
        key = self._key(compiled)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.repeat_hits += 1
            return cached
        certified = self._certified(compiled, key)
        if certified is not None:
            self.stats.certified_hits += 1
            self._remember(key, certified)
            return certified
        if self._is_milp:
            solution = _solvers._solve_milp(compiled)
        else:
            solution = _solvers._solve_lp(compiled, duals=True)
        self.stats.cold_solves += 1
        if solution.status is SolveStatus.OPTIMAL:
            self._remember(key, solution)
            if not self._is_milp and solution.x is not None:
                self._last = _LastSolve(
                    key=key,
                    row_upper=compiled.row_upper,
                    activity=compiled.a_matrix @ solution.x,
                    solution=solution,
                )
        return solution

    def __repr__(self) -> str:
        return (
            f"ResolveSession(cold={self.stats.cold_solves}, "
            f"repeat={self.stats.repeat_hits}, "
            f"certified={self.stats.certified_hits})"
        )
