"""Wall-clock budgets for billing cycles.

A :class:`CycleBudget` is the single source of truth for "how much time
does this cycle have left".  The broker starts one per cycle; every
solve asks it for a time limit via :meth:`solve_limit`, which hands out
a *shrinking* slice of the remaining budget (never the whole of it), so
early batches cannot starve late ones, and the ladder can detect —
before dispatching a solver — that only the greedy rung still fits.

The budget is deliberately dumb about *what* consumes time: it reads an
injectable monotonic clock, which is also what makes it unit-testable
without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["CycleBudget"]


class CycleBudget:
    """One cycle's wall-clock deadline, split into per-solve slices.

    ``deadline_seconds`` is the cycle's total decision budget.  Each call
    to :meth:`solve_limit` grants at most ``spread`` of the remaining
    time (default: half), clipped below by ``min_slice`` — the floor
    under which a MILP dispatch is pointless and the ladder should go
    straight to its greedy rung (see
    :meth:`~repro.resilience.ladder.DegradationLadder.decide`).

    ``clock`` injects the time source (monotonic seconds); tests pass a
    fake to step time deterministically.
    """

    def __init__(
        self,
        deadline_seconds: float,
        *,
        spread: float = 0.5,
        min_slice: float = 0.02,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not (deadline_seconds > 0):
            raise ValueError(
                f"deadline_seconds must be > 0, got {deadline_seconds!r}"
            )
        if not (0 < spread <= 1):
            raise ValueError(f"spread must be in (0, 1], got {spread!r}")
        if min_slice < 0:
            raise ValueError(f"min_slice must be >= 0, got {min_slice!r}")
        self.deadline_seconds = float(deadline_seconds)
        self.spread = float(spread)
        self.min_slice = float(min_slice)
        self._clock = clock
        self._epoch = clock()

    def restart(self) -> None:
        """Re-arm the full deadline (the broker calls this per cycle)."""
        self._epoch = self._clock()

    def elapsed(self) -> float:
        return max(0.0, self._clock() - self._epoch)

    def remaining(self) -> float:
        return max(0.0, self.deadline_seconds - self.elapsed())

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def solve_limit(self, *, cap: float | None = None) -> float:
        """The time limit to hand the next solve (seconds, >= 0).

        ``cap`` clips the result (the static per-solve ``time_limit``
        config keeps meaning something even under a generous budget);
        ``None`` leaves it unclipped.

        Returns 0.0 once the budget is exhausted — callers must not
        dispatch a solver on a zero limit.
        """
        remaining = self.remaining()
        if remaining <= 0.0:
            return 0.0
        limit = remaining * self.spread
        if cap is not None:
            limit = min(limit, cap)
        return limit

    def affords_solver(self) -> bool:
        """Whether a solver dispatch still fits (slice >= ``min_slice``)."""
        return self.solve_limit() >= self.min_slice

    def __repr__(self) -> str:
        return (
            f"CycleBudget(deadline={self.deadline_seconds}, "
            f"remaining={self.remaining():.3f}s)"
        )
