"""Circuit breakers and restart backoff for the solver layer.

:class:`CircuitBreaker` is the classic three-state machine guarding a
fallible dependency (here: exact MILP solves through a worker pool):

* **closed** — requests flow normally; consecutive failures are counted;
* **open** — after ``failure_threshold`` consecutive failures the
  breaker trips: :meth:`allow` answers ``False`` and callers route work
  to a fallback (the ladder's greedy rung) without touching the solver;
* **half-open** — once ``reset_seconds`` have passed, exactly one probe
  is allowed through; its success closes the breaker, its failure
  re-opens it for another full reset window.

:class:`ExponentialBackoff` paces executor restarts: exponentially
growing delays with *deterministic seeded jitter*, so two runs with the
same seed sleep identically (the crash-equivalence tests depend on
determinism everywhere) while a fleet of brokers with distinct seeds
de-synchronizes its restart stampedes.

Both classes take an injectable clock so tests never sleep.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from repro.exceptions import ReproError

__all__ = ["BreakerOpen", "CircuitBreaker", "ExponentialBackoff"]

#: The breaker's three states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class BreakerOpen(ReproError):
    """An operation was refused because its circuit breaker is open."""


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probes.

    ``failure_threshold`` consecutive :meth:`record_failure` calls open
    the breaker; after ``reset_seconds`` one :meth:`allow` returns
    ``True`` as the half-open probe.  Counters (``opens``, ``failures``,
    ``probes``, ``short_circuits``) feed telemetry.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if not reset_seconds >= 0:
            raise ValueError(f"reset_seconds must be >= 0, got {reset_seconds!r}")
        self.failure_threshold = failure_threshold
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._state = CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self._probing = False
        self.opens = 0
        self.failures = 0
        self.probes = 0
        self.short_circuits = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (clock-aware)."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.reset_seconds
        ):
            return HALF_OPEN
        return self._state

    def allow(self) -> bool:
        """May the caller attempt the guarded operation right now?

        In the half-open state exactly one caller is granted the probe;
        everyone else is short-circuited until the probe reports back.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probing:
            self._probing = True
            self.probes += 1
            return True
        self.short_circuits += 1
        return False

    def record_success(self) -> None:
        """The guarded operation succeeded: close (or keep closed)."""
        self._consecutive = 0
        self._probing = False
        self._state = CLOSED

    def record_failure(self) -> None:
        """The guarded operation failed: count, and open on the threshold."""
        self.failures += 1
        if self._probing:
            # The half-open probe failed: straight back to open.
            self._probing = False
            self._consecutive = self.failure_threshold
        else:
            self._consecutive += 1
        if self._consecutive >= self.failure_threshold and self._state != OPEN:
            self._state = OPEN
            self.opens += 1
            self._opened_at = self._clock()
        elif self._state == OPEN:
            # Re-arm the reset window after a failed probe.
            self._opened_at = self._clock()

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"consecutive={self._consecutive}/{self.failure_threshold}, "
            f"opens={self.opens})"
        )


class ExponentialBackoff:
    """Exponential delays with deterministic (seeded) jitter.

    The ``n``-th delay is ``base * factor**n``, capped at ``cap``, then
    scaled by ``1 + jitter * u`` where ``u`` is the seeded RNG's next
    uniform draw — deterministic for a fixed seed, de-correlated across
    seeds.  :attr:`total_seconds` accumulates every granted delay (the
    pool reports it to telemetry).
    """

    def __init__(
        self,
        *,
        base: float = 0.05,
        factor: float = 2.0,
        cap: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
    ) -> None:
        if base < 0:
            raise ValueError(f"base must be >= 0, got {base!r}")
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor!r}")
        if cap < base:
            raise ValueError(f"cap must be >= base, got {cap!r}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter!r}")
        self.base = float(base)
        self.factor = float(factor)
        self.cap = float(cap)
        self.jitter = float(jitter)
        self._rng = random.Random(seed)
        self._attempt = 0
        self.total_seconds = 0.0

    def next_delay(self) -> float:
        """The next delay (seconds); advances the attempt counter."""
        raw = min(self.base * self.factor**self._attempt, self.cap)
        self._attempt += 1
        delay = raw * (1.0 + self.jitter * self._rng.random())
        self.total_seconds += delay
        return delay

    def reset(self) -> None:
        """Back to the first rung (a success ends the incident)."""
        self._attempt = 0

    def __repr__(self) -> str:
        return (
            f"ExponentialBackoff(attempt={self._attempt}, "
            f"total={self.total_seconds:.3f}s)"
        )
