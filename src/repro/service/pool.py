"""The solver worker pool: parallel cycle decisions across processes.

Billing cycles are independent — each starts from empty committed state
and its own arrival stream — so a multi-cycle broker run parallelizes
perfectly across a :class:`concurrent.futures.ProcessPoolExecutor`.  The
same machinery shards any list of independent decision payloads (e.g.
disjoint topology shards), which is why the pool is payload-agnostic: it
maps a picklable module-level function over payloads and returns results
in submission order.

Two serving-specific behaviors are layered on top of the bare executor:

* **per-process decision cache** — each worker process owns a
  :class:`~repro.service.cache.DecisionCache` (installed by the pool
  initializer and reached via :func:`worker_cache`), so recurring
  sub-instances hit even across tasks executed by the same worker;
* **cooperative cancellation** — a shared :class:`multiprocessing.Event`
  is polled by workers between solves (via :func:`check_cancelled`, wired
  down to :func:`repro.lp.solvers.solve_compiled_raw`); when any task fails,
  the pool sets the event and cancels queued futures so a broken run
  drains quickly instead of grinding through doomed MILPs;
* **worker-death recovery** — an abruptly dead worker (OOM kill, segfault,
  the fault harness's ``os._exit``) breaks a bare
  ``ProcessPoolExecutor`` permanently.  The pool instead rebuilds the
  executor and resubmits every task that had no result yet, up to
  ``max_restarts`` times; tasks must therefore be idempotent, which
  broker cycles are (deterministic, starting from empty state).
  Consecutive rebuilds are paced by an
  :class:`~repro.resilience.breaker.ExponentialBackoff` with
  deterministic seeded jitter (a crash loop must not hot-spin the fork
  path); the accumulated sleep is exposed as :attr:`backoff_seconds`.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable

from repro.exceptions import SolverError
from repro.resilience.breaker import ExponentialBackoff

from repro.service.cache import DecisionCache

__all__ = ["SolverPool", "worker_cache", "check_cancelled"]

# Per-worker-process state, installed by _initialize_worker.
_WORKER_CACHE: DecisionCache | None = None
_CANCEL_EVENT = None


def _initialize_worker(cancel_event, cache_size: int) -> None:
    global _WORKER_CACHE, _CANCEL_EVENT
    _CANCEL_EVENT = cancel_event
    _WORKER_CACHE = DecisionCache(cache_size) if cache_size > 0 else None


def worker_cache() -> DecisionCache | None:
    """This worker process's decision cache (``None`` outside a pool)."""
    return _WORKER_CACHE


def check_cancelled() -> bool:
    """Whether the owning pool has requested cooperative cancellation."""
    return _CANCEL_EVENT is not None and _CANCEL_EVENT.is_set()


class SolverPool:
    """A process pool for independent solve tasks, with ordered results.

    ``workers`` fixes the process count; ``cache_size`` sizes each worker's
    private decision cache (0 disables caching); ``max_restarts`` bounds
    how many times a dead worker may break (and rebuild) the executor
    before the run is abandoned.  ``backoff`` paces those rebuilds
    (defaults to a seeded :class:`~repro.resilience.breaker.ExponentialBackoff`;
    pass your own to control seed/cap, and read :attr:`backoff_seconds`
    for the total sleep).  Use as a context manager or call
    :meth:`shutdown` explicitly.
    """

    def __init__(
        self,
        workers: int,
        *,
        cache_size: int = 1024,
        max_restarts: int = 3,
        backoff: ExponentialBackoff | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.workers = workers
        self.cache_size = cache_size
        self.max_restarts = max_restarts
        self.worker_restarts = 0
        self.backoff = backoff if backoff is not None else ExponentialBackoff()
        self._sleep = sleep
        self._cancel_event = multiprocessing.Event()
        self._executor = self._make_executor()

    @property
    def backoff_seconds(self) -> float:
        """Total seconds slept between executor restarts (telemetry)."""
        return self.backoff.total_seconds

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_initialize_worker,
            initargs=(self._cancel_event, self.cache_size),
        )

    def _restart_executor(self) -> None:
        self.worker_restarts += 1
        if self.worker_restarts > self.max_restarts:
            raise SolverError(
                f"worker pool broke {self.worker_restarts} times "
                f"(max_restarts={self.max_restarts}); giving up"
            )
        self._sleep(self.backoff.next_delay())
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._make_executor()

    def map(self, fn: Callable[[Any], Any], payloads: list[Any]) -> list[Any]:
        """Run ``fn(payload)`` for every payload; results in payload order.

        On the first task failure the pool cancels everything still queued,
        signals running workers to stop cooperatively, and re-raises the
        task's exception.  A *dead worker* (not a task exception) is
        handled by restarting the executor — see :meth:`imap`.
        """
        return list(self.imap(fn, payloads))

    def imap(
        self, fn: Callable[[Any], Any], payloads: list[Any]
    ) -> Iterator[Any]:
        """Yield results in payload order, as soon as each is available.

        Results stream in submission order so a consumer can act on early
        payloads (the broker journals cycle commits) while later ones are
        still solving.  When a worker process dies, every task without a
        result is resubmitted to a fresh executor; tasks that already
        completed are never re-executed, and already-yielded results are
        unaffected.
        """
        pending = list(enumerate(payloads))
        done: dict[int, Any] = {}
        next_index = 0
        while pending:
            futures = [
                (index, payload, self._executor.submit(fn, payload))
                for index, payload in pending
            ]
            retry = []
            broken = False
            for index, payload, future in futures:
                try:
                    done[index] = future.result()
                except BrokenProcessPool:
                    broken = True
                    retry.append((index, payload))
                except BaseException:
                    self.cancel()
                    raise
                else:
                    while next_index in done:
                        yield done.pop(next_index)
                        next_index += 1
            if broken:
                self._restart_executor()
            else:
                self.backoff.reset()
            pending = retry
        while next_index in done:
            yield done.pop(next_index)
            next_index += 1

    def submit(self, fn: Callable[[Any], Any], payload: Any):
        """Submit one task; returns the raw :class:`~concurrent.futures.Future`.

        The escape hatch for callers that need *per-task* deadlines —
        the sharded broker's hedged solves call
        ``future.result(timeout=...)`` per shard so one hung shard can be
        degraded alone while its siblings' results are still consumed.
        Unlike :meth:`imap`, a broken pool is the caller's to handle
        (call :meth:`restart` and resubmit, or fall back locally).
        """
        return self._executor.submit(fn, payload)

    def restart(self) -> None:
        """Rebuild the executor after a broken pool (backoff-paced).

        Public form of the recovery :meth:`imap` performs internally, for
        :meth:`submit` callers that own their retry logic.
        """
        self._restart_executor()

    def cancel(self) -> None:
        """Signal cooperative cancellation and drop queued (unstarted) tasks."""
        self._cancel_event.set()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.cancel()
        self.shutdown()

    def __repr__(self) -> str:
        return f"SolverPool(workers={self.workers}, cache_size={self.cache_size})"
