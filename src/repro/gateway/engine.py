"""The live cycle engine: the gateway's :class:`CycleEngine`.

A live gateway only learns what arrived when a real window closes, so
it pushes each window's drained batch into
:meth:`LiveCycleEngine.decide` — the same
:class:`~repro.service.broker.CycleEngine` kernel the broker's
:func:`~repro.service.broker.run_cycle` drives.  :meth:`close_cycle`
returns an ordinary :class:`~repro.service.broker.CycleResult`, which is
what lets the durability layer journal gateway cycles through the exact
same ``batch``/``cycle`` records — and the WAL crash matrix — as broker
runs.

What is gateway-specific is input from outside the program: a bid id
already decided this cycle is refused with a :class:`GatewayError`.
"""

from __future__ import annotations

# Both names stay bound here for perfbench/spans.py, which wraps them.
from repro.core.online import commit_decision, solve_batch  # noqa: F401
from repro.exceptions import GatewayError
from repro.service.broker import CycleEngine
from repro.workload.request import Request

__all__ = ["LiveCycleEngine"]


class LiveCycleEngine(CycleEngine):
    """Streaming admission state for one gateway (cycle after cycle)."""

    def seen(self, request_id: int) -> bool:
        """Was ``request_id`` already decided this cycle?"""
        return request_id in self.assignment

    def decide(
        self,
        batch: list[Request],
        *,
        window_start: int,
        window_shed: int = 0,
    ) -> list[int | None]:
        """Decide one closed window; refuses bid ids already decided."""
        fresh: set[int] = set()
        for req in batch:
            if req.request_id in self.assignment or req.request_id in fresh:
                raise GatewayError(
                    f"request_id {req.request_id} already decided in "
                    f"cycle {self.cycle}"
                )
            fresh.add(req.request_id)
        return super().decide(
            batch, window_start=window_start, window_shed=window_shed
        )
