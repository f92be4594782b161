"""Solver results."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = ["SolveStatus", "RawSolution"]


class SolveStatus(Enum):
    """Normalized solver outcome.

    ``OPTIMAL`` is a proven optimum.  ``FEASIBLE`` means the solver hit its
    iteration/time limit but returned an incumbent: a valid,
    constraint-respecting solution that is merely possibly suboptimal.
    ``TIME_LIMIT`` is a limit hit with *no* incumbent — the solve produced
    nothing usable.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    TIME_LIMIT = "time_limit"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class RawSolution:
    """An array-form solver result.

    ``x`` is the raw solution vector in column order (``None`` when the
    solve produced no usable point); integer columns are *not* rounded —
    consumers index it directly, through the column maps of the builder
    that assembled the model (e.g.
    :attr:`~repro.core.fastform.CompiledFormulation.x_offsets`).

    ``upper_duals`` (LP path only, on request) holds one dual value per
    *original* model row for its upper-bound side — equality rows carry
    their equality dual, rows with no finite upper bound carry 0.  The
    warm-start layer (:mod:`repro.lp.warmstart`) uses them to certify that
    a right-hand-side change cannot move the optimum.
    """

    status: SolveStatus
    objective: float
    x: np.ndarray | None = None
    upper_duals: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    @property
    def is_feasible(self) -> bool:
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
