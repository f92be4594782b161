"""The variable-keyed solver result of the oracle expression layer."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lp.result import SolveStatus

from tests.oracles.lp.expr import LinExpr, Variable

__all__ = ["Solution"]


@dataclass
class Solution:
    """An optimization result.

    ``objective`` is in the model's original sense (maximization objectives
    are reported as maximization values).  ``values`` maps every model
    variable to its solution value; integer variables from the MILP path are
    rounded to exact ints.  For ``FEASIBLE`` results the objective and
    values describe the incumbent.
    """

    status: SolveStatus
    objective: float
    values: dict[Variable, float] = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    @property
    def is_feasible(self) -> bool:
        """Whether a usable (optimal or incumbent) solution is present."""
        return self.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)

    def __getitem__(self, var: Variable) -> float:
        return self.values[var]

    def value_of(self, expr: LinExpr | Variable) -> float:
        """Evaluate an expression (or variable) under this solution."""
        if isinstance(expr, Variable):
            return self.values[expr]
        return expr.value(self.values)
