"""Linear constraints for the LP layer.

A constraint is stored in normalized form ``expr (sense) 0`` where ``expr``
absorbs both sides; the solver-facing form ``lhs-terms (sense) rhs`` is
recovered via :attr:`Constraint.rhs`.
"""

from __future__ import annotations

from repro.exceptions import ModelError
from tests.oracles.lp.expr import LinExpr, Variable

__all__ = ["Constraint", "SENSES"]

SENSES = ("<=", ">=", "==")


class Constraint:
    """A linear constraint ``expr <= 0``, ``expr >= 0`` or ``expr == 0``."""

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in SENSES:
            raise ModelError(f"invalid constraint sense {sense!r}; use one of {SENSES}")
        if not isinstance(expr, LinExpr):
            raise ModelError(f"constraint expression must be LinExpr, got {type(expr)!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    @property
    def terms(self) -> dict[Variable, float]:
        """Variable coefficients on the left-hand side."""
        return self.expr.terms

    @property
    def rhs(self) -> float:
        """Right-hand side after moving the constant over: ``-expr.constant``."""
        return -self.expr.constant

    def is_satisfied(self, assignment: dict[Variable, float], tol: float = 1e-7) -> bool:
        """Whether ``assignment`` satisfies the constraint within ``tol``."""
        lhs = self.expr.value(assignment)
        if self.sense == "<=":
            return lhs <= tol
        if self.sense == ">=":
            return lhs >= -tol
        return abs(lhs) <= tol

    def violation(self, assignment: dict[Variable, float]) -> float:
        """Non-negative violation magnitude under ``assignment``."""
        lhs = self.expr.value(assignment)
        if self.sense == "<=":
            return max(0.0, lhs)
        if self.sense == ">=":
            return max(0.0, -lhs)
        return abs(lhs)

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense} 0{label})"
