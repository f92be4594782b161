"""Symbolic variables and affine expressions for the LP layer.

A :class:`LinExpr` is a sparse mapping ``variable -> coefficient`` plus a
constant.  Expressions support ``+``, ``-``, scalar ``*``/``/`` and the
comparison operators, which build
:class:`~tests.oracles.lp.constraint.Constraint` objects — enough to state
every formulation in the paper readably::

    model.add_constr(sum(x[i, j] for j in paths) <= 1)
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Union

from repro.exceptions import ModelError

if TYPE_CHECKING:
    from tests.oracles.lp.constraint import Constraint

__all__ = ["Variable", "LinExpr"]

Number = Union[int, float]


class Variable:
    """A decision variable with bounds and an integrality flag.

    Create variables through
    :meth:`tests.oracles.lp.model.Model.add_var`, which assigns the solver
    column ``index``.
    """

    __slots__ = ("name", "lower", "upper", "is_integer", "index")

    def __init__(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
        *,
        is_integer: bool = False,
        index: int = -1,
    ) -> None:
        if not name:
            raise ModelError("variable name must be non-empty")
        if math.isnan(lower) or math.isnan(upper):
            raise ModelError(f"variable {name!r}: bounds may not be NaN")
        if lower > upper:
            raise ModelError(
                f"variable {name!r}: lower bound {lower} exceeds upper bound {upper}"
            )
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)
        self.is_integer = bool(is_integer)
        self.index = index

    # Arithmetic delegates to LinExpr so `2 * x + y - 1` just works.

    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self._as_expr() + other

    __radd__ = __add__

    def __sub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return (-self._as_expr()) + other

    def __mul__(self, other: Number) -> "LinExpr":
        return self._as_expr() * other

    __rmul__ = __mul__

    def __truediv__(self, other: Number) -> "LinExpr":
        return self._as_expr() / other

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    def __le__(self, other: "Variable | LinExpr | Number") -> "Constraint":
        return self._as_expr() <= other

    def __ge__(self, other: "Variable | LinExpr | Number") -> "Constraint":
        return self._as_expr() >= other

    def __eq__(self, other: object) -> object:
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self._as_expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        kind = "int" if self.is_integer else "cont"
        return f"Variable({self.name!r}, [{self.lower}, {self.upper}], {kind})"


class LinExpr:
    """A sparse affine expression ``sum(coef * var) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self, terms: dict[Variable, float] | None = None, constant: float = 0.0
    ) -> None:
        self.terms: dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    @staticmethod
    def _coerce(value: "Variable | LinExpr | Number") -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._as_expr()
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelError(f"cannot use {value!r} in a linear expression")
        return LinExpr({}, float(value))

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.constant)

    def __add__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        rhs = self._coerce(other)
        result = self.copy()
        for var, coef in rhs.terms.items():
            result.terms[var] = result.terms.get(var, 0.0) + coef
        result.constant += rhs.constant
        return result

    __radd__ = __add__

    def __sub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, scalar: Number) -> "LinExpr":
        if isinstance(scalar, bool) or not isinstance(scalar, (int, float)):
            raise ModelError(f"can only scale by a number, got {scalar!r}")
        return LinExpr(
            {var: coef * scalar for var, coef in self.terms.items()},
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Number) -> "LinExpr":
        if scalar == 0:
            raise ModelError("division of expression by zero")
        return self * (1.0 / scalar)

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    def __le__(self, other: "Variable | LinExpr | Number") -> "Constraint":
        from tests.oracles.lp.constraint import Constraint

        return Constraint(self - other, "<=")

    def __ge__(self, other: "Variable | LinExpr | Number") -> "Constraint":
        from tests.oracles.lp.constraint import Constraint

        return Constraint(self - other, ">=")

    def __eq__(self, other: object) -> object:
        from tests.oracles.lp.constraint import Constraint

        if isinstance(other, (Variable, LinExpr, int, float)):
            return Constraint(self - other, "==")
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    def value(self, assignment: dict[Variable, float]) -> float:
        """Evaluate under a variable assignment (missing vars read as 0)."""
        return self.constant + sum(
            coef * assignment.get(var, 0.0) for var, coef in self.terms.items()
        )

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)
