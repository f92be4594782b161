"""The :class:`Model`: variable/constraint registry and sparse compilation.

A model collects variables and constraints, then compiles them into the
sparse-matrix form scipy's HiGHS backends consume.  Pure LPs are solved with
``scipy.optimize.linprog``; models containing integer variables go through
``scipy.optimize.milp``.  Callers can also relax a mixed-integer model to
its LP relaxation — the first step of both MAA and TAA.

Test-only reference: the runtime builds every model array-natively
(:func:`repro.lp.fastbuild.compile_coo`), and the equivalence suites hold
those builds to this one bit for bit.  :meth:`Model.compile` returns a
:class:`SymbolicCompiledModel`, a :class:`~repro.lp.model.CompiledModel`
that also carries the model's variables in column order, so the oracle
solvers can key their results by :class:`~tests.oracles.lp.expr.Variable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.lp.model import CompiledModel

from tests.oracles.lp.constraint import Constraint
from tests.oracles.lp.expr import LinExpr, Variable
from tests.oracles.lp.result import Solution
from tests.oracles.lp.solvers import solve_compiled

__all__ = ["Model", "SymbolicCompiledModel"]


@dataclass
class SymbolicCompiledModel(CompiledModel):
    """A compiled model that keeps its symbolic variables, in column order."""

    variables: list[Variable] = field(default_factory=list)


class Model:
    """A linear / mixed-integer program under construction."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._variables: list[Variable] = []
        self._constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._maximize = False
        self._names: set[str] = set()

    # -------------------------------------------------------------- building

    def add_var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
        *,
        is_integer: bool = False,
    ) -> Variable:
        """Create and register a variable.  Names must be unique."""
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r}")
        var = Variable(
            name, lower, upper, is_integer=is_integer, index=len(self._variables)
        )
        self._variables.append(var)
        self._names.add(name)
        return var

    def add_binary(self, name: str) -> Variable:
        """Shortcut for an integer variable in {0, 1}."""
        return self.add_var(name, 0.0, 1.0, is_integer=True)

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                f"expected Constraint, got {type(constraint).__name__}; "
                "did you compare an expression with <=, >= or ==?"
            )
        for var in constraint.terms:
            self._check_owned(var)
        if name:
            constraint.name = name
        self._constraints.append(constraint)
        return constraint

    def set_objective(self, expr: LinExpr | Variable, *, maximize: bool) -> None:
        """Set the objective expression and sense."""
        expr = LinExpr._coerce(expr)
        for var in expr.terms:
            self._check_owned(var)
        self._objective = expr
        self._maximize = maximize

    def _check_owned(self, var: Variable) -> None:
        if var.index < 0 or var.index >= len(self._variables) or self._variables[var.index] is not var:
            raise ModelError(f"variable {var.name!r} does not belong to model {self.name!r}")

    # ------------------------------------------------------------- accessors

    @property
    def variables(self) -> list[Variable]:
        return list(self._variables)

    @property
    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def is_maximization(self) -> bool:
        return self._maximize

    @property
    def has_integer_vars(self) -> bool:
        return any(v.is_integer for v in self._variables)

    # ------------------------------------------------------------ compilation

    def compile(
        self, *, relax_integrality: bool = False
    ) -> SymbolicCompiledModel:
        """Compile to the sparse standard form used by the solver backends."""
        if not self._variables:
            raise ModelError(f"model {self.name!r} has no variables")
        n = len(self._variables)
        sign = -1.0 if self._maximize else 1.0
        c = np.zeros(n)
        for var, coef in self._objective.terms.items():
            c[var.index] = sign * coef

        rows, cols, data = [], [], []
        row_lower = np.empty(len(self._constraints))
        row_upper = np.empty(len(self._constraints))
        for row_idx, constr in enumerate(self._constraints):
            rhs = constr.rhs
            if constr.sense == "<=":
                row_lower[row_idx], row_upper[row_idx] = -np.inf, rhs
            elif constr.sense == ">=":
                row_lower[row_idx], row_upper[row_idx] = rhs, np.inf
            else:
                row_lower[row_idx] = row_upper[row_idx] = rhs
            for var, coef in constr.terms.items():
                if coef != 0.0:
                    rows.append(row_idx)
                    cols.append(var.index)
                    data.append(coef)

        a_matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self._constraints), n)
        )
        integrality = np.array(
            [
                0 if relax_integrality else (1 if v.is_integer else 0)
                for v in self._variables
            ],
            dtype=np.int8,
        )
        return SymbolicCompiledModel(
            variables=list(self._variables),
            c=c,
            a_matrix=a_matrix,
            row_lower=row_lower,
            row_upper=row_upper,
            var_lower=np.array([v.lower for v in self._variables]),
            var_upper=np.array([v.upper for v in self._variables]),
            integrality=integrality,
            sign=sign,
            objective_constant=self._objective.constant,
        )

    # --------------------------------------------------------------- solving

    def solve(
        self,
        *,
        relax_integrality: bool = False,
        time_limit: float | None = None,
        check_cancelled=None,
    ) -> Solution:
        """Solve the model; see :mod:`repro.lp.solvers` for backend details.

        ``relax_integrality=True`` drops all integrality flags — the LP
        relaxation used by the approximation algorithms.  ``time_limit``
        (seconds) caps both LP and MILP solves; a limit-hit solve reports
        ``SolveStatus.FEASIBLE`` with the incumbent when one exists and
        ``SolveStatus.TIME_LIMIT`` (no values) otherwise — never a silently
        suboptimal answer presented as optimal.  ``check_cancelled`` is
        polled before dispatch (see
        :func:`tests.oracles.lp.solvers.solve_compiled`).
        """
        compiled = self.compile(relax_integrality=relax_integrality)
        return solve_compiled(
            compiled, time_limit=time_limit, check_cancelled=check_cancelled
        )

    def check_feasible(self, assignment: dict[Variable, float], tol: float = 1e-7) -> bool:
        """Whether ``assignment`` satisfies every constraint and bound."""
        for var in self._variables:
            val = assignment.get(var, 0.0)
            if val < var.lower - tol or val > var.upper + tol:
                return False
        return all(c.is_satisfied(assignment, tol) for c in self._constraints)

    def objective_value(self, assignment: dict[Variable, float]) -> float:
        """Evaluate the objective under ``assignment`` (original sense)."""
        return self._objective.value(assignment)

    # ----------------------------------------------------------------- export

    def to_lp_string(self) -> str:
        """Render the model in CPLEX LP text format.

        Useful for debugging a formulation or feeding it to an external
        solver; round-trips through any LP-format reader (the constant term
        of the objective, which LP format cannot express, is emitted as a
        comment).
        """

        def render_terms(terms: dict[Variable, float]) -> str:
            if not terms:
                return "0"
            parts = []
            for var, coef in terms.items():
                sign = "-" if coef < 0 else "+"
                parts.append(f"{sign} {abs(coef):g} {var.name}")
            text = " ".join(parts)
            return text[2:] if text.startswith("+ ") else text

        lines = [f"\\ model {self.name}"]
        if self._objective.constant:
            lines.append(f"\\ objective constant: {self._objective.constant:g}")
        lines.append("Maximize" if self._maximize else "Minimize")
        lines.append(f" obj: {render_terms(self._objective.terms)}")
        lines.append("Subject To")
        for idx, constr in enumerate(self._constraints):
            name = constr.name or f"c{idx}"
            sense = {"<=": "<=", ">=": ">=", "==": "="}[constr.sense]
            lines.append(
                f" {name}: {render_terms(constr.terms)} {sense} {constr.rhs:g}"
            )
        lines.append("Bounds")
        for var in self._variables:
            lower = "-inf" if var.lower == -math.inf else f"{var.lower:g}"
            upper = "+inf" if var.upper == math.inf else f"{var.upper:g}"
            lines.append(f" {lower} <= {var.name} <= {upper}")
        integers = [v.name for v in self._variables if v.is_integer]
        if integers:
            lines.append("Generals")
            lines.append(" " + " ".join(integers))
        lines.append("End")
        return "\n".join(lines)

    def __repr__(self) -> str:
        sense = "max" if self._maximize else "min"
        return (
            f"Model({self.name!r}, {sense}, vars={len(self._variables)}, "
            f"constrs={len(self._constraints)})"
        )
