"""A from-scratch branch-and-bound MILP solver.

The paper uses Gurobi for the exact OPT baselines; our primary substitute is
HiGHS via ``scipy.optimize.milp``.  This module is an *independent* MILP
solver built only on the LP relaxation (``linprog``) so the test-suite can
cross-check the two implementations against each other on small instances —
the same role a second solver license plays in a careful evaluation.

Standard best-bound branch and bound:

1. solve the LP relaxation of the node;
2. if the relaxation is worse than the incumbent, prune;
3. pick the integer variable whose value is most fractional, branch on
   ``floor``/``ceil`` bound tightenings;
4. integral relaxations update the incumbent.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SolverError
from repro.lp.result import SolveStatus

from tests.oracles.lp.model import Model, SymbolicCompiledModel
from tests.oracles.lp.result import Solution
from tests.oracles.lp.solvers import solve_compiled

__all__ = ["branch_and_bound"]

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A search node ordered by its parent's relaxation bound (best-first)."""

    bound: float
    tie_breaker: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)


def branch_and_bound(
    model: Model,
    *,
    max_nodes: int = 100_000,
    gap_tol: float = 1e-7,
) -> Solution:
    """Solve ``model`` to optimality by branch and bound.

    ``max_nodes`` bounds the search; exceeding it raises
    :class:`~repro.exceptions.SolverError` rather than silently returning a
    suboptimal incumbent.  ``gap_tol`` is the absolute optimality gap at
    which the search may stop.
    """
    compiled = model.compile(relax_integrality=True)
    int_indices = np.array(
        [v.index for v in compiled.variables if v.is_integer], dtype=int
    )
    if int_indices.size == 0:
        return solve_compiled(compiled)

    sign = compiled.sign  # +1 min, -1 max; work internally in minimization
    counter = itertools.count()
    root = _Node(
        bound=-math.inf,
        tie_breaker=next(counter),
        lower=compiled.var_lower.copy(),
        upper=compiled.var_upper.copy(),
    )
    heap = [root]
    incumbent: dict | None = None
    incumbent_obj = math.inf  # minimization objective (sign-adjusted)
    nodes_explored = 0

    while heap:
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - gap_tol:
            continue  # pruned by bound
        nodes_explored += 1
        if nodes_explored > max_nodes:
            raise SolverError(
                f"branch and bound exceeded {max_nodes} nodes on model {model.name!r}"
            )

        relaxation = _solve_relaxation(compiled, node.lower, node.upper)
        if relaxation is None:
            continue  # infeasible subtree
        obj, x = relaxation
        if obj >= incumbent_obj - gap_tol:
            continue

        frac_idx = _most_fractional(x, int_indices)
        if frac_idx is None:
            # Integral: new incumbent.
            incumbent_obj = obj
            incumbent = {
                var: (round(float(x[var.index])) if var.is_integer else float(x[var.index]))
                for var in compiled.variables
            }
            continue

        value = x[frac_idx]
        down = _Node(obj, next(counter), node.lower.copy(), node.upper.copy())
        down.upper[frac_idx] = math.floor(value)
        up = _Node(obj, next(counter), node.lower.copy(), node.upper.copy())
        up.lower[frac_idx] = math.ceil(value)
        if down.lower[frac_idx] <= down.upper[frac_idx]:
            heapq.heappush(heap, down)
        if up.lower[frac_idx] <= up.upper[frac_idx]:
            heapq.heappush(heap, up)

    if incumbent is None:
        # Exhausted search without an integral solution: the MILP is
        # infeasible even when its LP relaxation is not.
        return Solution(status=SolveStatus.INFEASIBLE, objective=float("nan"))
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=sign * incumbent_obj + compiled.objective_constant,
        values=incumbent,
    )


def _solve_relaxation(
    compiled: SymbolicCompiledModel, lower: np.ndarray, upper: np.ndarray
) -> tuple[float, np.ndarray] | None:
    """LP relaxation with overridden bounds -> (min-objective, x) or None."""
    node_compiled = SymbolicCompiledModel(
        variables=compiled.variables,
        c=compiled.c,
        a_matrix=compiled.a_matrix,
        row_lower=compiled.row_lower,
        row_upper=compiled.row_upper,
        var_lower=lower,
        var_upper=upper,
        integrality=np.zeros(len(compiled.variables), dtype=np.int8),
        sign=1.0,  # keep minimization internally; compiled.c is already signed
    )
    solution = solve_compiled(node_compiled)
    if solution.status is SolveStatus.INFEASIBLE:
        return None
    if solution.status is SolveStatus.UNBOUNDED:
        raise SolverError("LP relaxation is unbounded; MILP is ill-posed")
    if not solution.is_optimal:
        raise SolverError(f"LP relaxation failed with status {solution.status}")
    x = np.array([solution.values[v] for v in compiled.variables])
    return solution.objective, x


def _most_fractional(x: np.ndarray, int_indices: np.ndarray) -> int | None:
    """Index of the integer variable farthest from integrality, or None."""
    fractional_parts = np.abs(x[int_indices] - np.round(x[int_indices]))
    worst = int(np.argmax(fractional_parts))
    if fractional_parts[worst] <= _INT_TOL:
        return None
    return int(int_indices[worst])
