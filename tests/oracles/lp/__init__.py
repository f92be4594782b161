"""The expression-layer LP oracle: a second, symbolic model builder.

The runtime assembles every model array-natively
(:func:`repro.lp.fastbuild.compile_coo`) and solves it with
:func:`repro.lp.solvers.solve_compiled_raw`.  This package keeps the
readable builder those paths are verified against, plus two independent
solvers that cross-check HiGHS:

* :class:`Variable` / :class:`LinExpr` — symbolic affine expressions;
* :class:`Constraint` — ``expr <= / == / >= rhs``;
* :class:`Model` — collects variables/constraints and compiles them to the
  runtime's :class:`~repro.lp.model.CompiledModel` form;
* :func:`solve_compiled` — HiGHS through the runtime backend, with the
  result keyed by :class:`Variable`;
* :func:`branch_and_bound` — a from-scratch MILP solver on the LP
  relaxation;
* :func:`simplex_solve` / :class:`WarmSimplex` — a dense two-phase simplex
  and its dual-simplex re-solve.
"""

from tests.oracles.lp.expr import LinExpr, Variable
from tests.oracles.lp.constraint import Constraint
from tests.oracles.lp.model import Model, SymbolicCompiledModel
from tests.oracles.lp.result import Solution
from tests.oracles.lp.solvers import solve_compiled
from tests.oracles.lp.branch_and_bound import branch_and_bound
from tests.oracles.lp.simplex import WarmSimplex, simplex_solve, simplex_solve_model

__all__ = [
    "Variable",
    "LinExpr",
    "Constraint",
    "Model",
    "SymbolicCompiledModel",
    "Solution",
    "solve_compiled",
    "branch_and_bound",
    "simplex_solve",
    "simplex_solve_model",
    "WarmSimplex",
]
