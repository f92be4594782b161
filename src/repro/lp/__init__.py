"""Array-native LP/MILP substrate over HiGHS.

The paper calls Gurobi for its LP relaxations and the exact OPT baselines;
this package provides what those algorithms need:

* :func:`compile_coo` — assemble the sparse standard form
  (:class:`~repro.lp.model.CompiledModel`) straight from COO triplets;
  the SPM formulations (:mod:`repro.core.fastform`) and the
  flexible-window ILP (:mod:`repro.core.flexible`) build through it.  The
  online batch MILP
  (:class:`~repro.core.online.IncrementalBatchCompiler`) is the SPM
  structure over one batch with rewritten capacity-row right-hand sides
  and ``extra`` bounds;
* :func:`solve_compiled_raw` — hand the model to HiGHS in process,
  through scipy's HiGHS bindings, in the form scipy's ``linprog`` (pure
  LPs) or ``milp`` (with integer columns) passed it, and return a
  :class:`RawSolution` holding the raw column vector;
* :class:`~repro.lp.warmstart.ResolveSession` — certified reuse across
  re-solves of one structure.

The symbolic expression layer these builds are verified against, and the
from-scratch simplex and branch-and-bound solvers that cross-check HiGHS,
live with the test-suite as oracles.
"""

from repro.lp.result import RawSolution, SolveStatus
from repro.lp.fastbuild import compile_coo
from repro.lp.solvers import solve_compiled_raw

__all__ = [
    "RawSolution",
    "SolveStatus",
    "compile_coo",
    "solve_compiled_raw",
]
