"""The variable-keyed solve of the oracle expression layer.

:func:`solve_compiled` wraps the runtime backend,
:func:`repro.lp.solvers.solve_compiled_raw`, and maps its raw column vector
back to the :class:`~tests.oracles.lp.expr.Variable` objects of a
:class:`~tests.oracles.lp.model.SymbolicCompiledModel`, rounding integer
columns to exact ints.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SolverError
from repro.lp.model import CompiledModel
from repro.lp.solvers import solve_compiled_raw

from tests.oracles.lp.result import Solution

__all__ = ["solve_compiled"]


def solve_compiled(
    compiled: CompiledModel,
    *,
    time_limit: float | None = None,
    check_cancelled=None,
) -> Solution:
    """Solve a compiled model and map the result back to model variables.

    Same semantics as :func:`solve_compiled_raw` (which it wraps); the
    returned :class:`~tests.oracles.lp.result.Solution` carries a ``values`` dict
    keyed by the model's variables, with integer columns rounded to ints.
    """
    if len(getattr(compiled, "variables", ())) != compiled.c.size:
        raise SolverError(
            "compiled model has no symbolic variables (array-native "
            "compilation); solve it with solve_compiled_raw instead"
        )
    raw = solve_compiled_raw(
        compiled, time_limit=time_limit, check_cancelled=check_cancelled
    )
    values = _extract_values(compiled, raw.x) if raw.x is not None else {}
    return Solution(status=raw.status, objective=raw.objective, values=values)


def _extract_values(compiled: CompiledModel, x: np.ndarray) -> dict:
    values = {}
    for var, val in zip(compiled.variables, x):
        val = float(val)
        if compiled.integrality[var.index]:
            val = float(round(val))
        values[var] = val
    return values
