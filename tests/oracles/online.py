"""The expression-layer reference of the online batch MILP.

:func:`build_incremental_spm` states the incremental MILP of one arrival
batch with dict-backed :class:`~tests.oracles.lp.expr.LinExpr` rows.
:func:`solve_batch` is the batch decision as it ran on that build: exact
enumeration up to :data:`repro.core.online.ENUMERATION_CAP` joint
choices (read at call time, so a monkeypatched cap applies to both
sides), and above the cap the expression build solved through
:class:`~tests.oracles.lp.model.Model`.  Swap it into
``repro.core.online`` to run :class:`~repro.core.online.OnlineScheduler`
on the reference.  It polls ``check_cancelled`` and charges ``time_limit``
from entry exactly as the runtime does.

Test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import online
from repro.core.instance import SPMInstance
from repro.core.online import BatchDecision
from repro.exceptions import InfeasibleError, SolverError, SolverTimeoutError
from repro.lp.result import SolveStatus

from tests.oracles.lp.expr import LinExpr
from tests.oracles.lp.model import Model

__all__ = ["build_incremental_spm", "solve_batch"]


def build_incremental_spm(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
):
    """The incremental MILP for one arrival batch (reference implementation).

    Decision variables: ``x[i, j]`` (binary path choice per batch request)
    and integer ``extra[e] >= 0``, the bandwidth units purchased beyond the
    already-charged ``charged[e]``.  Constraints couple the committed plus
    batch load at every (edge, slot) to ``charged[e] + extra[e]``; the
    objective is batch revenue minus the price of the extra units.

    This is the expression-layer build
    :class:`~repro.core.online.IncrementalBatchCompiler` is verified
    against.  Returns ``(model, x_vars, extra_vars)``.
    """
    model = Model("incremental-spm")
    x_vars = {}
    for request_id in batch_ids:
        for path_idx in range(instance.num_paths(request_id)):
            x_vars[(request_id, path_idx)] = model.add_binary(
                f"x_{request_id}_{path_idx}"
            )
    extra_vars = {
        edge_idx: model.add_var(f"extra_{edge_idx}", 0.0, is_integer=True)
        for edge_idx in range(instance.num_edges)
    }

    for request_id in batch_ids:
        row = sum(
            x_vars[(request_id, j)]
            for j in range(instance.num_paths(request_id))
        )
        model.add_constr(row <= 1, name=f"choice_{request_id}")

    # Sparse (edge, slot) rows: only where a batch path adds load.
    touched: dict[tuple[int, int], LinExpr] = {}
    for request_id in batch_ids:
        req = instance.request(request_id)
        for path_idx in range(instance.num_paths(request_id)):
            var = x_vars[(request_id, path_idx)]
            for edge_idx in instance.path_edges[request_id][path_idx]:
                for t in req.slots:
                    key = (int(edge_idx), t)
                    expr = touched.get(key)
                    if expr is None:
                        expr = LinExpr()
                        touched[key] = expr
                    expr.terms[var] = expr.terms.get(var, 0.0) + req.rate

    for (edge_idx, t), load_expr in touched.items():
        headroom = float(charged[edge_idx] - committed_loads[edge_idx, t])
        model.add_constr(
            load_expr - extra_vars[edge_idx] <= headroom,
            name=f"cap_{edge_idx}_{t}",
        )

    objective = LinExpr()
    for request_id in batch_ids:
        req = instance.request(request_id)
        for path_idx in range(instance.num_paths(request_id)):
            var = x_vars[(request_id, path_idx)]
            objective.terms[var] = objective.terms.get(var, 0.0) + req.value
    for edge_idx, var in extra_vars.items():
        objective.terms[var] = objective.terms.get(var, 0.0) - float(
            instance.prices[edge_idx]
        )
    model.set_objective(objective, maximize=True)
    return model, x_vars, extra_vars


def solve_batch(
    instance: SPMInstance,
    batch_ids: list[int],
    committed_loads: np.ndarray,
    charged: np.ndarray,
    *,
    time_limit: float | None = None,
    check_cancelled=None,
) -> BatchDecision:
    """Decide one arrival batch on the expression build (see module doc)."""
    started = time.perf_counter()
    if check_cancelled is not None and check_cancelled():
        raise SolverError("solve cancelled before dispatch")
    if online.choice_space(instance, batch_ids) <= online.ENUMERATION_CAP:
        choices, objective = online.enumerate_batch(
            instance, batch_ids, committed_loads, charged
        )
        if time_limit is not None and time.perf_counter() - started > time_limit:
            raise SolverTimeoutError(
                f"batch enumeration exceeded its time limit ({time_limit} s)"
            )
        return BatchDecision(
            choices=choices, status=SolveStatus.OPTIMAL, objective=objective
        )
    model, x_vars, _ = build_incremental_spm(
        instance, batch_ids, committed_loads, charged
    )
    if time_limit is not None:
        time_limit -= time.perf_counter() - started
        if time_limit <= 0.0:
            raise SolverTimeoutError(
                "batch MILP used up its time limit before dispatch"
            )
    solution = model.solve(time_limit=time_limit)
    status, objective = solution.status, solution.objective

    if status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("incremental batch MILP infeasible")
    if status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        choices = _choices_from_values(
            instance, batch_ids, solution.values, x_vars
        )
        return BatchDecision(choices=choices, status=status, objective=objective)
    if status is SolveStatus.TIME_LIMIT:
        raise SolverTimeoutError("batch MILP hit its time limit with no incumbent")
    raise SolverError(f"batch MILP did not reach optimality: {status}")


def _choices_from_values(
    instance: SPMInstance, batch_ids: list[int], values: dict, x_vars: dict
) -> tuple:
    """Read per-request path choices from the expression-layer solution."""
    choices = []
    for request_id in batch_ids:
        chosen = None
        for path_idx in range(instance.num_paths(request_id)):
            if values[x_vars[(request_id, path_idx)]] > 0.5:
                chosen = path_idx
                break
        choices.append(chosen)
    return tuple(choices)
