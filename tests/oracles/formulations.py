"""LP/ILP formulations of SPM and its two variants (paper §II-B).

Decision variables follow the paper's notation:

* ``x[i, j]`` — request ``i`` flows over its ``j``-th candidate path
  (binary in the exact problems, relaxed to ``[0, 1]`` by the
  approximation algorithms);
* ``c[e]`` — integer units of bandwidth purchased on directed edge ``e``
  (continuous in relaxations).

Builders return a :class:`FormulatedProblem` bundling the
:class:`~tests.oracles.lp.model.Model` with the variable maps so callers can
read solutions back in problem terms.

Capacity constraints are generated *sparsely*: a ``(e, t)`` row is emitted
only when at least one candidate path of an active request crosses ``e`` at
slot ``t`` — empty rows are trivially satisfied with ``c_e = 0``.

Test-only reference: the runtime compiles these models array-natively
(:class:`~repro.core.fastform.FormulationCompiler`,
:mod:`repro.core.flexible`), and the equivalence suites hold those builds
to these ones bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instance import SPMInstance
from repro.exceptions import ModelError

from tests.oracles.lp.expr import LinExpr, Variable
from tests.oracles.lp.model import Model
from tests.oracles.lp.result import Solution

__all__ = [
    "FormulatedProblem",
    "build_rl_spm",
    "build_bl_spm",
    "build_spm",
    "build_flexible_spm",
    "fractional_x",
    "assignment_from_solution",
]

EdgeKey = tuple


@dataclass
class FormulatedProblem:
    """A model plus the maps from problem entities to its variables."""

    model: Model
    x_vars: dict[tuple[int, int], Variable]
    c_vars: dict[int, Variable]
    instance: SPMInstance


def _edge_slot_terms(
    instance: SPMInstance,
    x_vars: dict[tuple[int, int], Variable],
) -> dict[tuple[int, int], LinExpr]:
    """Load expressions ``sum_i sum_j r_{i,t} x_{i,j} I_{i,j,e}`` per (edge, slot).

    Only (edge, slot) pairs with at least one term are returned.
    """
    terms: dict[tuple[int, int], LinExpr] = {}
    for req in instance.requests:
        for path_idx in range(instance.num_paths(req.request_id)):
            var = x_vars[(req.request_id, path_idx)]
            for edge_idx in instance.path_edges[req.request_id][path_idx]:
                for t in req.slots:
                    key = (int(edge_idx), t)
                    expr = terms.get(key)
                    if expr is None:
                        expr = LinExpr()
                        terms[key] = expr
                    expr.terms[var] = expr.terms.get(var, 0.0) + req.rate
    return terms


def _add_path_vars(
    model: Model, instance: SPMInstance, *, integral: bool
) -> dict[tuple[int, int], Variable]:
    x_vars = {}
    for req in instance.requests:
        for path_idx in range(instance.num_paths(req.request_id)):
            name = f"x_{req.request_id}_{path_idx}"
            if integral:
                x_vars[(req.request_id, path_idx)] = model.add_binary(name)
            else:
                x_vars[(req.request_id, path_idx)] = model.add_var(name, 0.0, 1.0)
    return x_vars


def build_rl_spm(instance: SPMInstance, *, integral: bool = False) -> FormulatedProblem:
    """Request-limited SPM: minimize cost while satisfying *every* request.

    Constraint (1) tightens to ``sum_j x_{i,j} = 1`` (all given requests are
    accepted); constraint (2) couples loads to the purchased bandwidth
    ``c_e``; the objective is ``min sum_e u_e c_e``.

    ``integral=True`` builds the exact ILP (binary ``x``, integer ``c``) —
    the paper's OPT(RL-SPM); ``integral=False`` builds the LP relaxation MAA
    starts from.
    """
    model = Model("rl-spm" + ("-ilp" if integral else "-lp"))
    x_vars = _add_path_vars(model, instance, integral=integral)
    c_vars = {
        edge_idx: model.add_var(f"c_{edge_idx}", 0.0, is_integer=integral)
        for edge_idx in range(instance.num_edges)
    }

    for req in instance.requests:
        row = sum(
            x_vars[(req.request_id, j)]
            for j in range(instance.num_paths(req.request_id))
        )
        model.add_constr(row == 1, name=f"satisfy_{req.request_id}")

    for (edge_idx, t), load in _edge_slot_terms(instance, x_vars).items():
        model.add_constr(load <= c_vars[edge_idx], name=f"cap_{edge_idx}_{t}")

    cost = sum(
        float(instance.prices[edge_idx]) * var for edge_idx, var in c_vars.items()
    )
    model.set_objective(cost, maximize=False)
    return FormulatedProblem(model, x_vars, c_vars, instance)


def build_bl_spm(
    instance: SPMInstance,
    capacities: dict[EdgeKey, int],
    *,
    integral: bool = False,
) -> FormulatedProblem:
    """Bandwidth-limited SPM: maximize revenue under fixed capacities.

    ``capacities`` maps every directed edge key to its fixed bandwidth (in
    integer units).  Requests may be declined (``sum_j x_{i,j} <= 1``).
    """
    missing = [key for key in instance.edges if key not in capacities]
    if missing:
        raise ModelError(f"capacities missing for edges: {missing[:3]}...")
    model = Model("bl-spm" + ("-ilp" if integral else "-lp"))
    x_vars = _add_path_vars(model, instance, integral=integral)

    for req in instance.requests:
        row = sum(
            x_vars[(req.request_id, j)]
            for j in range(instance.num_paths(req.request_id))
        )
        model.add_constr(row <= 1, name=f"choice_{req.request_id}")

    for (edge_idx, t), load in _edge_slot_terms(instance, x_vars).items():
        cap = capacities[instance.edges[edge_idx]]
        model.add_constr(load <= float(cap), name=f"cap_{edge_idx}_{t}")

    revenue = LinExpr()
    for req in instance.requests:
        for j in range(instance.num_paths(req.request_id)):
            var = x_vars[(req.request_id, j)]
            revenue.terms[var] = revenue.terms.get(var, 0.0) + req.value
    model.set_objective(revenue, maximize=True)
    return FormulatedProblem(model, x_vars, {}, instance)


def build_spm(instance: SPMInstance, *, integral: bool = True) -> FormulatedProblem:
    """The full SPM: jointly choose acceptance, paths and bandwidth.

    ``max sum_i v_i sum_j x_{i,j} - sum_e u_e c_e`` subject to constraints
    (1)-(4).  ``integral=True`` is the exact problem (OPT(SPM)).  Capacity
    ceilings recorded on the topology (if any) bound ``c_e``.
    """
    model = Model("spm" + ("-ilp" if integral else "-lp"))
    x_vars = _add_path_vars(model, instance, integral=integral)
    c_vars = {}
    for edge_idx, key in enumerate(instance.edges):
        ceiling = instance.topology.capacity(*key)
        upper = float("inf") if ceiling is None else float(ceiling)
        c_vars[edge_idx] = model.add_var(
            f"c_{edge_idx}", 0.0, upper, is_integer=integral
        )

    for req in instance.requests:
        row = sum(
            x_vars[(req.request_id, j)]
            for j in range(instance.num_paths(req.request_id))
        )
        model.add_constr(row <= 1, name=f"choice_{req.request_id}")

    for (edge_idx, t), load in _edge_slot_terms(instance, x_vars).items():
        model.add_constr(load <= c_vars[edge_idx], name=f"cap_{edge_idx}_{t}")

    profit = LinExpr()
    for req in instance.requests:
        for j in range(instance.num_paths(req.request_id)):
            var = x_vars[(req.request_id, j)]
            profit.terms[var] = profit.terms.get(var, 0.0) + req.value
    for edge_idx, var in c_vars.items():
        profit.terms[var] = profit.terms.get(var, 0.0) - float(
            instance.prices[edge_idx]
        )
    model.set_objective(profit, maximize=True)
    return FormulatedProblem(model, x_vars, c_vars, instance)


def build_flexible_spm(
    instance: SPMInstance, slacks: dict[int, int]
) -> tuple[Model, dict[tuple[int, int, int], Variable], dict[int, list]]:
    """SPM with slideable windows: binary ``x[i, j, o]`` per path and offset.

    Request ``i`` may start up to ``slacks[i]`` slots late, keeping its
    duration; offsets past the billing cycle are not generated.  ``c_e``
    is left unbounded: this is the build :mod:`repro.core.flexible` ran
    before it bounded ``c_e`` by the topology's ceilings, so it matches
    the runtime build only on uncapacitated topologies.  Returns
    ``(model, x_vars, options)`` with ``options[i]`` the request's
    ``(path, offset)`` pairs in column order.
    """
    model = Model("flexible-spm")
    x_vars: dict[tuple[int, int, int], Variable] = {}
    options: dict[int, list[tuple[int, int]]] = {}
    for req in instance.requests:
        slack = slacks.get(req.request_id, 0)
        max_offset = min(slack, instance.num_slots - 1 - req.end)
        request_options = []
        for offset in range(max_offset + 1):
            for path_idx in range(instance.num_paths(req.request_id)):
                var = model.add_binary(f"x_{req.request_id}_{path_idx}_{offset}")
                x_vars[(req.request_id, path_idx, offset)] = var
                request_options.append((path_idx, offset))
        options[req.request_id] = request_options
        model.add_constr(
            sum(
                x_vars[(req.request_id, path_idx, offset)]
                for path_idx, offset in request_options
            )
            <= 1,
            name=f"choice_{req.request_id}",
        )

    c_vars = {
        edge_idx: model.add_var(f"c_{edge_idx}", 0.0, is_integer=True)
        for edge_idx in range(instance.num_edges)
    }

    load_rows: dict[tuple[int, int], LinExpr] = {}
    for req in instance.requests:
        for path_idx, offset in options[req.request_id]:
            var = x_vars[(req.request_id, path_idx, offset)]
            for edge_idx in instance.path_edges[req.request_id][path_idx]:
                for t in range(req.start + offset, req.end + offset + 1):
                    key = (int(edge_idx), t)
                    expr = load_rows.get(key)
                    if expr is None:
                        expr = LinExpr()
                        load_rows[key] = expr
                    expr.terms[var] = expr.terms.get(var, 0.0) + req.rate
    for (edge_idx, t), load in load_rows.items():
        model.add_constr(load <= c_vars[edge_idx], name=f"cap_{edge_idx}_{t}")

    objective = LinExpr()
    for req in instance.requests:
        for path_idx, offset in options[req.request_id]:
            var = x_vars[(req.request_id, path_idx, offset)]
            objective.terms[var] = objective.terms.get(var, 0.0) + req.value
    for edge_idx, var in c_vars.items():
        objective.terms[var] = objective.terms.get(var, 0.0) - float(
            instance.prices[edge_idx]
        )
    model.set_objective(objective, maximize=True)
    return model, x_vars, options


def fractional_x(
    problem: FormulatedProblem, solution: Solution
) -> dict[int, list[float]]:
    """Read the (possibly fractional) path weights per request.

    Returns ``{request_id: [x_{i,1}, ..., x_{i,L_i}]}``, clipped into
    ``[0, 1]`` to absorb solver round-off.
    """
    result = {}
    for req in problem.instance.requests:
        weights = []
        for j in range(problem.instance.num_paths(req.request_id)):
            value = solution.values[problem.x_vars[(req.request_id, j)]]
            weights.append(min(1.0, max(0.0, float(value))))
        result[req.request_id] = weights
    return result


def assignment_from_solution(
    problem: FormulatedProblem, solution: Solution, *, tol: float = 1e-6
) -> dict[int, int | None]:
    """Read an integral solution back as an assignment map.

    Raises :class:`~repro.exceptions.ModelError` if any ``x`` is fractional
    beyond ``tol`` — use :func:`fractional_x` for relaxations.
    """
    assignment: dict[int, int | None] = {}
    for req in problem.instance.requests:
        chosen = None
        for j in range(problem.instance.num_paths(req.request_id)):
            value = solution.values[problem.x_vars[(req.request_id, j)]]
            if value > 1 - tol:
                if chosen is not None:
                    raise ModelError(
                        f"request {req.request_id}: multiple paths selected"
                    )
                chosen = j
            elif value > tol:
                raise ModelError(
                    f"request {req.request_id}: fractional x[{j}] = {value:.6f}"
                )
        assignment[req.request_id] = chosen
    return assignment
