"""Temporal flexibility: profit with slideable transfer windows (extension).

The paper's requests are rigid — ``[ts_i, td_i]`` is fixed at bid time.
Its related work (NetStitcher, Postcard, Amoeba) centers on the opposite
observation: bulk transfers usually tolerate *when* they run as long as
they finish by a deadline, and sliding them off each other's peaks is
where inter-DC savings come from.  This module quantifies that knob inside
the SPM model:

* each request may start up to ``slack_i`` slots later than requested,
  keeping its duration (deadline = ``td_i + slack_i``);
* the provider jointly picks acceptance, path **and start offset**;
* charging stays peak-based per link, so de-peaking directly removes
  bandwidth units.

:func:`solve_flexible_spm` solves the expanded problem exactly (binary
``x[i, j, o]`` over path x offset options, assembled by
:func:`compile_flexible_spm`); :func:`flexibility_gain`
reports profit as a function of a uniform slack budget — the "how much is
scheduling freedom worth" curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import Schedule
from repro.exceptions import InfeasibleError, SolverError, WorkloadError
from repro.lp.fastbuild import compile_coo
from repro.lp.model import CompiledModel
from repro.lp.result import SolveStatus
from repro.lp.solvers import solve_compiled_raw

__all__ = [
    "FlexibleResult",
    "compile_flexible_spm",
    "solve_flexible_spm",
    "flexibility_gain",
]


@dataclass
class FlexibleResult:
    """Outcome of a flexible-window exact solve.

    ``offsets`` maps accepted request ids to the chosen start delay (0 =
    as requested); ``schedule`` reflects the *shifted* windows via a
    rebuilt instance, so its loads/cost/profit account for the slide.
    """

    schedule: Schedule
    offsets: dict[int, int]
    objective: float

    @property
    def profit(self) -> float:
        return self.schedule.profit

    @property
    def num_shifted(self) -> int:
        return sum(1 for offset in self.offsets.values() if offset > 0)


def compile_flexible_spm(
    instance: SPMInstance, slacks: dict[int, int]
) -> tuple[CompiledModel, list[tuple[int, int, int]]]:
    """The flexible-window ILP in compiled form.

    Columns: one binary ``x[i, j, o]`` per request, start offset and path
    (offset-major within a request), then one integer ``c_e`` per edge,
    bounded by the topology's capacity ceiling where it has one.  Rows: a
    ``<= 1`` choice row per request, then one ``load <= c_e`` row per
    touched (edge, slot) in first-appearance order.  Returns
    ``(compiled, columns)``: ``columns[k]`` is the
    ``(request_id, path, offset)`` of x column ``k``.
    """
    num_requests = instance.num_requests
    columns: list[tuple[int, int, int]] = []
    x_values: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    cap_rows: dict[tuple[int, int], int] = {}
    cap_edges: list[int] = []
    for i, req in enumerate(instance.requests):
        rid = req.request_id
        max_offset = min(slacks.get(rid, 0), instance.num_slots - 1 - req.end)
        for offset in range(max_offset + 1):
            for path_idx in range(instance.num_paths(rid)):
                col = len(columns)
                columns.append((rid, path_idx, offset))
                x_values.append(req.value)
                rows.append(i)
                cols.append(col)
                data.append(1.0)
                for edge_idx in instance.path_edges[rid][path_idx].tolist():
                    for t in range(req.start + offset, req.end + offset + 1):
                        row = cap_rows.get((edge_idx, t))
                        if row is None:
                            row = num_requests + len(cap_edges)
                            cap_rows[(edge_idx, t)] = row
                            cap_edges.append(edge_idx)
                        rows.append(row)
                        cols.append(col)
                        data.append(req.rate)
    num_x = len(columns)
    num_cap = len(cap_edges)
    rows.extend(range(num_requests, num_requests + num_cap))
    cols.extend(num_x + e for e in cap_edges)
    data.extend([-1.0] * num_cap)

    num_rows = num_requests + num_cap
    row_upper = np.full(num_rows, -0.0)  # ``load - c_e <= -0.0``
    row_upper[:num_requests] = 1.0
    num_vars = num_x + instance.num_edges
    var_upper = np.ones(num_vars)
    var_upper[num_x:] = instance.formulation_compiler().spm_ceilings()
    # ``0.0 + value`` / ``0.0 - price``: the objective coefficients as a
    # symbolic build accumulates them, down to the sign of a zero price.
    objective = np.concatenate(
        [0.0 + np.array(x_values, dtype=float), 0.0 - instance.prices]
    )
    compiled = compile_coo(
        objective=objective,
        maximize=True,
        rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        data=np.array(data, dtype=float),
        num_rows=num_rows,
        row_lower=np.full(num_rows, -np.inf),
        row_upper=row_upper,
        var_lower=np.zeros(num_vars),
        var_upper=var_upper,
        integrality=np.ones(num_vars, dtype=np.int8),
    )
    return compiled, columns


def solve_flexible_spm(
    instance: SPMInstance,
    slacks: dict[int, int] | int,
    *,
    time_limit: float | None = None,
) -> FlexibleResult:
    """Exactly solve SPM with slideable windows.

    ``slacks`` is either a per-request map or one uniform slack (slots of
    allowed delay).  Offsets pushing a window past the billing cycle are
    not generated.  Purchases respect the topology's capacity ceilings, so
    slack 0 is exactly OPT(SPM).  NP-hard like SPM — sized for the same
    instances the exact OPT baselines handle.
    """
    if isinstance(slacks, int):
        slacks = {req.request_id: slacks for req in instance.requests}
    for req in instance.requests:
        slack = slacks.get(req.request_id, 0)
        if slack < 0:
            raise WorkloadError(
                f"request {req.request_id}: slack must be >= 0, got {slack}"
            )

    compiled, columns = compile_flexible_spm(instance, slacks)
    solution = solve_compiled_raw(compiled, time_limit=time_limit)
    if solution.status is SolveStatus.INFEASIBLE:
        raise InfeasibleError("flexible SPM ILP infeasible")
    if not solution.is_optimal:
        raise SolverError(
            f"flexible SPM did not reach optimality: {solution.status}"
        )

    assignment: dict[int, int | None] = dict.fromkeys(
        instance.requests.request_ids
    )
    offsets: dict[int, int] = {}
    chosen = np.rint(solution.x[: len(columns)]) > 0.5
    for col in np.flatnonzero(chosen).tolist():
        rid, path_idx, offset = columns[col]
        if rid not in offsets:  # first chosen option per request
            assignment[rid] = path_idx
            offsets[rid] = offset

    shifted = _shifted_instance(instance, offsets)
    schedule = Schedule(shifted, assignment)
    return FlexibleResult(
        schedule=schedule,
        offsets=offsets,
        objective=float(solution.objective),
    )


def _shifted_instance(
    instance: SPMInstance, offsets: dict[int, int]
) -> SPMInstance:
    """The instance with accepted requests' windows slid by ``offsets``."""
    from repro.workload.request import Request, RequestSet

    shifted_requests = []
    for req in instance.requests:
        offset = offsets.get(req.request_id, 0)
        if offset == 0:
            shifted_requests.append(req)
        else:
            shifted_requests.append(
                Request(
                    request_id=req.request_id,
                    source=req.source,
                    dest=req.dest,
                    start=req.start + offset,
                    end=req.end + offset,
                    rate=req.rate,
                    value=req.value,
                )
            )
    request_set = RequestSet(shifted_requests, instance.num_slots)
    paths = {req.request_id: instance.paths[req.request_id] for req in request_set}
    return SPMInstance(instance.topology, request_set, paths)


def flexibility_gain(
    instance: SPMInstance,
    slack_levels: tuple[int, ...] = (0, 1, 2, 4),
    *,
    time_limit: float | None = None,
) -> list[tuple[int, float, int]]:
    """Profit as a function of a uniform slack budget.

    Returns ``[(slack, profit, shifted_count), ...]``; profit is
    non-decreasing in slack (more options can never hurt the exact
    optimum), which the tests assert.
    """
    if any(s < 0 for s in slack_levels):
        raise WorkloadError(f"slack levels must be >= 0: {slack_levels!r}")
    curve = []
    for slack in slack_levels:
        result = solve_flexible_spm(instance, slack, time_limit=time_limit)
        curve.append((slack, result.profit, result.num_shifted))
    return curve
