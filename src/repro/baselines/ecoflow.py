"""EcoFlow — greedy profit-aware admission (paper §V-A, solution 3).

EcoFlow (Lin et al., ACM MM'15) schedules inter-DC flows economically,
avoiding increases in charged bandwidth.  In this paper's evaluation "it
handles user requests one by one and accepts the user requests that
generate higher service profits".

This implementation processes requests in arrival (id) order, maintaining
the integer bandwidth already purchased per edge.  For each request it
evaluates every candidate path's *marginal cost* — the extra bandwidth
units the path's peak-load increase forces the provider to buy, priced per
edge — picks the cheapest, and accepts iff the bid strictly exceeds that
marginal cost.

The greedy is myopic in exactly the way the paper exploits (Fig. 5):
the first request to touch an expensive edge is charged a whole unit of
that edge and usually declined, even when later requests would have shared
the unit profitably — so EcoFlow under-accepts relative to Metis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.instance import SPMInstance
from repro.core.schedule import CEIL_TOL, Schedule

__all__ = ["solve_ecoflow", "EcoFlowResult"]


@dataclass
class EcoFlowResult:
    """Outcome of one EcoFlow run."""

    schedule: Schedule

    @property
    def profit(self) -> float:
        return self.schedule.profit

    @property
    def accepted_ids(self) -> list[int]:
        return self.schedule.accepted_ids


def solve_ecoflow(instance: SPMInstance) -> EcoFlowResult:
    """Run the greedy accept-if-profitable pass over all requests."""
    loads = np.zeros((instance.num_edges, instance.num_slots))
    charged = np.zeros(instance.num_edges, dtype=int)
    assignment: dict[int, int | None] = {}

    for req in sorted(instance.requests, key=lambda r: r.request_id):
        best_path = None
        best_marginal = math.inf
        for path_idx in range(instance.num_paths(req.request_id)):
            marginal = _marginal_cost(instance, loads, charged, req, path_idx)
            if marginal < best_marginal:
                best_marginal = marginal
                best_path = path_idx
        if best_path is not None and req.value > best_marginal:
            assignment[req.request_id] = best_path
            edge_idx = instance.path_edges[req.request_id][best_path]
            loads[edge_idx, req.start : req.end + 1] += req.rate
            peaks = loads[edge_idx].max(axis=1)
            charged[edge_idx] = np.maximum(
                charged[edge_idx], np.ceil(peaks - CEIL_TOL).astype(int)
            )
        else:
            assignment[req.request_id] = None

    return EcoFlowResult(schedule=Schedule(instance, assignment))


def _marginal_cost(
    instance: SPMInstance,
    loads: np.ndarray,
    charged: np.ndarray,
    req,
    path_idx: int,
) -> float:
    """Extra bandwidth cost of routing ``req`` over path ``path_idx`` now."""
    total = 0.0
    for edge_idx in instance.path_edges[req.request_id][path_idx]:
        window = loads[edge_idx, req.start : req.end + 1]
        new_peak = float(window.max()) + req.rate if window.size else req.rate
        new_units = int(math.ceil(new_peak - CEIL_TOL))
        extra = max(0, new_units - int(charged[edge_idx]))
        total += extra * float(instance.prices[edge_idx])
    return total
