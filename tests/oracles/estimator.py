"""The reference pessimistic estimator of TAA's decision-tree walk.

:class:`PessimisticEstimator` is the readable sum-of-products estimator:
per-request nested lists of ``(term, log_factor)`` deltas, each branch
scored by one ``scipy.special.logsumexp`` call.  :func:`build_estimator`
assembles it for a TAA run by walking requests × paths × edges × slots.
The runtime's :class:`~repro.core.estimator.VectorizedEstimator` and
``repro.core.taa._build_estimator_fast`` are held to both, to exact float
equality.

Test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from repro.core.estimator import _LOG_FLOOR
from repro.core.instance import SPMInstance

__all__ = ["EstimatorTerm", "PessimisticEstimator", "build_estimator"]

EdgeKey = tuple


@dataclass(frozen=True)
class EstimatorTerm:
    """One bad-event term: ``exp(log_const) * prod_i phi_i``."""

    name: str
    log_const: float


class PessimisticEstimator:
    """The sum-of-products estimator and its greedy tree walk.

    Parameters
    ----------
    num_requests:
        K, the tree depth.
    num_choices:
        per request, the number of branches (``L_i + 1``; the last branch is
        *decline* by convention).
    terms:
        the bad-event terms (term 0 is conventionally the revenue term).
    log_phi:
        array ``(K, M)`` with ``log E[factor]`` per request and term.
    choice_deltas:
        ``choice_deltas[i][b]`` is a list of ``(term_idx, log_factor)``
        pairs: fixing request ``i`` to branch ``b`` multiplies term
        ``term_idx`` by ``exp(log_factor)`` (unlisted terms keep factor 1).
    """

    def __init__(
        self,
        num_requests: int,
        num_choices: list[int],
        terms: list[EstimatorTerm],
        log_phi: np.ndarray,
        choice_deltas: list[list[list[tuple[int, float]]]],
    ) -> None:
        if log_phi.shape != (num_requests, len(terms)):
            raise ValueError(
                f"log_phi shape {log_phi.shape} != ({num_requests}, {len(terms)})"
            )
        if len(num_choices) != num_requests or len(choice_deltas) != num_requests:
            raise ValueError("per-request metadata length mismatch")
        self.num_requests = num_requests
        self.num_choices = num_choices
        self.terms = terms
        self.log_phi = np.clip(log_phi, _LOG_FLOOR, None)
        self.choice_deltas = choice_deltas
        self.log_consts = np.array([t.log_const for t in terms])

        # suffix[i] = sum of log_phi over requests i..K-1 (suffix[K] = 0).
        self._suffix = np.zeros((num_requests + 1, len(terms)))
        if num_requests:
            self._suffix[:-1] = np.cumsum(self.log_phi[::-1], axis=0)[::-1]

    # ----------------------------------------------------------------- values

    def initial_log_value(self) -> float:
        """``ln u_root`` before any choice is fixed."""
        return float(logsumexp(self.log_consts + self._suffix[0]))

    def _log_value(self, base: np.ndarray, deltas: list[tuple[int, float]]) -> float:
        if not deltas:
            return float(logsumexp(base))
        adjusted = base.copy()
        for term_idx, log_factor in deltas:
            adjusted[term_idx] += log_factor
        return float(logsumexp(adjusted))

    # ------------------------------------------------------------------ walk

    def walk(self) -> tuple[list[int], float]:
        """Greedily minimize the estimator level by level.

        Returns ``(choices, final_log_value)`` where ``choices[i]`` is the
        branch fixed for request ``i``.  By the conditional-expectation
        argument the estimator value is non-increasing along the walk; the
        final value is ``ln`` of the leaf estimator.
        """
        prefix = np.zeros(len(self.terms))
        choices: list[int] = []
        current = self.initial_log_value()
        for i in range(self.num_requests):
            base = self.log_consts + prefix + self._suffix[i + 1]
            best_branch = 0
            best_value = math.inf
            for branch in range(self.num_choices[i]):
                value = self._log_value(base, self.choice_deltas[i][branch])
                if value < best_value:
                    best_value = value
                    best_branch = branch
            choices.append(best_branch)
            for term_idx, log_factor in self.choice_deltas[i][best_branch]:
                prefix[term_idx] += log_factor
            current = best_value
        return choices, current


def build_estimator(
    instance: SPMInstance,
    weights: dict[int, list[float]],
    capacities: dict[EdgeKey, int],
    *,
    mu: float,
    t0: float,
    t_cap: float,
    rate_max: float,
    value_max: float,
    revenue_floor_norm: float,
    formulation=None,
) -> PessimisticEstimator:
    """Assemble the sum-of-products estimator for this instance.

    This is the readable reference build; ``formulation`` is unused here
    (accepted for signature parity with the runtime's
    ``repro.core.taa._build_estimator_fast``).
    """
    requests = instance.requests.requests
    num_slots = instance.num_slots

    # Capacity terms: only (edge, slot) pairs some candidate path can load.
    term_of: dict[tuple[int, int], int] = {}
    terms: list[EstimatorTerm] = [
        EstimatorTerm(name="revenue", log_const=t0 * revenue_floor_norm)
    ]
    for req in requests:
        for path_idx in range(instance.num_paths(req.request_id)):
            for edge_idx in instance.path_edges[req.request_id][path_idx]:
                for t in req.slots:
                    key = (int(edge_idx), t)
                    if key not in term_of:
                        term_of[key] = len(terms)
                        cap_norm = capacities[instance.edges[int(edge_idx)]] / rate_max
                        terms.append(
                            EstimatorTerm(
                                name=f"cap_{edge_idx}_{t}",
                                log_const=-t_cap * cap_norm,
                            )
                        )

    num_terms = len(terms)
    log_phi = np.zeros((len(requests), num_terms))
    num_choices: list[int] = []
    choice_deltas: list[list[list[tuple[int, float]]]] = []

    for row, req in enumerate(requests):
        n_paths = instance.num_paths(req.request_id)
        num_choices.append(n_paths + 1)
        p = np.clip(mu * np.asarray(weights[req.request_id], dtype=float), 0.0, 1.0)
        total_p = min(1.0, float(p.sum()))
        rate_norm = req.rate / rate_max
        value_norm = req.value / value_max

        # Revenue factor: accepted with prob total_p, contributing e^{-t0 v}.
        log_phi[row, 0] = math.log(
            max(1.0 + total_p * (math.exp(-t0 * value_norm) - 1.0), 0.0) or 1e-300
        )

        # Capacity factors: phi = 1 + sum_{paths crossing e} p_j (e^{tc r} - 1).
        bump = math.exp(t_cap * rate_norm) - 1.0
        per_term_mass: dict[int, float] = {}
        deltas_per_branch: list[list[tuple[int, float]]] = []
        for path_idx in range(n_paths):
            branch_deltas: list[tuple[int, float]] = [(0, -t0 * value_norm)]
            for edge_idx in instance.path_edges[req.request_id][path_idx]:
                for t in req.slots:
                    term_idx = term_of[(int(edge_idx), t)]
                    per_term_mass[term_idx] = (
                        per_term_mass.get(term_idx, 0.0) + float(p[path_idx])
                    )
                    branch_deltas.append((term_idx, t_cap * rate_norm))
            deltas_per_branch.append(branch_deltas)
        deltas_per_branch.append([])  # decline: every factor is 1
        choice_deltas.append(deltas_per_branch)

        for term_idx, mass in per_term_mass.items():
            log_phi[row, term_idx] = math.log(1.0 + min(mass, 1.0) * bump)

    return PessimisticEstimator(
        num_requests=len(requests),
        num_choices=num_choices,
        terms=terms,
        log_phi=log_phi,
        choice_deltas=choice_deltas,
    )
