"""Raghavan's pessimistic estimator for TAA's decision-tree walk (paper §IV).

TAA derandomizes the scaled randomized rounding of BL-SPM by walking a
K-level decision tree: level ``i`` fixes the choice of request ``i`` (one of
its ``L_i`` paths, or decline).  The walk is steered by ``u_root``, an upper
bound on the probability of reaching a *bad* leaf — one that either earns
revenue below the floor ``I_B`` or violates a link-capacity constraint.

The estimator is a sum of ``1 + |terms|`` products, one per bad event:

* the revenue lower-tail term
  ``exp(t0 * I_B) * prod_i E[exp(-t0 * v_i X_i)]`` where ``X_i`` indicates
  acceptance of request ``i``;
* one upper-tail term per (edge, slot) constraint,
  ``exp(-tc * c_e) * prod_i E[exp(tc * r_{i,t} I_{i,j,e})]``.

Fixing request ``i``'s choice replaces its expectation factor with the
realized factor.  Because each factor is the expectation of its realized
versions under the rounding distribution, choosing the branch that
minimizes the estimator can never increase it (the conditional-expectation
argument), and at a leaf the estimator is ``< 1`` only if no bad event
occurred: a violated capacity contributes ``exp(tc (load - c)) >= 1`` and a
revenue shortfall contributes ``exp(t0 (I_B - revenue)) > 1``.

The paper's printed ``u_root`` drops the per-request braces in the second
sum and reuses ``I_S`` where the bound needs the target ``I_B``; we
implement the standard (correct) estimator with the paper's parameter
choices — see DESIGN.md §5.

All arithmetic is in log space (``logsumexp`` across terms) so deep
products cannot underflow.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

__all__ = ["VectorizedEstimator"]

#: log(phi) is clipped here to keep zero-probability factors finite.
_LOG_FLOOR = -745.0  # just above log(min double)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise ``logsumexp`` for finite input, bitwise equal to scipy's.

    The walk calls ``logsumexp`` once per tree level on a small
    (branches × terms) matrix; scipy's public function spends more time in
    array-API dispatch than in arithmetic at that size.  This replays the
    exact operation sequence of ``scipy.special.logsumexp`` for the
    finite-real no-weights case — max elements separated out, shifted
    exponentials summed, ``log1p(s) + log(m) + a_max`` — so the results
    are bit-for-bit the same (asserted against the scipy-based reference
    walk by the fuzz tests).
    """
    a_max = np.max(a, axis=1, keepdims=True)
    mask = a == a_max
    m = np.sum(mask, axis=1, keepdims=True, dtype=a.dtype)
    s = np.sum(np.exp(np.where(mask, -np.inf, a) - a_max), axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


class VectorizedEstimator:
    """The sum-of-products estimator and its greedy tree walk, CSR-encoded.

    The readable reference (the test-suite's ``PessimisticEstimator``
    oracle) keeps per-request nested Python lists of ``(term,
    log_factor)`` deltas and scores each branch by copying the base vector
    and calling ``logsumexp`` once; on B4-sized instances that walk alone
    is tens of thousands of small numpy calls.  This class stores the
    *same* deltas as one flat CSR structure
    (``delta_terms``/``delta_vals`` indexed by ``delta_ptr`` per branch,
    branches of request ``i`` at ``branch_offsets[i]:branch_offsets[i+1]``,
    decline last) and scores all branches of a request in one
    ``logsumexp`` over a (branches × terms) matrix.

    Every float operation is kept bitwise identical to the reference:
    deltas within a branch hit distinct terms, so the ``np.add.at``
    scatter reproduces the reference's sequential ``+=`` exactly;
    row-wise ``logsumexp(matrix, axis=1)`` matches per-row 1-D calls
    bitwise; and ``np.argmin``'s first-minimum convention matches the
    reference's strict ``<`` branch scan.  The fuzz tests assert exact
    float equality of ``initial_log_value``/``walk`` against the
    reference on random instances.
    """

    def __init__(
        self,
        num_requests: int,
        branch_offsets: np.ndarray,
        delta_ptr: np.ndarray,
        delta_terms: np.ndarray,
        delta_vals: np.ndarray,
        log_consts: np.ndarray,
        log_phi: np.ndarray,
    ) -> None:
        if branch_offsets.size != num_requests + 1:
            raise ValueError(
                f"branch_offsets sized {branch_offsets.size}, "
                f"expected {num_requests + 1}"
            )
        if log_phi.shape != (num_requests, log_consts.size):
            raise ValueError(
                f"log_phi shape {log_phi.shape} != "
                f"({num_requests}, {log_consts.size})"
            )
        self.num_requests = num_requests
        self.branch_offsets = branch_offsets
        self.delta_ptr = delta_ptr
        self.delta_terms = delta_terms
        self.delta_vals = delta_vals
        self.log_consts = log_consts
        self.log_phi = np.clip(log_phi, _LOG_FLOOR, None)
        # Branch-local row index of each delta, for the 2-D scatter.
        branch_sizes = np.diff(delta_ptr)
        local = np.arange(branch_offsets[-1], dtype=np.int64) - np.repeat(
            branch_offsets[:-1], np.diff(branch_offsets)
        )
        self._delta_rows = np.repeat(local, branch_sizes)

        self._suffix = np.zeros((num_requests + 1, log_consts.size))
        if num_requests:
            self._suffix[:-1] = np.cumsum(self.log_phi[::-1], axis=0)[::-1]

    def initial_log_value(self) -> float:
        """``ln u_root`` before any choice is fixed."""
        return float(logsumexp(self.log_consts + self._suffix[0]))

    def walk(self) -> tuple[list[int], float]:
        """Greedy walk; same contract (and bits) as the reference walk."""
        prefix = np.zeros(self.log_consts.size)
        choices: list[int] = []
        current = self.initial_log_value()
        for i in range(self.num_requests):
            base = self.log_consts + prefix + self._suffix[i + 1]
            b0 = int(self.branch_offsets[i])
            b1 = int(self.branch_offsets[i + 1])
            d0 = int(self.delta_ptr[b0])
            d1 = int(self.delta_ptr[b1])
            adjusted = np.repeat(base[None, :], b1 - b0, axis=0)
            np.add.at(
                adjusted,
                (self._delta_rows[d0:d1], self.delta_terms[d0:d1]),
                self.delta_vals[d0:d1],
            )
            values = _logsumexp_rows(adjusted)
            best = int(np.argmin(values))
            choices.append(best)
            s0 = int(self.delta_ptr[b0 + best])
            s1 = int(self.delta_ptr[b0 + best + 1])
            np.add.at(
                prefix, self.delta_terms[s0:s1], self.delta_vals[s0:s1]
            )
            current = float(values[best])
        return choices, current
