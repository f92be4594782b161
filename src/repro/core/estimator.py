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
    decline last).  ``walk`` ranks the branches of a request by a score
    over the terms each one changes and computes exact values only for a
    level the score cannot decide (see :meth:`walk`); the exact step is
    one ``logsumexp`` over a (branches × terms) matrix.

    Every returned float and choice is bitwise identical to the
    reference: deltas within a branch hit distinct terms, so the
    ``np.add.at`` scatter reproduces the reference's sequential ``+=``
    exactly; row-wise ``logsumexp(matrix, axis=1)`` matches per-row 1-D
    calls bitwise; and ``np.argmin``'s first-minimum convention matches
    the reference's strict ``<`` branch scan.  The fuzz tests assert
    exact float equality of ``initial_log_value``/``walk`` against the
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
        """Greedy walk; same contract (and bits) as the reference walk.

        Each level first ranks its branches by a cheap score and computes
        the exact values (the reference's ``logsumexp`` per branch) only
        when the ranking is too close to call.  With ``a`` the level's
        base vector, ``m = max(a)`` and ``S = sum(exp(a - m)) >= 1``,
        branch ``b`` (deltas ``d_j`` on its terms ``j``) has the value

            ``lse_b = m + log(S + s_b)``,
            ``s_b = sum_j exp(a_j - m) * expm1(d_j)``,

        which is strictly increasing in ``s_b`` (decline has ``s = 0``).
        For any two branches, ``lse_b - lse_c >= (s_b - s_c) / (S + max
        |s|)`` (``log(1 + x) >= x / (1 + x)``).  In floating point the
        score carries an error of about ``n * u`` of the row mass ``S +
        max|s|`` (``n`` terms, ``u`` the unit roundoff; numpy's
        ``exp``/``expm1`` are a few ulp), and each exact value an error of
        about ``(n + |m|) * u``: the per-term ``a_j + d_j`` roundings,
        the sums and the final ``+ a_max``.  So when the best score leads
        the runner-up by more than ``(1e-9 + 4u (n + |m|)) * (S +
        max|s|)``, every exact value is strictly above the best's, and the
        reference's first-minimum choice is the best score's branch.
        Otherwise — ties, near ties, or a non-finite score — the level
        takes the exact step, as does the last level, whose value
        ``walk`` returns.  Either way the choice, ``prefix`` and the
        returned value are the reference's bits: a branch's deltas hit
        distinct terms, so ``prefix[terms] += vals`` adds exactly as the
        reference's sequential ``+=``.
        """
        consts = self.log_consts
        suffix = self._suffix
        terms = self.delta_terms
        vals = self.delta_vals
        rows = self._delta_rows
        # Ordering only: never part of a returned value.
        growth = np.expm1(vals)
        branch_offsets = self.branch_offsets.tolist()
        delta_ptr = self.delta_ptr.tolist()
        unit = float(np.finfo(float).eps) / 2
        slack = 4.0 * unit * consts.size
        prefix = np.zeros(consts.size)
        choices: list[int] = []
        current = self.initial_log_value()
        last = self.num_requests - 1
        for i in range(self.num_requests):
            base = consts + prefix + suffix[i + 1]
            b0 = branch_offsets[i]
            b1 = branch_offsets[i + 1]
            d0 = delta_ptr[b0]
            d1 = delta_ptr[b1]
            best = -1
            if i < last and b1 - b0 > 1:
                top = float(base.max())
                shifted = np.exp(base - top)
                score_arr = np.bincount(
                    rows[d0:d1],
                    shifted[terms[d0:d1]] * growth[d0:d1],
                    minlength=b1 - b0,
                )
                # A NaN or infinite score makes the tolerance non-finite
                # and sends the level to the exact step.
                tolerance = (1e-9 + slack + 4.0 * unit * abs(top)) * float(
                    shifted.sum() + np.abs(score_arr).max()
                )
                scores = score_arr.tolist()
                lead = min(scores)
                best = scores.index(lead)
                runner_up = min(scores[:best] + scores[best + 1 :])
                if not runner_up - lead > tolerance:
                    best = -1
            if best < 0:
                adjusted = np.repeat(base[None, :], b1 - b0, axis=0)
                np.add.at(
                    adjusted, (rows[d0:d1], terms[d0:d1]), vals[d0:d1]
                )
                values = _logsumexp_rows(adjusted)
                best = int(np.argmin(values))
                current = float(values[best])
            choices.append(best)
            s0 = delta_ptr[b0 + best]
            s1 = delta_ptr[b0 + best + 1]
            prefix[terms[s0:s1]] += vals[s0:s1]
        return choices, current
