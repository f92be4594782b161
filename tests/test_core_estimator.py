"""Tests for the reference estimator walk (tests.oracles.estimator)."""

import math

import numpy as np
import pytest

from tests.oracles.estimator import EstimatorTerm, PessimisticEstimator


def single_term_estimator(log_phi_column, deltas, log_const=0.0):
    """One term, one choice dimension per request (plus decline)."""
    num_requests = len(log_phi_column)
    return PessimisticEstimator(
        num_requests=num_requests,
        num_choices=[2] * num_requests,
        terms=[EstimatorTerm("t", log_const)],
        log_phi=np.array(log_phi_column).reshape(-1, 1),
        choice_deltas=[
            [[(0, deltas[i])], []] for i in range(num_requests)
        ],
    )


class TestInitialValue:
    def test_matches_direct_product(self):
        # U = exp(lc) * phi0 * phi1
        est = single_term_estimator([math.log(0.5), math.log(0.8)], [0.0, 0.0], -1.0)
        expected = math.exp(-1.0) * 0.5 * 0.8
        assert math.exp(est.initial_log_value()) == pytest.approx(expected)

    def test_multiple_terms_sum(self):
        est = PessimisticEstimator(
            num_requests=1,
            num_choices=[2],
            terms=[EstimatorTerm("a", 0.0), EstimatorTerm("b", math.log(2.0))],
            log_phi=np.array([[math.log(0.5), math.log(0.25)]]),
            choice_deltas=[[[(0, 0.0)], []]],
        )
        assert math.exp(est.initial_log_value()) == pytest.approx(0.5 + 2.0 * 0.25)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PessimisticEstimator(
                num_requests=2,
                num_choices=[2, 2],
                terms=[EstimatorTerm("t", 0.0)],
                log_phi=np.zeros((1, 1)),
                choice_deltas=[[[], []], [[], []]],
            )


class TestWalk:
    def test_walk_never_increases_estimator(self):
        """The conditional-expectation property on a random instance."""
        rng = np.random.default_rng(3)
        num_requests, num_terms = 12, 6
        probabilities = rng.uniform(0.05, 0.45, size=num_requests)
        tilts = rng.uniform(0.1, 1.0, size=(num_requests, num_terms))
        # phi = expectation of the realized factors: p e^t + (1-p).
        log_phi = np.log(
            probabilities[:, None] * np.exp(tilts) + (1 - probabilities[:, None])
        )
        deltas = [
            [
                [(k, float(tilts[i, k])) for k in range(num_terms)],  # accept
                [],  # decline
            ]
            for i in range(num_requests)
        ]
        est = PessimisticEstimator(
            num_requests=num_requests,
            num_choices=[2] * num_requests,
            terms=[EstimatorTerm(f"t{k}", -1.0) for k in range(num_terms)],
            log_phi=log_phi,
            choice_deltas=deltas,
        )
        initial = est.initial_log_value()
        choices, final = est.walk()
        assert final <= initial + 1e-9
        assert len(choices) == num_requests
        # With positive tilts everywhere, declining dominates every term.
        assert all(c == 1 for c in choices)

    def test_walk_picks_minimizing_branch(self):
        # Term punishes acceptance (positive tilt), so decline must win.
        est = single_term_estimator([math.log(1.2)], [0.5])
        choices, _ = est.walk()
        assert choices == [1]

    def test_walk_accepts_when_beneficial(self):
        # Negative tilt: accepting shrinks the term.
        est = single_term_estimator([math.log(0.9)], [-0.5])
        choices, _ = est.walk()
        assert choices == [0]

    def test_leaf_value_is_realized_estimator(self):
        est = single_term_estimator(
            [math.log(0.7), math.log(0.6)], [-0.3, -0.2], log_const=0.1
        )
        choices, final = est.walk()
        # Both accepted: U = exp(0.1 - 0.3 - 0.2).
        assert choices == [0, 0]
        assert final == pytest.approx(0.1 - 0.3 - 0.2)

    def test_empty_walk(self):
        est = PessimisticEstimator(
            num_requests=0,
            num_choices=[],
            terms=[EstimatorTerm("t", -2.0)],
            log_phi=np.zeros((0, 1)),
            choice_deltas=[],
        )
        choices, final = est.walk()
        assert choices == []
        assert final == pytest.approx(-2.0)
