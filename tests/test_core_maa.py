"""Tests for repro.core.maa (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.maa import improve_paths, round_paths, solve_maa
from repro.core.schedule import Schedule

from tests.oracles.formulations import build_rl_spm


class TestSolveMaa:
    def test_every_request_satisfied(self, small_sub_b4_instance):
        result = solve_maa(small_sub_b4_instance, rng=1)
        assert result.schedule.num_accepted == small_sub_b4_instance.num_requests

    def test_cost_at_least_fractional(self, small_sub_b4_instance):
        result = solve_maa(small_sub_b4_instance, rng=1)
        assert result.cost >= result.fractional_cost - 1e-6

    def test_deterministic_for_seed(self, small_sub_b4_instance):
        a = solve_maa(small_sub_b4_instance, rng=5)
        b = solve_maa(small_sub_b4_instance, rng=5)
        assert a.schedule.assignment == b.schedule.assignment
        assert a.cost == pytest.approx(b.cost)

    def test_alpha_is_min_positive_fractional_bandwidth(
        self, small_sub_b4_instance
    ):
        result = solve_maa(small_sub_b4_instance, rng=1)
        assert result.alpha > 0
        assert result.ceiling_ratio_bound == pytest.approx(
            (result.alpha + 1) / result.alpha
        )

    def test_integer_charging(self, small_sub_b4_instance):
        result = solve_maa(small_sub_b4_instance, rng=1)
        assert all(isinstance(u, int) for u in result.schedule.charged.values())

    def test_diamond_prefers_cheap_path(self, diamond_instance):
        result = solve_maa(diamond_instance, rng=0)
        # Optimal fractional routing puts everything on the cheap A->B->D
        # route: fractional bandwidth 1.5 on each of its two price-1 links.
        assert result.fractional_cost == pytest.approx(3.0)
        # The relaxation is integral here, so rounding follows it and the
        # ceiling charges 2 units per cheap link.
        assert result.cost == pytest.approx(4.0)
        assert result.schedule.assignment == {0: 0, 1: 0, 2: 0}


class TestRoundPaths:
    def test_rounding_follows_integral_weights(self, diamond_instance):
        weights = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [1.0, 0.0]}
        assignment = round_paths(diamond_instance, weights, rng=0)
        assert assignment == {0: 0, 1: 1, 2: 0}

    def test_rounding_distribution(self, diamond_instance):
        weights = {0: [0.5, 0.5], 1: [1.0, 0.0], 2: [1.0, 0.0]}
        rng = np.random.default_rng(0)
        picks = [
            round_paths(diamond_instance, weights, rng)[0] for _ in range(400)
        ]
        share = sum(1 for p in picks if p == 0) / len(picks)
        assert 0.4 < share < 0.6

    def test_zero_weights_fall_back_to_first_path(self, diamond_instance):
        weights = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [1.0, 0.0]}
        assignment = round_paths(diamond_instance, weights, rng=0)
        assert assignment[0] == 0

    def test_unnormalized_weights_ok(self, diamond_instance):
        weights = {0: [2.0, 2.0], 1: [3.0, 0.0], 2: [0.0, 5.0]}
        assignment = round_paths(diamond_instance, weights, rng=0)
        assert assignment[1] == 0 and assignment[2] == 1


class TestImprovePaths:
    def test_never_increases_cost(self, small_sub_b4_instance):
        result = solve_maa(small_sub_b4_instance, rng=3)
        improved = improve_paths(
            small_sub_b4_instance, result.schedule.assignment
        )
        new_cost = Schedule(small_sub_b4_instance, improved).cost
        assert new_cost <= result.cost + 1e-9

    def test_fixes_obviously_bad_assignment(self, diamond_instance):
        # Put everything on the expensive route (cost 8); single-move
        # descent moves request 0 to the cheap route (cost 6) and then
        # stalls at that local optimum — moving either remaining request
        # alone would not lower the cost.
        bad = {0: 1, 1: 1, 2: 1}
        bad_cost = Schedule(diamond_instance, bad).cost
        assert bad_cost == pytest.approx(8.0)
        improved = improve_paths(diamond_instance, bad)
        good_cost = Schedule(diamond_instance, improved).cost
        assert good_cost < bad_cost
        assert good_cost == pytest.approx(6.0)

    def test_input_not_mutated(self, diamond_instance):
        bad = {0: 1, 1: 1, 2: 1}
        improve_paths(diamond_instance, bad)
        assert bad == {0: 1, 1: 1, 2: 1}

    def test_declined_requests_untouched(self, diamond_instance):
        assignment = {0: 1, 1: None, 2: 0}
        improved = improve_paths(diamond_instance, assignment)
        assert improved[1] is None

    def test_bad_max_passes(self, diamond_instance):
        with pytest.raises(ValueError):
            improve_paths(diamond_instance, {0: 0, 1: 0, 2: 0}, max_passes=0)


class TestApproximationQuality:
    def test_rounding_ratio_reasonable(self, small_sub_b4_instance):
        """The empirical Fig. 4b property: rounding cost close to optimal."""
        result = solve_maa(small_sub_b4_instance, rng=2)
        exact = build_rl_spm(small_sub_b4_instance, integral=True).model.solve()
        assert result.cost <= 2.0 * exact.objective, (
            "rounding should stay within a small constant of optimal "
            f"(got {result.cost} vs {exact.objective})"
        )
