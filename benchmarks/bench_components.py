"""Microbenchmarks of the library's building blocks.

Not tied to a paper figure — these track the cost of each stage so a
regression in the LP layer, the estimator walk or path enumeration is
caught by the benchmark suite rather than discovered inside a 30-round
Metis run.  The expression-layer and reference-estimator rows use the
test-suite's oracles (``tests.oracles``): run from the repository root with
``python -m pytest``.
"""

import pytest

from repro.core.instance import SPMInstance
from repro.core.maa import solve_maa
from repro.core.taa import solve_taa
from repro.experiments.common import ExperimentConfig, make_instance
from repro.net.paths import k_shortest_paths
from repro.net.topologies import b4

from tests.oracles.estimator import PessimisticEstimator, build_estimator
from tests.oracles.formulations import build_bl_spm, build_rl_spm, fractional_x

_CFG = ExperimentConfig(topology="b4", request_counts=(200,), max_duration=None)


@pytest.fixture(scope="module")
def instance():
    return make_instance(_CFG, 200)


def test_path_enumeration(benchmark):
    """Yen's k-shortest paths across all B4 DC pairs (k=3).

    Calls :func:`k_shortest_paths` directly: ``Topology.candidate_paths``
    memoizes, so it would time dictionary hits after the first round.
    """
    topo = b4()

    def enumerate_all():
        count = 0
        for src in topo.datacenters:
            for dst in topo.datacenters:
                if src != dst:
                    count += len(k_shortest_paths(topo.graph, src, dst, k=3))
        return count

    total = benchmark(enumerate_all)
    # Most pairs have the full k=3 candidates; a few peripheral pairs
    # (single-attachment sites) top out below that.
    assert 12 * 11 * 2 <= total <= 12 * 11 * 3


def test_instance_build(benchmark, instance):
    """SPMInstance.build for K=200: memoized path lookups + incidence arrays."""
    result = benchmark(
        lambda: SPMInstance.build(
            instance.topology, instance.requests, k_paths=3
        )
    )
    assert result.num_requests == 200


def test_rl_spm_lp_solve(benchmark, instance):
    """The RL-SPM relaxation (MAA's stage 1) at K=200 on B4."""
    problem = build_rl_spm(instance, integral=False)
    solution = benchmark(problem.model.solve)
    assert solution.is_optimal


def test_bl_spm_lp_solve(benchmark, instance):
    """The BL-SPM relaxation (TAA's stage 1) at K=200 on B4."""
    capacities = {key: 10 for key in instance.edges}
    problem = build_bl_spm(instance, capacities, integral=False)
    solution = benchmark(problem.model.solve)
    assert solution.is_optimal


def test_maa_full(benchmark, instance):
    """Full MAA (LP + rounding + ceiling) at K=200."""
    result = benchmark.pedantic(
        lambda: solve_maa(instance, rng=0), rounds=3, iterations=1
    )
    assert result.schedule.num_accepted == 200


def test_taa_full(benchmark, instance):
    """Full TAA (LP + mu + estimator walk + augmentation) at K=200."""
    capacities = {key: 10 for key in instance.edges}
    result = benchmark.pedantic(
        lambda: solve_taa(instance, capacities), rounds=3, iterations=1
    )
    assert result.revenue >= 0


def test_estimator_walk_scaling(benchmark, instance):
    """The derandomized walk alone, on the real TAA estimator for K=200."""
    capacities = {key: 10 for key in instance.edges}
    problem = build_bl_spm(instance, capacities, integral=False)
    solution = problem.model.solve()
    weights = fractional_x(problem, solution)
    rate_max = max(r.rate for r in instance.requests)
    value_max = max(r.value for r in instance.requests)
    estimator = build_estimator(
        instance,
        weights,
        capacities,
        mu=0.5,
        t0=1.0,
        t_cap=0.693,
        rate_max=rate_max,
        value_max=value_max,
        revenue_floor_norm=0.0,
    )
    assert isinstance(estimator, PessimisticEstimator)
    choices, final = benchmark(estimator.walk)
    assert len(choices) == 200
