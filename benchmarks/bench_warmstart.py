"""Benchmark of the warm-started re-solve layer.

The headline row is pinned against its cold oracle *after* an
equivalence assertion (certified reuse is only allowed to change wall
clock, never results): ``Metis`` (resolve sessions + incremental local
search) against the same alternation under
:func:`tests.oracles.reuse.no_reuse` at benchmark scale; the full
configuration asserts a >= 1.5x end-to-end floor.  The oracle is
imported from the test suite, so run it from the repository root with
``python -m pytest``.

Set ``REPRO_BENCH_SMOKE=1`` for the shrunken CI configuration: identical
equivalence assertions, floors reported instead of enforced.  Feeds the
``BENCH_warmstart.json`` CI artifact.
"""

import os
import time

from repro.core.metis import Metis
from repro.experiments.common import ExperimentConfig, make_instance

from tests.oracles.reuse import no_reuse

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

_METIS_REQUESTS = 30 if _SMOKE else 200
_METIS_CFG = ExperimentConfig(
    topology="sub-b4" if _SMOKE else "b4",
    request_counts=(_METIS_REQUESTS,),
    time_limit=240.0,
)


def best_of(fn, rounds):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_metis_warm_alternation_speedup(benchmark):
    """Warm vs cold Metis alternation, bitwise-identical outcome required."""
    instance = make_instance(_METIS_CFG, _METIS_REQUESTS)
    theta = 3 if _SMOKE else 5


    def solve():
        return Metis(theta=theta).solve(instance, rng=7)

    cold_solve = no_reuse()(solve)
    warm_outcome = solve()
    cold_outcome = cold_solve()
    assert warm_outcome.best.profit == cold_outcome.best.profit
    assert warm_outcome.num_rounds == cold_outcome.num_rounds
    if cold_outcome.best.schedule is not None:
        assert (
            warm_outcome.best.schedule.assignment
            == cold_outcome.best.schedule.assignment
        )

    rounds = 2
    t_cold = best_of(cold_solve, rounds)
    t_warm = best_of(solve, rounds)
    benchmark.pedantic(solve, rounds=1, iterations=1)
    speedup = t_cold / t_warm
    benchmark.extra_info["requests"] = _METIS_REQUESTS
    benchmark.extra_info["cold_seconds"] = t_cold
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = 1.0 if _SMOKE else 1.5
    print(
        f"\nMetis(theta={theta}) at K={_METIS_REQUESTS}: cold {t_cold:.3f}s, "
        f"warm {t_warm:.3f}s, speedup {speedup:.2f}x"
    )
    if not _SMOKE:
        assert speedup >= 1.5, (
            f"warm-started alternation managed only {speedup:.2f}x over the "
            f"cold fast path (floor 1.5x)"
        )
