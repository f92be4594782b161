"""Benchmark of the warm-started re-solve layer.

Two headline rows, each pinned against its cold oracle *after* an
equivalence assertion (warm-start reuse is only allowed to change wall
clock, never results):

* **Metis alternation** — ``Metis(warm_start=True)`` (resolve sessions +
  incremental local search) against the cold fast path at benchmark
  scale; the full configuration asserts a >= 1.5x end-to-end floor.
* **Concurrent shard rounds** — the decomposed price loop with per-round
  shard solves fanned across a process pool; equivalence, feasibility and
  the ``(S - 1) * sum_e u_e`` gap bound are asserted on every run, while
  the wall-clock floor is gated on the machine actually having more than
  one core (process concurrency is a no-op on single-core CI).

Set ``REPRO_BENCH_SMOKE=1`` for the shrunken CI configuration: identical
equivalence assertions, floors reported instead of enforced.  Feeds the
``BENCH_warmstart.json`` CI artifact.
"""

import os
import time

import numpy as np
import pytest

from repro import b4
from repro.core.instance import SPMInstance
from repro.core.metis import Metis
from repro.decomp.solver import (
    DecompConfig,
    profit_gap_bound,
    solve_decomposed,
    solve_exact,
)
from repro.experiments.common import ExperimentConfig, make_instance
from repro.service.pool import SolverPool
from repro.workload.request import Request, RequestSet

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_TOL = 1e-9

_METIS_REQUESTS = 30 if _SMOKE else 200
_METIS_CFG = ExperimentConfig(
    topology="sub-b4" if _SMOKE else "b4",
    request_counts=(_METIS_REQUESTS,),
    time_limit=240.0,
)

_SHARD_REQUESTS = 24 if _SMOKE else 96
_SHARDS = 4
_MULTI_CORE = len(os.sched_getaffinity(0)) >= 2


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

    warm_outcome = Metis(theta=theta, warm_start=True).solve(instance, rng=7)
    cold_outcome = Metis(theta=theta, warm_start=False).solve(instance, rng=7)
    assert warm_outcome.best.profit == cold_outcome.best.profit
    assert warm_outcome.num_rounds == cold_outcome.num_rounds
    if cold_outcome.best.schedule is not None:
        assert (
            warm_outcome.best.schedule.assignment
            == cold_outcome.best.schedule.assignment
        )

    rounds = 2
    t_cold = best_of(
        lambda: Metis(theta=theta, warm_start=False).solve(instance, rng=7),
        rounds,
    )
    t_warm = best_of(
        lambda: Metis(theta=theta, warm_start=True).solve(instance, rng=7),
        rounds,
    )
    benchmark.pedantic(
        lambda: Metis(theta=theta, warm_start=True).solve(instance, rng=7),
        rounds=1,
        iterations=1,
    )
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


def _full_cycle_instance(num_requests: int, *, num_slots: int = 6):
    """Uncapped B4, every request spanning the whole billing cycle.

    The common-peak shape under which the decomposition's additive gap
    bound ``(S - 1) * sum_e u_e`` is valid (see
    :func:`repro.decomp.solver.profit_gap_bound`).
    """
    topo = b4()
    dcs = topo.datacenters
    rng = np.random.default_rng(2019)
    requests = [
        Request(
            request_id=i,
            source=dcs[i % len(dcs)],
            dest=dcs[(i + 1 + i // len(dcs)) % len(dcs)],
            start=0,
            end=num_slots - 1,
            rate=float(rng.uniform(0.1, 0.5)),
            value=float(rng.uniform(1.0, 8.0)),
        )
        for i in range(num_requests)
    ]
    return SPMInstance.build(topo, RequestSet(requests, num_slots), k_paths=3)


def test_concurrent_shard_rounds(benchmark):
    """Pooled vs serialized per-round shard solves at 4 shards."""
    instance = _full_cycle_instance(_SHARD_REQUESTS)
    serial_cfg = DecompConfig(num_shards=_SHARDS, max_rounds=4)
    pooled_cfg = DecompConfig(num_shards=_SHARDS, max_rounds=4, workers=_SHARDS)

    serial = solve_decomposed(instance, serial_cfg)
    with SolverPool(_SHARDS, cache_size=0) as pool:
        pooled = solve_decomposed(instance, pooled_cfg, pool=pool)
        assert pooled.workers == _SHARDS
        assert pooled.profit == serial.profit
        assert pooled.schedule.assignment == serial.schedule.assignment
        pooled.schedule.check_capacities(instance.topology.capacities())

        exact = solve_exact(instance, time_limit=240.0)
        gap = exact.profit - pooled.profit
        bound = profit_gap_bound(instance, _SHARDS)
        assert gap <= bound + _TOL, (
            f"decomposition gap {gap:.4f} exceeds the additive bound "
            f"{bound:.4f}"
        )

        rounds = 2 if _SMOKE else 3
        t_serial = best_of(
            lambda: solve_decomposed(instance, serial_cfg), rounds
        )
        t_pooled = best_of(
            lambda: solve_decomposed(instance, pooled_cfg, pool=pool), rounds
        )
        benchmark.pedantic(
            lambda: solve_decomposed(instance, pooled_cfg, pool=pool),
            rounds=1,
            iterations=1,
        )
    speedup = t_serial / t_pooled
    benchmark.extra_info["requests"] = _SHARD_REQUESTS
    benchmark.extra_info["shards"] = _SHARDS
    benchmark.extra_info["cores"] = len(os.sched_getaffinity(0))
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = 1.2 if (not _SMOKE and _MULTI_CORE) else 0.0
    benchmark.extra_info["profit_gap"] = gap
    print(
        f"\nshard rounds at K={_SHARD_REQUESTS}, {_SHARDS} shards: serial "
        f"{t_serial:.3f}s, pooled {t_pooled:.3f}s ({speedup:.2f}x on "
        f"{len(os.sched_getaffinity(0))} core(s)), gap {gap:.3f} <= "
        f"bound {bound:.1f}"
    )
    if not _SMOKE and _MULTI_CORE:
        assert speedup >= 1.2, (
            f"concurrent shard rounds managed only {speedup:.2f}x over the "
            f"serialized loop on a multi-core machine (floor 1.2x)"
        )
