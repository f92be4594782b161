"""Benchmark of the sharded broker and the decomposition solver.

The headline number is the decomposition speedup: one monolithic
cycle-sized MILP against the same cycle split into 4 price-coordinated
shard MILPs.  Admission MILP cost grows superlinearly in the batch size,
so the split wins even solved serially — the full configuration asserts
a >= 1.7x floor (the smoke configuration only reports the ratio, CI
containers are too noisy to gate on).  Every schedule either path
returns is checked feasible per (edge, slot) against the topology's
link capacities, and a capacitated run additionally exercises the dual
price iteration + reconciliation eviction machinery end to end.

Set ``REPRO_BENCH_SMOKE=1`` for the shrunken CI configuration.  The
sharded-broker benchmark feeds the ``BENCH_shard.json`` CI artifact.
"""

import os
import time

import numpy as np

from repro import b4
from repro.core.instance import SPMInstance
from repro.decomp import DecompConfig, solve_decomposed, solve_exact
from repro.shard import ShardConfig, ShardedBroker
from repro.workload.generator import WorkloadConfig, generate_workload

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_REQUESTS = 24 if _SMOKE else 96
_SLOTS = 6 if _SMOKE else 8
_SHARDS = 4
_SPEEDUP_FLOOR = 1.7
_TOL = 1e-9


def _cycle_instance(num_requests: int, *, seed: int = 2019) -> SPMInstance:
    topology = b4()
    requests = generate_workload(
        topology,
        WorkloadConfig(num_requests=num_requests, num_slots=_SLOTS),
        rng=seed,
    )
    return SPMInstance.build(topology, requests, k_paths=3)


def _best_of(fn, rounds):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _assert_slot_feasible(instance: SPMInstance, schedule) -> None:
    """Every (edge, slot) load within the topology's link capacity."""
    loads = instance.loads(schedule.assignment)
    for index, key in enumerate(instance.edges):
        ceiling = instance.topology.capacity(*key)
        if ceiling is None:
            continue
        peak = float(loads[index].max(initial=0.0))
        assert peak <= ceiling + _TOL, (key, peak, ceiling)


def test_decomposition_speedup(benchmark):
    """4 shard MILPs vs 1 monolithic MILP over the same billing cycle."""
    instance = _cycle_instance(_REQUESTS)
    config = DecompConfig(num_shards=_SHARDS)

    t0 = time.perf_counter()
    exact = solve_exact(instance)
    mono_seconds = time.perf_counter() - t0

    outcome = benchmark.pedantic(
        lambda: solve_decomposed(instance, config), rounds=1, iterations=1
    )
    sharded_seconds = benchmark.stats.stats.mean
    speedup = mono_seconds / sharded_seconds

    _assert_slot_feasible(instance, outcome.schedule)
    _assert_slot_feasible(instance, exact)
    assert outcome.profit <= exact.profit + 1e-6

    benchmark.extra_info["requests"] = _REQUESTS
    benchmark.extra_info["shards"] = _SHARDS
    benchmark.extra_info["mono_seconds"] = mono_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = 0.0 if _SMOKE else _SPEEDUP_FLOOR
    benchmark.extra_info["profit_gap"] = exact.profit - outcome.profit
    print(
        f"\ndecomp: mono {mono_seconds:.3f}s vs {_SHARDS} shards "
        f"{sharded_seconds:.3f}s ({speedup:.2f}x), profit "
        f"{outcome.profit:.3f} vs exact {exact.profit:.3f}"
    )
    if not _SMOKE:
        assert speedup >= _SPEEDUP_FLOOR, (
            f"sharded decomposition managed only {speedup:.2f}x against the "
            f"monolithic solve (floor {_SPEEDUP_FLOOR}x)"
        )


def test_sharded_broker_throughput(benchmark):
    """Decisions/sec of the full sharded serving stack (ledger included)."""
    config = ShardConfig(
        topology="b4",
        num_cycles=2 if _SMOKE else 3,
        slots_per_cycle=_SLOTS,
        requests_per_cycle=_REQUESTS,
        seed=2019,
        shards=_SHARDS,
        time_limit=240.0,
    )
    report = benchmark.pedantic(
        lambda: ShardedBroker(config).run(), rounds=1, iterations=1
    )
    for cycle in report.cycles:
        assert cycle.accepted == sum(
            1 for path in cycle.assignment.values() if path is not None
        )
    summary = report.summary()
    benchmark.extra_info["decisions_per_sec"] = summary["decisions_per_sec"]
    benchmark.extra_info["num_shards"] = summary["num_shards"]
    benchmark.extra_info["profit"] = report.profit
    assert summary["num_shards"] == _SHARDS
    assert report.profit > 0


def test_capacitated_decomposition_is_feasible(benchmark):
    """Duals + eviction under tight link caps still yield feasible output."""
    topology = b4()
    topology.set_uniform_capacity(1)
    requests = generate_workload(
        topology,
        WorkloadConfig(num_requests=_REQUESTS, num_slots=_SLOTS),
        rng=7,
    )
    instance = SPMInstance.build(topology, requests, k_paths=3)
    config = DecompConfig(num_shards=_SHARDS, max_rounds=4)

    outcome = benchmark.pedantic(
        lambda: solve_decomposed(instance, config), rounds=1, iterations=1
    )
    _assert_slot_feasible(instance, outcome.schedule)
    loads = instance.loads(outcome.schedule.assignment)
    assert float(np.max(loads, initial=0.0)) <= 1.0 + _TOL
    benchmark.extra_info["rounds"] = outcome.rounds
    benchmark.extra_info["evicted"] = len(outcome.evicted)
    benchmark.extra_info["max_violation"] = outcome.max_violation
