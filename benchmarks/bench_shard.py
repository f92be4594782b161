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
from repro.decomp import (
    DecompConfig,
    profit_gap_bound,
    solve_decomposed,
    solve_exact,
)
from repro.service.pool import SolverPool
from repro.shard import ShardConfig, ShardedBroker
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.request import Request, RequestSet

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


def _common_peak_instance(num_requests: int, *, num_slots: int = 6) -> SPMInstance:
    """Uncapped B4 with every request spanning the whole billing cycle.

    The common-peak shape under which the decomposition's additive gap
    bound ``(S - 1) * sum_e u_e`` is valid (see
    :func:`repro.decomp.solver.profit_gap_bound`).
    """
    topology = b4()
    dcs = topology.datacenters
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
    return SPMInstance.build(topology, RequestSet(requests, num_slots), k_paths=3)


def test_concurrent_price_rounds(benchmark):
    """Pooled vs serialized per-round shard solves inside the price loop.

    ``DecompConfig(workers=4)`` fans each round's 4 shard MILPs across a
    :class:`~repro.service.pool.SolverPool`; results must stay
    bitwise-identical to the serialized loop, feasible, and within the
    ``(S - 1) * sum_e u_e`` additive gap bound of the exact solve.  The
    wall-clock floor only applies off smoke and on machines with >= 2
    cores — process concurrency cannot beat the serial loop on a
    single-core CI container.
    """
    instance = _common_peak_instance(_REQUESTS)
    serial_cfg = DecompConfig(num_shards=_SHARDS, max_rounds=4)
    pooled_cfg = DecompConfig(num_shards=_SHARDS, max_rounds=4, workers=_SHARDS)

    serial = solve_decomposed(instance, serial_cfg)
    with SolverPool(_SHARDS, cache_size=0) as pool:
        pooled = solve_decomposed(instance, pooled_cfg, pool=pool)
        assert pooled.workers == _SHARDS
        assert pooled.profit == serial.profit
        assert pooled.schedule.assignment == serial.schedule.assignment
        _assert_slot_feasible(instance, pooled.schedule)

        exact = solve_exact(instance, time_limit=240.0)
        gap = exact.profit - pooled.profit
        bound = profit_gap_bound(instance, _SHARDS)
        assert gap <= bound + _TOL, (
            f"decomposition gap {gap:.4f} exceeds the additive bound "
            f"{bound:.4f}"
        )

        rounds = 2 if _SMOKE else 3
        t_serial = _best_of(lambda: solve_decomposed(instance, serial_cfg), rounds)
        t_pooled = _best_of(
            lambda: solve_decomposed(instance, pooled_cfg, pool=pool), rounds
        )
        benchmark.pedantic(
            lambda: solve_decomposed(instance, pooled_cfg, pool=pool),
            rounds=1,
            iterations=1,
        )
    cores = len(os.sched_getaffinity(0))
    speedup = t_serial / t_pooled
    gated = not _SMOKE and cores >= 2
    benchmark.extra_info["shards"] = _SHARDS
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = 1.2 if gated else 0.0
    benchmark.extra_info["profit_gap"] = gap
    print(
        f"\nconcurrent price rounds at K={_REQUESTS}, {_SHARDS} shards: "
        f"serial {t_serial:.3f}s, pooled {t_pooled:.3f}s ({speedup:.2f}x on "
        f"{cores} core(s)), gap {gap:.3f} <= bound {bound:.1f}"
    )
    if gated:
        assert speedup >= 1.2, (
            f"concurrent shard rounds managed only {speedup:.2f}x over the "
            f"serialized loop on a multi-core machine (floor 1.2x)"
        )
