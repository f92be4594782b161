"""Benchmark of the online extension: slot-by-slot exact admission.

Tracks the cost of the per-batch MILPs, asserts the dominance chain
(online <= offline OPT) at benchmark scale, pins the array-native
batch-compilation speedup over the expression reference build, and pins
the crossover floor under ``ENUMERATION_CAP``: exact enumeration of a
small batch costs at most half of a HiGHS solve.

Set ``REPRO_BENCH_SMOKE=1`` to run a shrunken configuration (CI smoke):
same assertions on equivalence and dominance, relaxed speedup floor.
"""

import os
import statistics
import time

import numpy as np
import pytest

import repro.core.online as online_mod
from repro.baselines.opt import solve_opt_spm
from repro.core.instance import SPMInstance
from repro.core.online import (
    OnlineScheduler,
    build_incremental_spm,
    commit_decision,
    enumerate_batch,
    solve_batch,
)
from repro.experiments.common import ExperimentConfig, make_instance
from repro.loadgen import synthesize_bids
from repro.net.topologies import b4
from repro.workload.request import RequestSet
from repro.workload.value_models import FlatRateValueModel

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_NUM_REQUESTS = 20 if _SMOKE else 60

_CFG = ExperimentConfig(
    topology="sub-b4",
    request_counts=(_NUM_REQUESTS,),
    value_model=FlatRateValueModel(1.0),
    time_limit=240.0,
)


@pytest.fixture(scope="module")
def instance():
    return make_instance(_CFG, _NUM_REQUESTS)


def test_online_scheduler(benchmark, instance):
    """Full online run: one exact incremental MILP per arrival slot."""
    outcome = benchmark.pedantic(
        lambda: OnlineScheduler().run(instance), rounds=1, iterations=1
    )
    offline = solve_opt_spm(instance, time_limit=_CFG.time_limit)
    assert outcome.profit >= 0.0
    assert outcome.profit <= offline.profit + 1e-6
    print(
        f"\nonline profit {outcome.profit:.2f} vs offline OPT "
        f"{offline.profit:.2f} ({outcome.profit / max(offline.profit, 1e-9):.0%})"
    )


def test_fast_build_speedup(benchmark, instance):
    """Array-native batch compilation vs the expression reference build.

    One full pass = every arrival batch of the workload compiled once.
    The fast path must produce identical decisions (checked batch by batch
    on an evolving residual state) and build at least 5x faster (2x in
    smoke mode, where tiny batches shrink the expression path's per-term
    disadvantage).
    """
    by_start: dict[int, list[int]] = {}
    for req in instance.requests:
        by_start.setdefault(req.start, []).append(req.request_id)
    batches = [by_start[slot] for slot in sorted(by_start)]
    compiler = instance.batch_compiler()

    committed = np.zeros((instance.num_edges, instance.num_slots))
    charged = np.zeros(instance.num_edges)
    for batch in batches:
        fast = solve_batch(instance, batch, committed, charged, fast_path=True)
        expr = solve_batch(instance, batch, committed, charged, fast_path=False)
        assert fast.choices == expr.choices, (
            "fast and expression builds must decide identically"
        )
        assert fast.objective == pytest.approx(expr.objective)
        commit_decision(instance, batch, list(fast.choices), committed, charged)

    def build_expr():
        for batch in batches:
            build_incremental_spm(instance, batch, committed, charged)[0].compile()

    def build_fast():
        for batch in batches:
            compiler.compile_batch(batch, committed, charged)

    def best_of(fn, rounds):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    rounds = 5 if _SMOKE else 20
    build_expr(), build_fast()  # warm-up
    t_expr = best_of(build_expr, rounds)
    t_fast = best_of(build_fast, rounds)
    benchmark.pedantic(build_fast, rounds=rounds, iterations=1)

    speedup = t_expr / t_fast
    print(
        f"\nbatch model build over {len(batches)} batches: "
        f"expression {t_expr * 1e3:.2f} ms, fast {t_fast * 1e3:.2f} ms, "
        f"speedup {speedup:.1f}x"
    )
    floor = 2.0 if _SMOKE else 5.0
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = floor
    assert speedup >= floor, (
        f"fast path built only {speedup:.1f}x faster than the expression "
        f"path (floor {floor}x)"
    )


def test_lp_screening_latency(benchmark, monkeypatch):
    """LP relaxation bound screening on a low-value admission flood.

    When every request's value sits far below its cheapest path cost, each
    arrival batch is provably hopeless: the LP relaxation bound of the batch
    MILP is <= 0, so all-decline is certified optimal without branching.
    ``OnlineScheduler(lp_screen=True)`` must return bitwise-identical
    decisions and cut mean batch-decision latency by >= 25% (reported, not
    enforced, in smoke mode).  The screen guards the MILP only, so the
    enumeration cap is set to 0 to send every batch there.
    """
    monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
    flood_cfg = ExperimentConfig(
        topology="sub-b4",
        request_counts=(_NUM_REQUESTS,),
        value_model=FlatRateValueModel(0.2),
        time_limit=240.0,
    )
    flood = make_instance(flood_cfg, _NUM_REQUESTS)

    plain_sched = OnlineScheduler(lp_screen=False)
    plain = plain_sched.run(flood)
    screened_sched = OnlineScheduler(lp_screen=True)
    screened = screened_sched.run(flood)
    assert screened.profit == plain.profit
    assert screened.schedule.assignment == plain.schedule.assignment
    assert screened_sched.screened_batches > 0, (
        "the flood workload must actually trigger the screen"
    )

    def best_of(fn, rounds):
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    rounds = 3
    t_plain = best_of(lambda: OnlineScheduler(lp_screen=False).run(flood), rounds)
    t_screen = best_of(lambda: OnlineScheduler(lp_screen=True).run(flood), rounds)
    benchmark.pedantic(
        lambda: OnlineScheduler(lp_screen=True).run(flood),
        rounds=1,
        iterations=1,
    )
    reduction = 1.0 - t_screen / t_plain
    benchmark.extra_info["screened_batches"] = screened_sched.screened_batches
    benchmark.extra_info["latency_reduction"] = reduction
    benchmark.extra_info["floor"] = 0.0 if _SMOKE else 0.25
    print(
        f"\nonline flood at K={_NUM_REQUESTS}: plain {t_plain * 1e3:.1f} ms, "
        f"screened {t_screen * 1e3:.1f} ms "
        f"({screened_sched.screened_batches} batches screened, "
        f"latency -{reduction:.0%})"
    )
    if not _SMOKE:
        assert reduction >= 0.25, (
            f"LP screening cut mean batch latency by only {reduction:.0%} "
            f"(floor 25%)"
        )


def test_enumeration_crossover_floor(benchmark, monkeypatch):
    """Exact enumeration vs HiGHS on live-shaped batches up to the cap.

    Bids as the live gateway sees them (B4, 12-slot cycle, the load
    generator's values, k=3 paths) are cut into batches of 1, 2, ... bids
    whose joint choice space is at most ``ENUMERATION_CAP``, and decided
    on an evolving state by both backends.  The objectives must agree,
    and for every batch size the enumerator's median time must be at most
    half of HiGHS's: the cap sits where this still holds.
    """
    topology = b4()
    per_size = 10 if _SMOKE else 40
    bids = list(synthesize_bids(topology, num_bids=15 * per_size, seed=11))
    instance = SPMInstance.build(topology, RequestSet(bids, 12), k_paths=3)
    ids = [req.request_id for req in instance.requests]

    def timed(fn):
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result

    medians = {}
    size = 1
    while 4**size <= online_mod.ENUMERATION_CAP:  # k=3: at most 4**size choices
        committed = np.zeros((instance.num_edges, instance.num_slots))
        charged = np.zeros(instance.num_edges)
        enum_s, highs_s = [], []
        for _ in range(per_size):
            batch, ids = ids[:size], ids[size:]
            t_enum, (choices, objective) = timed(
                lambda: enumerate_batch(instance, batch, committed, charged)
            )
            with monkeypatch.context() as patch:
                patch.setattr(online_mod, "ENUMERATION_CAP", 0)
                t_highs, milp = timed(
                    lambda: solve_batch(instance, batch, committed, charged)
                )
            assert objective == pytest.approx(milp.objective, rel=1e-6, abs=1e-6)
            enum_s.append(t_enum)
            highs_s.append(t_highs)
            commit_decision(instance, batch, list(choices), committed, charged)
        medians[size] = (statistics.median(enum_s), statistics.median(highs_s))
        size += 1

    one = [instance.requests[0].request_id]
    benchmark.pedantic(
        lambda: enumerate_batch(instance, one, committed, charged),
        rounds=20,
        iterations=1,
    )
    speedup = min(highs / enum for enum, highs in medians.values())
    for size, (enum, highs) in medians.items():
        print(
            f"\n{size} bid(s): enumerate {enum * 1e3:.3f} ms, "
            f"HiGHS {highs * 1e3:.3f} ms ({highs / enum:.1f}x)"
        )
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = 2.0
    assert speedup >= 2.0, (
        f"enumeration beat HiGHS by only {speedup:.1f}x at some batch size "
        f"under the cap {online_mod.ENUMERATION_CAP} (floor 2x)"
    )
