"""Benchmark of the array-native Metis hot loop.

Pins the speedups of the per-instance formulation compiler, the
vectorized pessimistic-estimator kernel, the batched local-search
descent and the zero-copy ``restrict`` over their expression-layer /
reference counterparts, and times one
end-to-end ``Metis.solve`` on the fast path.  Every timed comparison
first asserts the fast path is *bitwise identical* to the reference (the
property the fuzz suite checks at small scale, re-checked here at
benchmark scale).  The references are the test-suite's oracles
(``tests.oracles``), so run it from the repository root with
``python -m pytest``.

Set ``REPRO_BENCH_SMOKE=1`` to run a shrunken configuration (CI smoke):
same equivalence assertions, relaxed speedup floors.
"""

import math
import os
import time

import numpy as np
import pytest

from repro.core.fastform import FormulationCompiler
from repro.core.instance import SPMInstance
from repro.core.maa import ImproveMemo, improve_paths, solve_maa
from repro.core.metis import Metis
from repro.core.taa import _build_estimator_fast
from repro.experiments.common import ExperimentConfig, make_instance
from repro.lp.solvers import solve_compiled_raw

from tests.oracles import local_search
from tests.oracles.estimator import build_estimator
from tests.oracles.formulations import build_bl_spm, build_rl_spm
from tests.oracles.metis import swap_into_metis
from tests.oracles.reuse import no_reuse

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
_NUM_REQUESTS = 30 if _SMOKE else 200

_CFG = ExperimentConfig(
    topology="sub-b4" if _SMOKE else "b4",
    request_counts=(_NUM_REQUESTS,),
    time_limit=240.0,
)


@pytest.fixture(scope="module")
def instance():
    return make_instance(_CFG, _NUM_REQUESTS)


@pytest.fixture(scope="module")
def capacities(instance):
    """Charged bandwidth of the accept-everything schedule (Metis round 0)."""
    return {
        key: int(units)
        for key, units in solve_maa(instance, rng=0).schedule.charged.items()
    }


def best_of(fn, rounds):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_formulation_compile_speedup(benchmark, instance, capacities):
    """RL-SPM + BL-SPM assembly: compiler vs expression layer, from cold.

    One round = a fresh :class:`FormulationCompiler` (no structure cache)
    assembling both relaxations, against the expression layer building and
    compiling the same two models.  The floor is 5x at K=200 on B4 (2x in
    smoke mode, where tiny models shrink the expression path's per-term
    disadvantage); the warm-cache numbers — what Metis rounds 2..theta
    actually pay — are printed alongside.
    """
    ref_rl = build_rl_spm(instance).model.compile()
    ref_bl = build_bl_spm(instance, capacities).model.compile()
    compiler = FormulationCompiler(instance)
    fast_rl = compiler.compile_rl_spm(instance).compiled
    fast_bl = compiler.compile_bl_spm(instance, capacities).compiled
    for ref, fast in ((ref_rl, fast_rl), (ref_bl, fast_bl)):
        ref_a = ref.a_matrix.tocsr()
        ref_a.sum_duplicates()
        assert ref.c.tobytes() == fast.c.tobytes()
        assert ref.row_upper.tobytes() == fast.row_upper.tobytes()
        assert ref_a.data.tobytes() == fast.a_matrix.data.tobytes()
        assert np.array_equal(ref_a.indices, fast.a_matrix.indices)

    def assemble_expr():
        build_rl_spm(instance).model.compile()
        build_bl_spm(instance, capacities).model.compile()

    def assemble_cold():
        fresh = FormulationCompiler(instance)
        fresh.compile_rl_spm(instance)
        fresh.compile_bl_spm(instance, capacities)

    def assemble_warm():
        compiler.compile_rl_spm(instance)
        compiler.compile_bl_spm(instance, capacities)

    rounds = 3 if _SMOKE else 5
    assemble_expr(), assemble_cold(), assemble_warm()  # warm-up
    t_expr = best_of(assemble_expr, rounds)
    t_cold = best_of(assemble_cold, rounds)
    t_warm = best_of(assemble_warm, rounds)
    benchmark.pedantic(assemble_cold, rounds=rounds, iterations=1)

    speedup = t_expr / t_cold
    print(
        f"\nRL+BL assembly at K={_NUM_REQUESTS}: expression {t_expr * 1e3:.1f} ms, "
        f"compiler cold {t_cold * 1e3:.2f} ms ({speedup:.0f}x), "
        f"warm {t_warm * 1e3:.3f} ms ({t_expr / t_warm:.0f}x)"
    )
    floor = 2.0 if _SMOKE else 5.0
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = floor
    assert speedup >= floor, (
        f"compiler assembled only {speedup:.1f}x faster than the expression "
        f"path (floor {floor}x)"
    )


def test_estimator_speedup(benchmark, instance, capacities):
    """Estimator build + walk: vectorized kernel vs the reference.

    Same LP weights and tilt parameters feed both builders; the kernel's
    ``initial_log_value``/``walk`` must match the reference exactly (the
    bitwise contract) and run at least 9x faster end to end at K=200 on
    B4 (3.5x in smoke mode).
    """
    formulation = instance.formulation_compiler().compile_bl_spm(
        instance, capacities
    )
    raw = solve_compiled_raw(formulation.compiled, time_limit=_CFG.time_limit)
    weights = FormulationCompiler.weights_from_raw(formulation, raw.x)
    requests = instance.requests.requests
    kwargs = dict(
        mu=0.5,
        t0=0.7,
        t_cap=math.log(2.0),
        rate_max=max(r.rate for r in requests),
        value_max=max(r.value for r in requests),
        revenue_floor_norm=0.3,
    )

    ref = build_estimator(instance, weights, capacities, **kwargs)
    fast = _build_estimator_fast(
        instance, weights, capacities, formulation=formulation, **kwargs
    )
    assert ref.log_phi.tobytes() == fast.log_phi.tobytes()
    assert ref.initial_log_value() == fast.initial_log_value()
    ref_choices, ref_final = ref.walk()
    fast_choices, fast_final = fast.walk()
    assert ref_choices == fast_choices
    assert ref_final == fast_final

    def run_ref():
        est = build_estimator(instance, weights, capacities, **kwargs)
        est.initial_log_value()
        est.walk()

    def run_fast():
        est = _build_estimator_fast(
            instance, weights, capacities, formulation=formulation, **kwargs
        )
        est.initial_log_value()
        est.walk()

    rounds = 3 if _SMOKE else 5
    run_ref(), run_fast()  # warm-up
    t_ref = best_of(run_ref, rounds)
    t_fast = best_of(run_fast, rounds)
    benchmark.pedantic(run_fast, rounds=rounds, iterations=1)

    speedup = t_ref / t_fast
    print(
        f"\nestimator build+walk at K={_NUM_REQUESTS}: reference "
        f"{t_ref * 1e3:.1f} ms, vectorized {t_fast * 1e3:.2f} ms, "
        f"speedup {speedup:.1f}x"
    )
    floor = 3.5 if _SMOKE else 9.0
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = floor
    assert speedup >= floor, (
        f"vectorized estimator ran only {speedup:.1f}x faster than the "
        f"reference (floor {floor}x)"
    )


def test_improve_paths_speedup(benchmark, instance):
    """Local-search descent: the batched kernel vs the scalar oracle.

    Both descend from the same MAA rounding, each with a fresh memo, and
    must make the same moves; the kernel must run at least 3x faster at
    K=200 on B4 (1.4x in smoke mode).
    """
    assignment = solve_maa(instance, rng=3).schedule.assignment
    expected = local_search.improve_paths(
        instance, assignment, memo=local_search.ImproveMemo()
    )
    assert improve_paths(instance, assignment, memo=ImproveMemo()) == expected

    def run_ref():
        local_search.improve_paths(
            instance, assignment, memo=local_search.ImproveMemo()
        )

    def run_fast():
        improve_paths(instance, assignment, memo=ImproveMemo())

    rounds = 3 if _SMOKE else 5
    run_ref(), run_fast()  # warm-up
    t_ref = best_of(run_ref, rounds)
    t_fast = best_of(run_fast, rounds)
    benchmark.pedantic(run_fast, rounds=rounds, iterations=1)

    speedup = t_ref / t_fast
    print(
        f"\nimprove_paths at K={_NUM_REQUESTS}: scalar {t_ref * 1e3:.1f} ms, "
        f"batched {t_fast * 1e3:.2f} ms, speedup {speedup:.1f}x"
    )
    floor = 1.4 if _SMOKE else 3.0
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = floor
    assert speedup >= floor, (
        f"batched local search ran only {speedup:.1f}x faster than the "
        f"scalar oracle (floor {floor}x)"
    )


def test_restrict_speedup(benchmark, instance):
    """Zero-copy ``restrict`` vs rebuilding the instance from scratch."""
    half = instance.requests.request_ids[::2]
    child = instance.restrict(half)
    assert child.edges is instance.edges
    assert child.prices is instance.prices

    def restrict_scratch():
        SPMInstance(
            instance.topology,
            instance.requests.subset(half),
            {rid: instance.paths[rid] for rid in half},
        )

    def restrict_fast():
        instance.restrict(half)

    rounds = 5 if _SMOKE else 10
    restrict_scratch(), restrict_fast()  # warm-up
    t_scratch = best_of(restrict_scratch, rounds)
    t_fast = best_of(restrict_fast, rounds)
    benchmark.pedantic(restrict_fast, rounds=rounds, iterations=1)

    speedup = t_scratch / t_fast
    print(
        f"\nrestrict to {len(half)} requests: scratch {t_scratch * 1e6:.0f} us, "
        f"zero-copy {t_fast * 1e6:.1f} us, speedup {speedup:.0f}x"
    )
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = 3.0
    assert speedup >= 3.0, (
        f"zero-copy restrict only {speedup:.1f}x faster than a scratch "
        f"rebuild (floor 3x)"
    )


def test_metis_end_to_end(benchmark, instance, monkeypatch):
    """One full alternation at benchmark scale: certified reuse vs cold.

    ``Metis`` (resolve sessions + incremental local search, see
    :mod:`repro.lp.warmstart`) must match the same alternation under
    :func:`~tests.oracles.reuse.no_reuse` bitwise and beat it by >= 1.5x
    end to end at K=200 (reported, not enforced, in smoke mode).
    """
    theta = 3 if _SMOKE else 5

    def solve():
        return Metis(theta=theta).solve(instance, rng=7)

    cold_solve = no_reuse()(solve)
    outcome = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert outcome.best.profit >= 0.0
    assert outcome.best.profit >= outcome.initial_profit
    cold = cold_solve()
    assert outcome.best.profit == cold.best.profit
    assert outcome.num_rounds == cold.num_rounds
    if cold.best.schedule is not None:
        assert (
            outcome.best.schedule.assignment == cold.best.schedule.assignment
        )

    rounds = 2
    t_cold = best_of(cold_solve, rounds)
    t_warm = best_of(solve, rounds)
    speedup = t_cold / t_warm
    floor = 1.0 if _SMOKE else 1.5
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["floor"] = floor
    print(
        f"\nMetis(theta={theta}) at K={_NUM_REQUESTS}: profit "
        f"{outcome.best.profit:.2f} (init {outcome.initial_profit:.2f}, "
        f"source {outcome.best.source}, {outcome.num_rounds} rounds); "
        f"cold {t_cold:.3f}s vs warm {t_warm:.3f}s ({speedup:.2f}x)"
    )
    if not _SMOKE:
        assert speedup >= floor, (
            f"warm-started alternation managed only {speedup:.2f}x over the "
            f"cold fast path (floor {floor}x)"
        )
    else:
        swap_into_metis(monkeypatch)
        ref = cold_solve()
        assert outcome.best.profit == ref.best.profit
        assert outcome.rounds == ref.rounds
