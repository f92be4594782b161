"""Warm-started re-solves: equivalence of every reuse path to cold solves.

The warm-start layer (:mod:`repro.lp.warmstart`) is allowed to skip
solver dispatches only when the answer is *certified* unchanged, so every
suite here pits a warm path against its cold oracle and demands matching
results: byte-identical repeats, dual-certified bound shrinks, the Metis
alternation with and without warm starts, LP screening of the online
batch MILPs, and the decomposition's per-shard sessions — serial,
screened, and pooled.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.online as online_mod
from repro.core.instance import SPMInstance
from repro.core.maa import ImproveMemo, improve_paths, solve_maa
from repro.core.metis import Metis
from repro.core.online import OnlineScheduler, solve_batch
from repro.core.schedule import Schedule
from repro.decomp.solver import (
    DecompConfig,
    _ShardProblem,
    profit_gap_bound,
    solve_decomposed,
    solve_exact,
)
from repro.lp.fastbuild import compile_coo, with_row_upper
from repro.lp.result import SolveStatus
from repro.lp.simplex import WarmSimplex
from repro.lp.solvers import solve_compiled_raw
from repro.lp.warmstart import ResolveSession
from repro.net.topologies import random_wan
from repro.workload.request import Request, RequestSet

SLOTS = 6
_TOL = 1e-9

common_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_instance(draw, max_requests=10, value_max=5.0):
    """A small random WAN plus a random request set (test_properties idiom)."""
    topo_seed = draw(st.integers(min_value=0, max_value=10_000))
    n_dcs = draw(st.integers(min_value=3, max_value=6))
    max_extra = n_dcs * (n_dcs - 1) // 2 - n_dcs
    extra = draw(st.integers(min_value=0, max_value=min(2, max_extra)))
    topo = random_wan(n_dcs, extra, price_range=(1.0, 5.0), rng=topo_seed)
    dcs = topo.datacenters

    n_requests = draw(st.integers(min_value=1, max_value=max_requests))
    requests = []
    for i in range(n_requests):
        src_idx = draw(st.integers(min_value=0, max_value=n_dcs - 1))
        dst_off = draw(st.integers(min_value=1, max_value=n_dcs - 1))
        start = draw(st.integers(min_value=0, max_value=SLOTS - 1))
        end = draw(st.integers(min_value=start, max_value=SLOTS - 1))
        requests.append(
            Request(
                request_id=i,
                source=dcs[src_idx],
                dest=dcs[(src_idx + dst_off) % n_dcs],
                start=start,
                end=end,
                rate=draw(
                    st.floats(min_value=0.05, max_value=0.5, allow_nan=False)
                ),
                value=draw(
                    st.floats(min_value=0.0, max_value=value_max, allow_nan=False)
                ),
            )
        )
    return SPMInstance.build(topo, RequestSet(requests, SLOTS), k_paths=2)


@st.composite
def random_lp(draw):
    """A small bounded feasible LP with inequality rows (COO-built)."""
    num_vars = draw(st.integers(min_value=2, max_value=4))
    num_rows = draw(st.integers(min_value=1, max_value=3))
    objective = np.array(
        [
            draw(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
            for _ in range(num_vars)
        ]
    )
    rows, cols, data = [], [], []
    for r in range(num_rows):
        for c in range(num_vars):
            coeff = draw(st.integers(min_value=0, max_value=2))
            if coeff:
                rows.append(r)
                cols.append(c)
                data.append(float(coeff))
    row_upper = np.array(
        [
            draw(st.floats(min_value=1.0, max_value=8.0, allow_nan=False))
            for _ in range(num_rows)
        ]
    )
    return compile_coo(
        objective=objective,
        maximize=True,
        rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        data=np.array(data),
        num_rows=num_rows,
        row_lower=np.full(num_rows, -np.inf),
        row_upper=row_upper,
        var_lower=np.zeros(num_vars),
        var_upper=np.full(num_vars, 3.0),
        integrality=np.zeros(num_vars, dtype=np.int8),
    )


class TestSessionEquivalence:
    @given(random_lp())
    @common_settings
    def test_exact_repeat_returns_the_same_solution(self, compiled):
        session = ResolveSession()
        first = session.solve(compiled)
        again = session.solve(with_row_upper(compiled, compiled.row_upper.copy()))
        assert again is first  # byte-identical model -> cached object
        assert session.stats.repeat_hits == 1
        cold = solve_compiled_raw(compiled)
        assert cold.status is first.status
        if first.status is SolveStatus.OPTIMAL:
            assert first.objective == cold.objective
            assert np.array_equal(first.x, cold.x)

    @given(random_lp(), st.floats(min_value=0.0, max_value=4.0))
    @common_settings
    def test_shrink_chain_matches_cold_oracle(self, compiled, shrink):
        """Monotone row_upper shrinks: warm objective == cold objective."""
        session = ResolveSession()
        first = session.solve(compiled)
        if first.status is not SolveStatus.OPTIMAL:
            return
        tightened = np.maximum(compiled.row_upper - shrink, 0.5)
        step = with_row_upper(compiled, tightened)
        warm = session.solve(step)
        cold = solve_compiled_raw(step)
        assert warm.status is cold.status
        if cold.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            # A certified reuse must still satisfy the tightened bounds.
            if session.stats.certified_hits:
                activity = step.a_matrix @ warm.x
                assert np.all(activity <= tightened + _TOL)

    @given(random_lp(), st.floats(min_value=0.0, max_value=4.0))
    @common_settings
    def test_warm_simplex_cross_checks_the_certificate(self, compiled, shrink):
        """The dual-simplex verification backend agrees on every chain step."""
        session = ResolveSession()
        simplex = WarmSimplex()
        chain = [compiled]
        tightened = np.maximum(compiled.row_upper - shrink, 0.5)
        chain.append(with_row_upper(compiled, tightened))
        for step in chain:
            warm = session.solve(step)
            check = simplex.solve_raw(step)
            assert warm.status is check.status
            if warm.status is SolveStatus.OPTIMAL:
                assert warm.objective == pytest.approx(check.objective, abs=1e-6)

    def test_reanchor_on_new_structure_drops_cache(self):
        a = compile_coo(
            objective=np.array([1.0, 2.0]),
            maximize=True,
            rows=np.array([0, 0]),
            cols=np.array([0, 1]),
            data=np.array([1.0, 1.0]),
            num_rows=1,
            row_lower=np.array([-np.inf]),
            row_upper=np.array([4.0]),
            var_lower=np.zeros(2),
            var_upper=np.full(2, 3.0),
            integrality=np.zeros(2, dtype=np.int8),
        )
        session = ResolveSession()
        session.solve(a)
        session.solve(a)
        assert session.stats.repeat_hits == 1
        rebuilt = compile_coo(
            objective=np.array([1.0, 2.0]),
            maximize=True,
            rows=np.array([0, 0]),
            cols=np.array([0, 1]),
            data=np.array([1.0, 1.0]),
            num_rows=1,
            row_lower=np.array([-np.inf]),
            row_upper=np.array([4.0]),
            var_lower=np.zeros(2),
            var_upper=np.full(2, 3.0),
            integrality=np.zeros(2, dtype=np.int8),
        )
        session.solve(rebuilt)  # fresh arrays -> re-anchor, no stale reuse
        assert session.stats.repeat_hits == 1
        assert session.stats.cold_solves == 2


class TestMetisWarmEquivalence:
    @given(random_instance())
    @common_settings
    def test_metis_warm_vs_cold_bitwise(self, instance):
        warm = Metis(theta=3, warm_start=True).solve(instance, rng=7)
        cold = Metis(theta=3, warm_start=False).solve(instance, rng=7)
        assert warm.best.profit == cold.best.profit
        assert warm.num_rounds == cold.num_rounds
        if cold.best.schedule is None:
            assert warm.best.schedule is None
        else:
            assert (
                warm.best.schedule.assignment == cold.best.schedule.assignment
            )

    @given(random_instance())
    @common_settings
    def test_improve_paths_memo_vs_no_memo_bitwise(self, instance):
        assignment = solve_maa(instance, rng=0).schedule.assignment
        plain = improve_paths(instance, assignment)
        memoized = improve_paths(instance, assignment, memo=ImproveMemo())
        assert plain == memoized
        assert (
            Schedule(instance, plain).cost == Schedule(instance, memoized).cost
        )

    @given(random_instance())
    @common_settings
    def test_memo_survives_restrict_chains(self, instance):
        """One memo across restrict() views stays correct (shared edge space)."""
        ids = list(instance.requests.request_ids)
        memo = ImproveMemo()
        full = solve_maa(instance, rng=0).schedule.assignment
        expected_full = improve_paths(instance, full)
        assert improve_paths(instance, full, memo=memo) == expected_full
        sub = instance.restrict(ids[: max(1, len(ids) // 2)])
        sub_assignment = solve_maa(sub, rng=0).schedule.assignment
        expected_sub = improve_paths(sub, sub_assignment)
        assert improve_paths(sub, sub_assignment, memo=memo) == expected_sub


class TestScreeningEquivalence:
    @given(random_instance(value_max=1.5))
    @common_settings
    def test_online_screening_is_decision_identical(self, instance):
        plain = OnlineScheduler(lp_screen=False).run(instance)
        screened_sched = OnlineScheduler(lp_screen=True)
        screened = screened_sched.run(instance)
        assert screened.profit == plain.profit
        assert screened.schedule.assignment == plain.schedule.assignment
        assert screened_sched.screened_batches >= 0

    def test_screened_batch_is_certified_all_decline(self, monkeypatch):
        """A provably hopeless batch returns screened OPTIMAL all-decline."""
        # The screen only runs above the enumeration cap; lower it to 0.
        monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
        topo = random_wan(4, 1, price_range=(5.0, 9.0), rng=3)
        dcs = topo.datacenters
        requests = RequestSet(
            [
                Request(
                    request_id=i,
                    source=dcs[i % 4],
                    dest=dcs[(i + 1) % 4],
                    start=0,
                    end=3,
                    rate=0.4,
                    value=0.01,  # far below any path's integer-unit cost
                )
                for i in range(4)
            ],
            4,
        )
        instance = SPMInstance.build(topo, requests, k_paths=2)
        batch = list(instance.requests.request_ids)
        committed = np.zeros((instance.num_edges, instance.num_slots))
        charged = np.zeros(instance.num_edges)
        screened = solve_batch(
            instance, batch, committed, charged, lp_screen=True
        )
        cold = solve_batch(instance, batch, committed, charged)
        assert screened.screened
        assert screened.status is SolveStatus.OPTIMAL
        assert screened.objective == 0.0
        assert screened.choices == cold.choices == (None,) * len(batch)


class TestDecompWarmEquivalence:
    @given(random_instance(max_requests=8))
    @common_settings
    def test_decomp_warm_vs_cold_bitwise(self, instance):
        base = DecompConfig(num_shards=2, max_rounds=3)
        warm = solve_decomposed(instance, base)
        cold = solve_decomposed(
            instance, DecompConfig(num_shards=2, max_rounds=3, warm_start=False)
        )
        assert warm.profit == cold.profit
        assert warm.schedule.assignment == cold.schedule.assignment
        assert warm.rounds == cold.rounds

    @given(random_instance(max_requests=8))
    @common_settings
    def test_screened_decomp_respects_the_gap_bound(self, instance):
        config = DecompConfig(
            num_shards=2, max_rounds=3, screen=True, stall_rounds=2
        )
        outcome = solve_decomposed(instance, config)
        exact = solve_exact(instance)
        gap = exact.profit - outcome.profit
        assert gap <= profit_gap_bound(instance, 2) + _TOL
        # solve_decomposed always returns a capacity-feasible schedule.
        outcome.schedule.check_capacities(instance.topology.capacities())

    def test_shard_screen_keeps_a_certified_incumbent(self):
        """Hopeless effective prices: round 2's screen keeps all-decline."""
        topo = random_wan(4, 1, price_range=(1.0, 2.0), rng=5)
        dcs = topo.datacenters
        requests = RequestSet(
            [
                Request(
                    request_id=i,
                    source=dcs[i % 4],
                    dest=dcs[(i + 2) % 4],
                    start=0,
                    end=3,
                    rate=0.3,
                    value=0.5,
                )
                for i in range(6)
            ],
            4,
        )
        instance = SPMInstance.build(topo, requests, k_paths=2)
        problem = _ShardProblem(0, instance)
        huge = np.full(instance.num_edges, 50.0)
        first = problem.solve(huge, time_limit=None, screen=True)
        assert all(path is None for path in first.values())
        assert problem.screened_solves == 0  # no incumbent yet
        second = problem.solve(huge * 1.1, time_limit=None, screen=True)
        assert problem.screened_solves == 1
        assert second == first

    def test_shard_dual_perturbation_preserves_round_optimality(self):
        """Screened rounds attain the fresh solve's objective exactly."""
        topo = random_wan(5, 2, price_range=(1.0, 3.0), rng=11)
        dcs = topo.datacenters
        requests = RequestSet(
            [
                Request(
                    request_id=i,
                    source=dcs[i % 5],
                    dest=dcs[(i + 1) % 5],
                    start=0,
                    end=3,
                    rate=0.25,
                    value=4.0,
                )
                for i in range(8)
            ],
            4,
        )
        instance = SPMInstance.build(topo, requests, k_paths=2)
        shard = instance.restrict(list(instance.requests.request_ids)[:4])
        screened = _ShardProblem(0, shard)
        fresh = _ShardProblem(0, shard)
        rng = np.random.default_rng(2019)
        prices = shard.prices.copy()
        for _ in range(4):
            prices = prices * (1.0 + 0.05 * rng.random(prices.size))
            a = screened.solve(
                prices, time_limit=None, warm_start=True, screen=True
            )
            b = fresh.solve(prices, time_limit=None)
            cost_a = Schedule(shard, a).profit
            cost_b = Schedule(shard, b).profit
            assert cost_a == pytest.approx(cost_b, abs=1e-7)

    def test_pooled_rounds_match_serial_bitwise(self):
        topo = random_wan(5, 2, price_range=(1.0, 3.0), rng=13)
        topo.set_uniform_capacity(1)
        dcs = topo.datacenters
        requests = RequestSet(
            [
                Request(
                    request_id=i,
                    source=dcs[i % 5],
                    dest=dcs[(i + 2) % 5],
                    start=0,
                    end=3,
                    rate=0.6,
                    value=3.0,
                )
                for i in range(10)
            ],
            4,
        )
        instance = SPMInstance.build(topo, requests, k_paths=2)
        serial = solve_decomposed(
            instance, DecompConfig(num_shards=2, max_rounds=3)
        )
        pooled = solve_decomposed(
            instance, DecompConfig(num_shards=2, max_rounds=3, workers=2)
        )
        assert pooled.workers == 2
        assert pooled.profit == serial.profit
        assert pooled.schedule.assignment == serial.schedule.assignment
        assert pooled.rounds == serial.rounds
