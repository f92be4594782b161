"""The batched local-search kernels against their frozen scalar oracles.

``improve_paths``, ``prune_unprofitable``, ``round_paths`` and
``SPMInstance.loads`` are batched numpy kernels that must replay the
scalar loops in ``tests/oracles/local_search.py`` exactly: the same
moves, removals and rng draws, and byte-equal loads.  Cases cover
``restrict()`` chains, ``reprice()`` views, single-path requests, declined
(``None``) entries, zero-weight requests and path unions of 8+ edges
(long rings), where numpy's summation order changes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.maa as maa_module
import repro.core.metis as metis_module
from repro.core.instance import SPMInstance
from repro.core.maa import ImproveMemo, improve_paths, round_paths, solve_maa
from repro.core.metis import Metis, prune_unprofitable
from repro.core.schedule import Schedule
from repro.core.sweep import RunSums
from repro.experiments.common import ExperimentConfig, make_instance
from repro.net.topologies import random_wan
from repro.net.topology import Topology
from repro.workload.request import Request, RequestSet

from tests.oracles import local_search as oracle

SLOTS = 6

kernel_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def instances(draw):
    """A random WAN instance, possibly a restrict() chain or reprice() view.

    Rings of up to 11 DCs with few chords give candidate paths of 5+ hops,
    so (current, candidate) unions reach 8+ edges; some requests keep a
    single candidate path.
    """
    n_dcs = draw(st.integers(min_value=3, max_value=11))
    max_extra = n_dcs * (n_dcs - 1) // 2 - n_dcs
    extra = draw(st.integers(min_value=0, max_value=min(2, max_extra)))
    topo = random_wan(
        n_dcs,
        extra,
        price_range=(1.0, 5.0),
        rng=draw(st.integers(min_value=0, max_value=10_000)),
    )
    dcs = topo.datacenters
    requests = []
    for i in range(draw(st.integers(min_value=1, max_value=14))):
        src = draw(st.integers(min_value=0, max_value=n_dcs - 1))
        dst = (src + draw(st.integers(min_value=1, max_value=n_dcs - 1))) % n_dcs
        start = draw(st.integers(min_value=0, max_value=SLOTS - 1))
        requests.append(
            Request(
                request_id=i,
                source=dcs[src],
                dest=dcs[dst],
                start=start,
                end=draw(st.integers(min_value=start, max_value=SLOTS - 1)),
                rate=draw(st.floats(min_value=0.05, max_value=1.5)),
                value=draw(st.floats(min_value=0.0, max_value=6.0)),
            )
        )
    request_set = RequestSet(requests, SLOTS)
    k_paths = draw(st.integers(min_value=1, max_value=4))
    base = SPMInstance.build(topo, request_set, k_paths=k_paths)
    single = draw(st.sets(st.sampled_from(request_set.request_ids)))
    paths = {
        rid: path_list[:1] if rid in single else path_list
        for rid, path_list in base.paths.items()
    }
    instance = SPMInstance(topo, request_set, paths)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        ids = instance.requests.request_ids
        keep = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
        instance = instance.restrict(keep)
    if draw(st.booleans()):
        scale = draw(
            st.lists(
                st.floats(min_value=0.2, max_value=3.0),
                min_size=instance.num_edges,
                max_size=instance.num_edges,
            )
        )
        instance = instance.reprice(instance.prices * np.array(scale))
    return instance


@st.composite
def assignments(draw, instance, allow_none=True):
    """A path index (or, when allowed, ``None``) for every request."""
    out = {}
    for rid in instance.requests.request_ids:
        choices = st.integers(min_value=0, max_value=instance.num_paths(rid) - 1)
        if allow_none:
            choices = st.none() | choices
        out[rid] = draw(choices)
    return out


@st.composite
def cases(draw, allow_none=True):
    instance = draw(instances())
    return instance, draw(assignments(instance, allow_none))


class TestRunSums:
    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=30))
    @kernel_settings
    def test_bits_of_a_sum_per_run(self, lengths):
        gen = np.random.default_rng(len(lengths))
        values = gen.random((2, sum(lengths))) * gen.choice(
            [0.0, 1.0, 3.3, 1e5, -2.5], size=(2, sum(lengths))
        )
        starts = np.cumsum(lengths) - lengths
        expected = np.array(
            [[row[s : s + n].sum() for s, n in zip(starts, lengths)] for row in values]
        )
        sums = RunSums(np.array(lengths))
        assert sums(values).tobytes() == expected.tobytes()
        assert sums(values[1]).tobytes() == expected[1].tobytes()

    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @kernel_settings
    def test_bits_with_signed_zeros_and_extremes(self, lengths, seed):
        """Zeros of either sign, huge and tiny magnitudes, every run length."""
        gen = np.random.default_rng(seed)
        pool = np.array(
            [0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e16, -1e16, 1e300, 5e-324]
        )
        values = gen.choice(pool, size=(2, sum(lengths)))
        starts = np.cumsum(lengths) - lengths
        expected = np.array(
            [[row[s : s + n].sum() for s, n in zip(starts, lengths)] for row in values]
        )
        assert RunSums(np.array(lengths))(values).tobytes() == expected.tobytes()


class TestLoads:
    @given(cases())
    @kernel_settings
    def test_byte_equal_to_scalar_loop(self, case):
        instance, assignment = case
        loads = instance.loads(assignment)
        assert loads.tobytes() == oracle.oracle_loads(instance, assignment).tobytes()

    def test_nothing_assigned(self, diamond_instance):
        loads = diamond_instance.loads({0: None, 1: None, 2: None})
        assert loads.shape == (diamond_instance.num_edges, 4)
        assert not loads.any()


class TestImprovePaths:
    @given(cases())
    @kernel_settings
    def test_same_moves_as_scalar_descent(self, case):
        instance, assignment = case
        expected = oracle.improve_paths(instance, assignment)
        assert improve_paths(instance, assignment) == expected
        memo_expected = oracle.improve_paths(
            instance, assignment, memo=oracle.ImproveMemo()
        )
        assert improve_paths(instance, assignment, memo=ImproveMemo()) == memo_expected

    @given(cases(allow_none=False))
    @kernel_settings
    def test_one_memo_across_passes_and_restrict_chain(self, case):
        instance, assignment = case
        memo, old_memo = ImproveMemo(), oracle.ImproveMemo()
        for max_passes in (1, 5):
            got = improve_paths(instance, assignment, max_passes=max_passes, memo=memo)
            assert got == oracle.improve_paths(
                instance, assignment, max_passes=max_passes, memo=old_memo
            )
        ids = instance.requests.request_ids
        child = instance.restrict(ids[::2])
        sub = {rid: got[rid] for rid in child.requests.request_ids}
        assert improve_paths(child, sub, memo=memo) == oracle.improve_paths(
            child, sub, memo=old_memo
        )

    @given(cases())
    @kernel_settings
    def test_handed_loads_give_the_same_moves(self, case):
        """Loads handed in from the assignment's schedule change no move."""
        instance, assignment = case
        schedule = Schedule(instance, assignment)
        before = schedule.loads.tobytes()
        got = improve_paths(instance, schedule.assignment, loads=schedule.loads)
        assert got == improve_paths(instance, assignment)
        assert schedule.loads.tobytes() == before  # read, not modified

    def test_metis_outcome_unchanged_by_handed_loads(self, monkeypatch):
        """Metis with loads handed on == Metis recomputing them, bit for bit."""
        instance = make_instance(ExperimentConfig(seed=3), 60)
        handed = Metis(theta=4).solve(instance, rng=11)

        def recomputing(instance, assignment, *, loads=None, **kwargs):
            return improve_paths(instance, assignment, **kwargs)

        monkeypatch.setattr(metis_module, "improve_paths", recomputing)
        recomputed = Metis(theta=4).solve(instance, rng=11)
        assert handed.best.profit.hex() == recomputed.best.profit.hex()
        assert handed.best.source == recomputed.best.source
        assert handed.best.schedule.assignment == recomputed.best.schedule.assignment
        assert handed.best.schedule.charged == recomputed.best.schedule.charged
        assert handed.rounds == recomputed.rounds


class TestImproveMemoGuard:
    def test_rejects_an_unrelated_instance(self, diamond, diamond_requests):
        first = SPMInstance.build(diamond, diamond_requests, k_paths=2)
        rebuilt = SPMInstance.build(diamond, diamond_requests, k_paths=2)
        memo = ImproveMemo()
        improve_paths(first, {0: 1, 1: 1, 2: 1}, memo=memo)
        with pytest.raises(ValueError, match="ImproveMemo"):
            improve_paths(rebuilt, {0: 1, 1: 1, 2: 1}, memo=memo)

    def test_accepts_restrict_and_reprice_views(self, diamond_instance):
        memo = ImproveMemo()
        improve_paths(diamond_instance, {0: 1, 1: 1, 2: 1}, memo=memo)
        child = diamond_instance.restrict([0, 2])
        expected = oracle.improve_paths(child, {0: 1, 2: 1})
        assert improve_paths(child, {0: 1, 2: 1}, memo=memo) == expected
        repriced = diamond_instance.reprice(diamond_instance.prices * 2.0)
        expected = oracle.improve_paths(repriced, {0: 1, 1: 1, 2: 1})
        assert improve_paths(repriced, {0: 1, 1: 1, 2: 1}, memo=memo) == expected


class TestPruneUnprofitable:
    @given(cases())
    @kernel_settings
    def test_same_removals_as_scalar_loop(self, case):
        instance, assignment = case
        schedule = Schedule(instance, assignment)
        before = schedule.loads.tobytes()
        pruned = prune_unprofitable(instance, schedule)
        expected = oracle.prune_unprofitable(instance, schedule)
        assert pruned.assignment == expected.assignment
        assert schedule.loads.tobytes() == before
        assert pruned.profit >= schedule.profit - 1e-9

    def test_savings_do_not_drift(self):
        """Savings come from derived loads, not from evaluate-and-restore.

        Three requests share one edge and slot; their rates add up to
        3.0000000010000005, charged 4 units.  Removing request 0 and adding
        it back in place, as the scalar loop did, leaves 3.000000001,
        charged 3: request 1's saving then reads 1 unit instead of 2 and
        its removal (worth 2 - 1.5 of profit) is missed.
        """
        topo = Topology("pair")
        topo.add_datacenter("A")
        topo.add_datacenter("B")
        topo.add_link("A", "B", 1.0)
        rates = (0.2524572633341544, 1.274754335418595, 1.472788402247251)
        values = (1.0, 1.5, 10.0)
        requests = RequestSet(
            [
                Request(i, "A", "B", 0, 0, rate, value)
                for i, (rate, value) in enumerate(zip(rates, values))
            ],
            num_slots=1,
        )
        instance = SPMInstance.build(topo, requests, k_paths=1)
        schedule = Schedule(instance, {0: 0, 1: 0, 2: 0})
        assert schedule.cost == 4.0
        drifted = (schedule.loads[0, 0] - rates[0]) + rates[0]
        assert drifted != schedule.loads[0, 0]

        pruned = prune_unprofitable(instance, schedule)
        assert pruned.assignment == {0: 0, 1: None, 2: 0}
        assert pruned.profit == schedule.profit + 0.5
        missed = oracle.prune_unprofitable(instance, schedule)
        assert missed.assignment == schedule.assignment


class TestPruneReturnsItsInput:
    def test_no_removal_returns_the_input_schedule(self, diamond_instance):
        schedule = Schedule(diamond_instance, {0: 0, 1: None, 2: None})
        assert prune_unprofitable(diamond_instance, schedule) is schedule
        nothing = Schedule(diamond_instance, {0: None, 1: None, 2: None})
        assert prune_unprofitable(diamond_instance, nothing) is nothing

    def test_a_removal_returns_a_new_schedule(self, diamond_instance):
        schedule = Schedule(diamond_instance, {0: 0, 1: 0, 2: 1})
        pruned = prune_unprofitable(diamond_instance, schedule)
        assert pruned is not schedule
        assert schedule.assignment == {0: 0, 1: 0, 2: 1}

    def test_metis_outcome_unchanged(self, monkeypatch):
        """Metis with the input handed back == Metis rebuilding it."""
        instance = make_instance(ExperimentConfig(seed=3), 60)
        handed = Metis(theta=4).solve(instance, rng=11)

        def rebuilding(instance, schedule):
            pruned = prune_unprofitable(instance, schedule)
            return Schedule(instance, pruned.assignment)

        monkeypatch.setattr(metis_module, "prune_unprofitable", rebuilding)
        rebuilt = Metis(theta=4).solve(
            make_instance(ExperimentConfig(seed=3), 60), rng=11
        )
        assert handed.best.profit.hex() == rebuilt.best.profit.hex()
        assert handed.best.source == rebuilt.best.source
        assert handed.best.round_index == rebuilt.best.round_index
        assert handed.best.schedule.assignment == rebuilt.best.schedule.assignment
        assert handed.best.schedule.charged == rebuilt.best.schedule.charged
        assert handed.best.capacities == rebuilt.best.capacities
        assert handed.initial_profit == rebuilt.initial_profit
        assert handed.rounds == rebuilt.rounds


class TestRoundPaths:
    @given(
        cases(allow_none=False), st.integers(min_value=0, max_value=2**32), st.data()
    )
    @kernel_settings
    def test_same_draws_as_choice_per_request(self, case, seed, data):
        instance, _ = case
        weights = {}
        for rid in instance.requests.request_ids:
            row = data.draw(
                st.lists(
                    st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, 3.0]),
                    min_size=instance.num_paths(rid),
                    max_size=instance.num_paths(rid),
                )
            )
            weights[rid] = row
        gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        assert round_paths(instance, weights, gen) == oracle.round_paths(
            instance, weights, old_gen
        )
        assert gen.bit_generator.state == old_gen.bit_generator.state

    @pytest.mark.parametrize(
        ("row", "message"),
        [([0.5, float("nan")], "NaN"), ([2.0, -1.0], "non-negative")],
    )
    def test_choice_checks_kept(self, diamond_instance, row, message):
        weights = {0: [1.0, 0.0], 1: row, 2: [1.0, 0.0]}
        with pytest.raises(ValueError, match=message):
            round_paths(diamond_instance, weights, rng=0)
        with pytest.raises(ValueError, match=message):
            oracle.round_paths(diamond_instance, weights, rng=0)


@pytest.fixture
def oracle_metis(monkeypatch):
    """Run Metis with every batched kernel swapped for its scalar oracle."""

    def oracle_improve(instance, assignment, *, loads=None, **kwargs):
        # The scalar descent derives the loads itself; Metis hands the
        # batched kernel the loads its schedule already holds.
        return oracle.improve_paths(instance, assignment, **kwargs)

    def patch():
        monkeypatch.setattr(metis_module, "improve_paths", oracle_improve)
        monkeypatch.setattr(metis_module, "ImproveMemo", oracle.ImproveMemo)
        monkeypatch.setattr(
            metis_module, "prune_unprofitable", oracle.prune_unprofitable
        )
        monkeypatch.setattr(maa_module, "round_paths", oracle.round_paths)
        monkeypatch.setattr(SPMInstance, "loads", oracle.oracle_loads)

    return patch


@pytest.mark.parametrize(
    ("topology", "requests", "seed"),
    [("sub-b4", 30, 1), ("b4", 40, 2), ("b4", 60, 3)],
)
def test_metis_outcome_matches_oracles(oracle_metis, topology, requests, seed):
    config = ExperimentConfig(topology=topology, request_counts=(requests,), seed=seed)
    batched = Metis(theta=3).solve(make_instance(config, requests), rng=seed)
    oracle_metis()
    scalar = Metis(theta=3).solve(make_instance(config, requests), rng=seed)
    assert batched.best.profit == scalar.best.profit
    assert batched.best.source == scalar.best.source
    assert batched.best.round_index == scalar.best.round_index
    assert batched.initial_profit == scalar.initial_profit
    assert batched.rounds == scalar.rounds
    if scalar.best.schedule is None:
        assert batched.best.schedule is None
    else:
        assert batched.best.schedule.assignment == scalar.best.schedule.assignment


def test_maa_rounding_unchanged(small_sub_b4_instance):
    gen, old_gen = np.random.default_rng(11), np.random.default_rng(11)
    result = solve_maa(small_sub_b4_instance, rng=gen)
    expected = oracle.round_paths(
        small_sub_b4_instance, result.fractional_weights, old_gen
    )
    assert result.schedule.assignment == expected
    assert gen.bit_generator.state == old_gen.bit_generator.state
