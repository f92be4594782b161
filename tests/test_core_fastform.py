"""Tests for the array-native Metis hot loop (repro.core.fastform).

The load-bearing property mirrors test_lp_fastbuild: *bitwise* equivalence
between the runtime and the expression-layer oracles in tests/oracles.  The
FormulationCompiler must hand HiGHS the exact same RL-SPM / BL-SPM / SPM
matrices as the reference builders (with and without capacity ceilings),
the vectorized estimator must reproduce the reference walk to exact float
equality, and a full Metis run must produce a bit-identical MetisOutcome
with the reference MAA and TAA swapped in.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.core.estimator as estimator_module
from repro.core.estimator import VectorizedEstimator
from repro.core.fastform import FormulationCompiler
from repro.core.instance import SPMInstance
from repro.core.maa import solve_maa
from repro.core.metis import Metis, MinUtilizationLimiter, prune_unprofitable
from repro.core.schedule import Schedule
from repro.core.taa import _build_estimator_fast, solve_taa
from repro.exceptions import ModelError
from repro.lp.fastbuild import with_row_upper
from repro.lp.solvers import solve_compiled_raw
from repro.net.topology import Topology
from repro.workload.request import Request, RequestSet

from tests.oracles import metis as reference
from tests.oracles.estimator import (
    EstimatorTerm,
    PessimisticEstimator,
    build_estimator,
)
from tests.oracles.formulations import (
    build_bl_spm,
    build_rl_spm,
    build_spm,
    fractional_x,
)
from tests.oracles.reuse import no_reuse
from tests.test_properties import random_instance


fuzz_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

metis_settings = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def example_capacities(instance):
    """Deterministic integer capacities including zero-capacity edges."""
    return {key: idx % 4 for idx, key in enumerate(instance.edges)}


def assert_models_bitwise_equal(ref_model, fast_compiled):
    """The reference compile and the fast build down to the bit patterns."""
    ref = ref_model.compile()
    assert ref.c.tobytes() == fast_compiled.c.tobytes()
    assert np.array_equal(ref.row_lower, fast_compiled.row_lower)
    assert ref.row_upper.tobytes() == fast_compiled.row_upper.tobytes()
    assert np.array_equal(ref.var_lower, fast_compiled.var_lower)
    assert np.array_equal(ref.var_upper, fast_compiled.var_upper)
    assert np.array_equal(ref.integrality, fast_compiled.integrality)
    assert ref.sign == fast_compiled.sign
    assert ref.objective_constant == fast_compiled.objective_constant
    ref_a = ref.a_matrix.tocsr()
    ref_a.sum_duplicates()
    assert ref_a.shape == fast_compiled.a_matrix.shape
    assert np.array_equal(ref_a.indptr, fast_compiled.a_matrix.indptr)
    assert np.array_equal(ref_a.indices, fast_compiled.a_matrix.indices)
    assert ref_a.data.tobytes() == fast_compiled.a_matrix.data.tobytes()


class TestFormulationCompilerEquivalence:
    """Tentpole property (a): compiled formulations are bitwise identical."""

    @given(random_instance())
    @fuzz_settings
    def test_all_three_formulations_bitwise_identical(self, instance):
        self._assert_all_three_identical(instance)

    @given(random_instance(capacitated=True))
    @fuzz_settings
    def test_all_three_formulations_bitwise_identical_with_ceilings(
        self, instance
    ):
        # The ceilings reach the SPM columns' var_upper, which OPT(SPM)
        # and the flexible ILP depend on.
        self._assert_all_three_identical(instance)

    @staticmethod
    def _assert_all_three_identical(instance):
        compiler = instance.formulation_compiler()
        capacities = example_capacities(instance)
        for integral in (False, True):
            assert_models_bitwise_equal(
                build_rl_spm(instance, integral=integral).model,
                compiler.compile_rl_spm(instance, integral=integral).compiled,
            )
            assert_models_bitwise_equal(
                build_bl_spm(instance, capacities, integral=integral).model,
                compiler.compile_bl_spm(
                    instance, capacities, integral=integral
                ).compiled,
            )
            assert_models_bitwise_equal(
                build_spm(instance, integral=integral).model,
                compiler.compile_spm(instance, integral=integral).compiled,
            )

    @given(random_instance())
    @fuzz_settings
    def test_bl_capacity_rhs_update_reuses_matrix(self, instance):
        compiler = instance.formulation_compiler()
        caps_a = example_capacities(instance)
        first = compiler.compile_bl_spm(instance, caps_a)
        caps_b = {key: cap + 1 for key, cap in caps_a.items()}
        second = compiler.compile_bl_spm(instance, caps_b)
        # Same request set: the sparse matrix is shared, only RHS rebuilt.
        assert second.compiled.a_matrix is first.compiled.a_matrix
        assert_models_bitwise_equal(
            build_bl_spm(instance, caps_b).model, second.compiled
        )

    def test_bl_missing_capacities_rejected(self, diamond_instance):
        compiler = diamond_instance.formulation_compiler()
        partial = {diamond_instance.edges[0]: 1}
        with pytest.raises(ModelError, match="capacities missing"):
            compiler.compile_bl_spm(diamond_instance, partial)

    @given(random_instance())
    @fuzz_settings
    def test_weights_from_raw_matches_fractional_x(self, instance):
        compiler = instance.formulation_compiler()
        formulation = compiler.compile_rl_spm(instance)
        raw = solve_compiled_raw(formulation.compiled)
        problem = build_rl_spm(instance)
        solution = problem.model.solve()
        fast = FormulationCompiler.weights_from_raw(formulation, raw.x)
        ref = fractional_x(problem, solution)
        assert fast == ref


class TestZeroCopyRestrict:
    """Tentpole property (c): restrict chains equal building from scratch."""

    @given(random_instance())
    @fuzz_settings
    def test_restrict_chain_matches_scratch_build(self, instance):
        ids = instance.requests.request_ids
        sub = instance.restrict(ids[::2])
        sub2 = sub.restrict(sub.requests.request_ids[: max(1, len(ids) // 4)])
        for child in (sub, sub2):
            scratch = SPMInstance(
                instance.topology,
                instance.requests.subset(child.requests.request_ids),
                {rid: instance.paths[rid] for rid in child.requests.request_ids},
            )
            assert child.edges == scratch.edges
            assert child.edge_index == scratch.edge_index
            assert np.array_equal(child.prices, scratch.prices)
            assert child.requests.request_ids == scratch.requests.request_ids
            assert set(child.path_edges) == set(scratch.path_edges)
            for rid in child.path_edges:
                for got, want in zip(
                    child.path_edges[rid], scratch.path_edges[rid]
                ):
                    assert np.array_equal(got, want)
            # And the compiled formulations agree with the scratch build.
            capacities = example_capacities(instance)
            assert_models_bitwise_equal(
                build_bl_spm(scratch, capacities).model,
                child.formulation_compiler()
                .compile_bl_spm(child, capacities)
                .compiled,
            )

    @given(random_instance())
    @fuzz_settings
    def test_restrict_shares_parent_state(self, instance):
        compiler = instance.formulation_compiler()
        sub = instance.restrict(instance.requests.request_ids[:1])
        assert sub.topology is instance.topology
        assert sub.edges is instance.edges
        assert sub.edge_index is instance.edge_index
        assert sub.prices is instance.prices
        assert sub.formulation_compiler() is compiler
        rid = sub.requests.request_ids[0]
        for got, want in zip(sub.path_edges[rid], instance.path_edges[rid]):
            assert got is want


class TestVectorizedEstimatorEquivalence:
    """Tentpole property (b): exact float equality of the estimator kernel."""

    @staticmethod
    def _build_both(instance, capacities):
        formulation = instance.formulation_compiler().compile_bl_spm(
            instance, capacities
        )
        raw = solve_compiled_raw(formulation.compiled)
        weights = FormulationCompiler.weights_from_raw(formulation, raw.x)
        requests = instance.requests.requests
        rate_max = max(req.rate for req in requests)
        value_max = max(req.value for req in requests)
        if value_max <= 0:
            return None, None
        mu = 0.5
        kwargs = dict(
            mu=mu,
            t0=0.7,
            t_cap=math.log(1.0 / mu),
            rate_max=rate_max,
            value_max=value_max,
            revenue_floor_norm=0.3,
        )
        ref = build_estimator(instance, weights, capacities, **kwargs)
        fast = _build_estimator_fast(
            instance, weights, capacities, formulation=formulation, **kwargs
        )
        return ref, fast

    @given(random_instance())
    @fuzz_settings
    def test_build_walk_and_initial_match_exactly(self, instance):
        ref, fast = self._build_both(instance, example_capacities(instance))
        if ref is None:
            return  # all-zero bids: solve_taa never builds an estimator
        assert isinstance(ref, PessimisticEstimator)
        assert isinstance(fast, VectorizedEstimator)
        # Same terms, constants and per-request factors, bit for bit.
        assert ref.log_consts.tobytes() == fast.log_consts.tobytes()
        assert ref.log_phi.tobytes() == fast.log_phi.tobytes()
        # Same estimator value and the same greedy walk, exactly.
        assert ref.initial_log_value() == fast.initial_log_value()
        ref_choices, ref_final = ref.walk()
        fast_choices, fast_final = fast.walk()
        assert ref_choices == fast_choices
        assert ref_final == fast_final

    @given(random_instance())
    @fuzz_settings
    def test_solve_taa_bit_identical(self, instance):
        capacities = example_capacities(instance)
        fast = solve_taa(instance, capacities)
        ref = reference.solve_taa(instance, capacities)
        assert fast.schedule.assignment == ref.schedule.assignment
        assert fast.schedule.charged == ref.schedule.charged
        assert fast.relaxation_revenue == ref.relaxation_revenue
        assert fast.mu == ref.mu
        assert fast.revenue_floor == ref.revenue_floor
        assert (
            fast.estimator_initial == ref.estimator_initial
            or (
                math.isnan(fast.estimator_initial)
                and math.isnan(ref.estimator_initial)
            )
        )
        assert (
            fast.estimator_final == ref.estimator_final
            or (
                math.isnan(fast.estimator_final)
                and math.isnan(ref.estimator_final)
            )
        )
        assert fast.num_repairs == ref.num_repairs
        assert fast.num_augmented == ref.num_augmented


def _vectorized(log_consts, log_phi, choice_deltas):
    """A ``VectorizedEstimator`` over per-branch ``(term, delta)`` lists."""
    branches = [branch for request in choice_deltas for branch in request]
    counts = [len(request) for request in choice_deltas]
    return VectorizedEstimator(
        num_requests=len(choice_deltas),
        branch_offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        delta_ptr=np.concatenate(
            [[0], np.cumsum([len(branch) for branch in branches])]
        ).astype(np.int64),
        delta_terms=np.array(
            [term for branch in branches for term, _ in branch], dtype=np.int64
        ),
        delta_vals=np.array([val for branch in branches for _, val in branch]),
        log_consts=np.asarray(log_consts, dtype=float),
        log_phi=np.asarray(log_phi, dtype=float),
    )


def _oracle(log_consts, log_phi, choice_deltas):
    return PessimisticEstimator(
        num_requests=len(choice_deltas),
        num_choices=[len(request) for request in choice_deltas],
        terms=[EstimatorTerm(f"t{k}", c) for k, c in enumerate(log_consts)],
        log_phi=np.asarray(log_phi, dtype=float),
        choice_deltas=choice_deltas,
    )


class TestEstimatorTraps:
    """The two float traps of the loop-free build and the filtered walk."""

    def test_three_paths_on_one_edge_slot_keep_the_oracle_log_phi(self):
        # Every candidate path of S -> T crosses S -> A, so one capacity
        # term sums three path masses, p = mu * w = (0.3, 0.15, 0.35).  Left
        # to right that is 0.7999999999999999; np.add.reduceat sums it as
        # 0.3 + (0.15 + 0.35) = 0.8, and log_phi would differ in its last
        # bit.
        topo = Topology("fan")
        for node in ("S", "A", "B", "C", "T"):
            topo.add_datacenter(node)
        for u, v, price in (
            ("S", "A", 1.0), ("A", "T", 1.0), ("A", "B", 1.0),
            ("B", "T", 1.0), ("A", "C", 1.5), ("C", "T", 1.5),
        ):
            topo.add_link(u, v, price)
        topo.validate()
        requests = RequestSet(
            [Request(0, "S", "T", 0, 1, 1.0, 4.0), Request(1, "T", "S", 1, 1, 0.5, 2.0)],
            num_slots=2,
        )
        instance = SPMInstance.build(topo, requests, k_paths=3)
        shared = set.intersection(
            *(set(edges.tolist()) for edges in instance.path_edges[0])
        )
        assert instance.num_paths(0) == 3 and shared
        p = (0.3, 0.15, 0.35)
        assert np.add.reduceat(np.array(p), [0])[0] != (p[0] + p[1]) + p[2]
        capacities = {key: 2 for key in instance.edges}
        formulation = instance.formulation_compiler().compile_bl_spm(
            instance, capacities
        )
        mu = 0.5
        weights = {0: [0.6, 0.3, 0.7], 1: [1.0, 0.0, 0.0][: instance.num_paths(1)]}
        kwargs = dict(
            mu=mu, t0=0.7, t_cap=math.log(1.0 / mu), rate_max=1.0,
            value_max=4.0, revenue_floor_norm=0.3,
        )
        ref = build_estimator(instance, weights, capacities, **kwargs)
        fast = _build_estimator_fast(
            instance, weights, capacities, formulation=formulation, **kwargs
        )
        assert ref.log_phi.tobytes() == fast.log_phi.tobytes()
        assert ref.walk() == fast.walk()

    @pytest.mark.parametrize("nudge", [0.0, 1e-13, -1e-13])
    def test_tied_and_near_tied_branches_take_the_exact_step(
        self, monkeypatch, nudge
    ):
        # Level 0 offers two paths with the same delta set (up to ``nudge``
        # on one delta): the scores cannot tell them apart.  Levels 1 and 2
        # have one clear winner each.
        deltas = [
            [
                [(0, -0.5), (1, 0.25), (2, 0.25)],
                [(0, -0.5), (1, 0.25 + nudge), (2, 0.25)],
                [],
            ],
            [[(0, -0.4), (3, 0.5)], [(0, -0.4), (1, 3.0)], []],
            [[(0, -0.3), (2, 0.2)], []],
        ]
        consts = [0.2, -1.5, -1.0, -2.0]
        log_phi = [
            [-0.3, 0.1, 0.1, 0.0],
            [-0.2, 0.2, 0.0, 0.3],
            [-0.1, 0.0, 0.1, 0.0],
        ]
        calls = []
        exact = estimator_module._logsumexp_rows

        def counting(a):
            calls.append(a.shape[0])
            return exact(a)

        monkeypatch.setattr(estimator_module, "_logsumexp_rows", counting)
        ref = _oracle(consts, log_phi, deltas)
        fast = _vectorized(consts, log_phi, deltas)
        ref_choices, ref_final = ref.walk()
        assert fast.walk() == (ref_choices, ref_final)
        assert ref_choices[0] in (0, 1)
        # The tied level and the last level, nothing else.
        assert calls == [3, 2]

    def test_a_clear_walk_computes_only_the_last_level_exactly(self, monkeypatch):
        deltas = [[[(0, -1.0), (1, 0.1)], []] for _ in range(4)]
        consts = [0.5, -3.0]
        log_phi = [[-0.4, 0.05]] * 4
        calls = []
        exact = estimator_module._logsumexp_rows
        monkeypatch.setattr(
            estimator_module,
            "_logsumexp_rows",
            lambda a: calls.append(a.shape[0]) or exact(a),
        )
        ref = _oracle(consts, log_phi, deltas)
        assert _vectorized(consts, log_phi, deltas).walk() == ref.walk()
        assert calls == [2]


class TestFastPathOutcomes:
    """MAA and Metis outcomes bit-identical to the expression-layer oracles."""

    @given(random_instance())
    @fuzz_settings
    def test_solve_maa_bit_identical(self, instance):
        fast = solve_maa(instance, rng=0)
        ref = reference.solve_maa(instance, rng=0)
        assert fast.schedule.assignment == ref.schedule.assignment
        assert fast.schedule.charged == ref.schedule.charged
        assert fast.fractional_cost == ref.fractional_cost
        assert fast.fractional_weights == ref.fractional_weights
        assert fast.alpha == ref.alpha

    @given(random_instance())
    @metis_settings
    def test_metis_outcome_bit_identical(self, instance):
        fast = Metis(theta=3).solve(instance, rng=7)
        with pytest.MonkeyPatch.context() as monkeypatch, no_reuse():
            reference.swap_into_metis(monkeypatch)
            ref = Metis(theta=3).solve(instance, rng=7)
        assert_metis_outcomes_equal(fast, ref)

    def test_metis_outcome_matches_reference_fixture(
        self, small_sub_b4_instance, reference_metis
    ):
        fast = Metis(theta=3).solve(small_sub_b4_instance, rng=7)
        reference_metis()
        ref = Metis(theta=3).solve(small_sub_b4_instance, rng=7)
        assert_metis_outcomes_equal(fast, ref)


def assert_metis_outcomes_equal(fast, ref):
    """Two Metis outcomes agree on every recorded field, bit for bit."""
    assert fast.best.profit == ref.best.profit
    assert fast.best.source == ref.best.source
    assert fast.best.round_index == ref.best.round_index
    assert fast.best.capacities == ref.best.capacities
    if ref.best.schedule is None:
        assert fast.best.schedule is None
    else:
        assert fast.best.schedule.assignment == ref.best.schedule.assignment
        assert fast.best.schedule.charged == ref.best.schedule.charged
    assert fast.initial_profit == ref.initial_profit
    assert fast.rounds == ref.rounds


class TestWithRowUpper:
    def test_shares_matrix_and_replaces_bounds(self, monkeypatch):
        instance_caps = np.array([1.0, 2.0])
        from repro.lp.fastbuild import compile_coo

        compiled = compile_coo(
            objective=np.array([1.0, 1.0]),
            maximize=True,
            rows=np.array([0, 1]),
            cols=np.array([0, 1]),
            data=np.array([1.0, 1.0]),
            num_rows=2,
            row_lower=np.full(2, -np.inf),
            row_upper=np.zeros(2),
            var_lower=np.zeros(2),
            var_upper=np.ones(2),
            integrality=np.zeros(2, dtype=np.int8),
        )
        updated = with_row_upper(compiled, instance_caps)
        assert updated.a_matrix is compiled.a_matrix
        assert updated.c is compiled.c
        assert np.array_equal(updated.row_upper, instance_caps)
        assert np.array_equal(compiled.row_upper, np.zeros(2))

    def test_size_mismatch_rejected(self):
        from repro.lp.fastbuild import compile_coo

        compiled = compile_coo(
            objective=np.array([1.0]),
            maximize=False,
            rows=np.array([0]),
            cols=np.array([0]),
            data=np.array([1.0]),
            num_rows=1,
            row_lower=np.array([-np.inf]),
            row_upper=np.array([0.0]),
            var_lower=np.zeros(1),
            var_upper=np.ones(1),
            integrality=np.zeros(1, dtype=np.int8),
        )
        with pytest.raises(ModelError, match="row_upper"):
            with_row_upper(compiled, np.zeros(3))


class TestSatellites:
    """The smaller hot-loop fixes ride along with behavior preserved."""

    @given(random_instance())
    @fuzz_settings
    def test_prune_matches_resort_every_pass_reference(self, instance):
        schedule = solve_maa(instance, rng=1).schedule

        # The pre-optimization reference: rebuild and re-sort the accepted
        # list on every outer pass.
        assignment = dict(schedule.assignment)
        loads = schedule.loads.copy()
        prices = instance.prices

        def marginal_saving(req, path_idx):
            window = slice(req.start, req.end + 1)
            edge_indices = instance.path_edges[req.request_id][path_idx]
            before = np.ceil(loads[edge_indices].max(axis=1) - 1e-9).clip(min=0)
            loads[edge_indices, window] -= req.rate
            after = np.ceil(loads[edge_indices].max(axis=1) - 1e-9).clip(min=0)
            loads[edge_indices, window] += req.rate
            return float((prices[edge_indices] * (before - after)).sum())

        while True:
            accepted = [
                instance.request(rid)
                for rid, p in assignment.items()
                if p is not None
            ]
            removed_any = False
            for req in sorted(accepted, key=lambda r: r.value):
                path_idx = assignment[req.request_id]
                if marginal_saving(req, path_idx) > req.value:
                    window = slice(req.start, req.end + 1)
                    edges = instance.path_edges[req.request_id][path_idx]
                    loads[edges, window] -= req.rate
                    assignment[req.request_id] = None
                    removed_any = True
            if not removed_any:
                break

        assert prune_unprofitable(instance, schedule).assignment == assignment

    @given(random_instance())
    @fuzz_settings
    def test_limiter_matches_scalar_reference(self, instance):
        schedule = solve_maa(instance, rng=2).schedule
        capacities = {
            key: idx % 4 for idx, key in enumerate(instance.edges)
        }
        mean_loads = schedule.loads.mean(axis=1)
        best_key, best_util = None, math.inf
        for idx, key in enumerate(instance.edges):
            cap = capacities.get(key, 0)
            if cap <= 0:
                continue
            util = mean_loads[idx] / cap
            if util < best_util:
                best_util, best_key = util, key
        expected = None
        if best_key is not None:
            expected = dict(capacities)
            expected[best_key] = max(0, expected[best_key] - 1)
        assert MinUtilizationLimiter().limit(
            instance, schedule, capacities
        ) == expected

    def test_limiter_tie_break_lowest_edge_index(self, diamond_instance):
        # Zero loads make every positive-capacity edge utilization 0.0; the
        # first edge in instance order must win the tie.
        schedule = Schedule(
            diamond_instance,
            {rid: None for rid in diamond_instance.requests.request_ids},
        )
        capacities = {key: 2 for key in diamond_instance.edges}
        shrunk = MinUtilizationLimiter().limit(
            diamond_instance, schedule, capacities
        )
        first = diamond_instance.edges[0]
        assert shrunk[first] == 1
        assert all(
            shrunk[key] == 2 for key in diamond_instance.edges if key != first
        )

    def test_schedule_caches_revenue_and_cost(self, diamond_instance):
        rids = diamond_instance.requests.request_ids
        schedule = Schedule(diamond_instance, {rid: 0 for rid in rids})
        revenue, cost = schedule.revenue, schedule.cost
        assert schedule._revenue is not None
        assert schedule._cost is not None
        # Cached values are returned on later reads, and profit uses them.
        assert schedule.revenue == revenue
        assert schedule.cost == cost
        assert schedule.profit == revenue - cost
        expected_revenue = sum(
            diamond_instance.request(rid).value for rid in rids
        )
        assert revenue == expected_revenue
