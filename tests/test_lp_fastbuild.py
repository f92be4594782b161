"""Tests for repro.lp.fastbuild — array-native COO compilation.

The load-bearing property is *bitwise* equivalence: the serving fast path
(:class:`~repro.core.online.IncrementalBatchCompiler`) must hand HiGHS the
exact same matrix as compiling the expression-layer reference build
(``tests.oracles.online.build_incremental_spm``), so decisions are
identical by construction, not merely equal-objective.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.core.online as online_mod
from repro.core.instance import SPMInstance
from repro.core.online import IncrementalBatchCompiler, commit_decision, solve_batch
from repro.exceptions import ModelError, SolverError
from repro.lp.fastbuild import compile_coo
from repro.lp.solvers import solve_compiled_raw
from repro.net.topologies import random_wan
from repro.workload.request import Request, RequestSet

from tests.oracles import online as reference
from tests.oracles.lp.solvers import solve_compiled
from tests.test_properties import random_instance


def knapsack_compiled(**overrides):
    """The knapsack of test_lp_solvers, built straight from triplets."""
    kwargs = dict(
        objective=np.array([10.0, 7.0, 4.0, 3.0]),
        maximize=True,
        rows=np.zeros(4, dtype=np.int64),
        cols=np.arange(4, dtype=np.int64),
        data=np.array([5.0, 4.0, 3.0, 2.0]),
        num_rows=1,
        row_lower=np.array([-np.inf]),
        row_upper=np.array([7.0]),
        var_lower=np.zeros(4),
        var_upper=np.ones(4),
        integrality=np.ones(4, dtype=np.int8),
    )
    kwargs.update(overrides)
    return compile_coo(**kwargs)


class TestCompileCoo:
    def test_solves_knapsack(self):
        raw = solve_compiled_raw(knapsack_compiled())
        assert raw.is_optimal
        assert raw.objective == pytest.approx(13.0)
        assert np.round(raw.x).tolist() == [1, 0, 0, 1]

    def test_array_native_rejected_by_symbolic_entry(self):
        with pytest.raises(SolverError, match="array-native"):
            solve_compiled(knapsack_compiled())

    def test_duplicates_sum_like_expression_accumulation(self):
        # Two (0, 0) triplets must collapse to a single 3.0 coefficient,
        # exactly like repeated += into a LinExpr term.
        compiled = compile_coo(
            objective=np.array([1.0]),
            maximize=False,
            rows=np.array([0, 0]),
            cols=np.array([0, 0]),
            data=np.array([1.0, 2.0]),
            num_rows=1,
            row_lower=np.array([3.0]),
            row_upper=np.array([np.inf]),
            var_lower=np.zeros(1),
            var_upper=np.array([np.inf]),
            integrality=np.zeros(1, dtype=np.int8),
        )
        assert compiled.a_matrix.toarray().tolist() == [[3.0]]
        raw = solve_compiled_raw(compiled)  # min x s.t. 3x >= 3
        assert raw.objective == pytest.approx(1.0)

    def test_csr_matches_scipy_constructor_bitwise(self):
        # Duplicate-free triplets (like the serving build): the assembled
        # CSR must be bitwise identical to scipy's checked constructor.
        # With duplicates only the float summation order may differ.
        rng = np.random.default_rng(0)
        for _ in range(25):
            num_rows = int(rng.integers(1, 12))
            num_vars = int(rng.integers(1, 30))
            nnz = int(rng.integers(0, num_rows * num_vars))
            flat = rng.choice(num_rows * num_vars, size=nnz, replace=False)
            rows, cols = flat // num_vars, flat % num_vars
            data = rng.normal(size=nnz)
            compiled = compile_coo(
                objective=np.zeros(num_vars),
                maximize=False,
                rows=rows,
                cols=cols,
                data=data,
                num_rows=num_rows,
                row_lower=np.full(num_rows, -np.inf),
                row_upper=np.zeros(num_rows),
                var_lower=np.zeros(num_vars),
                var_upper=np.full(num_vars, np.inf),
                integrality=np.zeros(num_vars, dtype=np.int8),
            )
            ref = sparse.csr_matrix(
                (data, (rows, cols)), shape=(num_rows, num_vars)
            )
            ref.sum_duplicates()
            got = compiled.a_matrix
            assert got.shape == ref.shape
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.data, ref.data)

    def test_maximize_flips_sign(self):
        compiled = knapsack_compiled()
        assert compiled.sign == -1.0
        assert np.array_equal(compiled.c, -np.array([10.0, 7.0, 4.0, 3.0]))

    def test_no_variables_rejected(self):
        with pytest.raises(ModelError, match="no variables"):
            knapsack_compiled(objective=np.array([]))

    def test_mismatched_triplets_rejected(self):
        with pytest.raises(ModelError, match="triplet arrays disagree"):
            knapsack_compiled(rows=np.zeros(3, dtype=np.int64))

    def test_bad_row_bounds_rejected(self):
        with pytest.raises(ModelError, match="row bounds"):
            knapsack_compiled(row_lower=np.array([-np.inf, -np.inf]))

    def test_bad_column_arrays_rejected(self):
        with pytest.raises(ModelError, match="column arrays"):
            knapsack_compiled(var_lower=np.zeros(3))

    def test_row_index_out_of_range_rejected(self):
        with pytest.raises(ModelError, match="row index"):
            knapsack_compiled(rows=np.array([0, 0, 0, 1]))

    def test_column_index_out_of_range_rejected(self):
        with pytest.raises(ModelError, match="column index"):
            knapsack_compiled(cols=np.array([0, 1, 2, 4]))


fuzz_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestBatchCompilerEquivalence:
    """Fast-path batch MILPs replayed against the expression reference.

    Uncapacitated, capacitated and dual-repriced instances: the batch
    model leaves ``extra`` unbounded whatever the topology's ceilings, and
    reads the (possibly repriced) instance's prices, exactly like the
    reference build.
    """

    @given(random_instance())
    @fuzz_settings
    def test_bitwise_identical_models_and_decisions(self, instance):
        _replay_batches(instance)

    @given(random_instance(capacitated=True))
    @fuzz_settings
    def test_capacitated_models_leave_extra_unbounded(self, instance):
        _replay_batches(instance)

    @given(random_instance(capacitated=True), st.integers(0, 2**16))
    @fuzz_settings
    def test_dual_repriced_models(self, instance, seed):
        duals = np.random.default_rng(seed).choice(
            [0.0, 0.25, 1.0, 3.5], size=instance.num_edges
        )
        _replay_batches(instance.reprice(instance.prices + duals))

    def test_ceilings_stay_out_of_the_batch_model(self):
        topology = random_wan(4, 1, price_range=(1.0, 5.0), rng=3)
        topology.set_uniform_capacity(1)
        requests = RequestSet(
            [Request(rid, "DC1", "DC3", 0, 1, 0.4, 2.0) for rid in range(3)],
            2,
        )
        instance = SPMInstance.build(topology, requests, k_paths=2)
        assert np.isfinite(instance.formulation_compiler().spm_ceilings()).all()
        compiled, x_offsets = IncrementalBatchCompiler(instance).compile_batch(
            [0, 1, 2],
            np.zeros((instance.num_edges, instance.num_slots)),
            np.zeros(instance.num_edges),
        )
        assert np.isinf(compiled.var_upper[x_offsets[-1]:]).all()


def _replay_batches(instance) -> None:
    """Every arrival batch, built both ways on an evolving residual state."""
    committed = np.zeros((instance.num_edges, instance.num_slots))
    charged = np.zeros(instance.num_edges)
    compiler = IncrementalBatchCompiler(instance)

    by_start: dict[int, list[int]] = {}
    for req in instance.requests:
        by_start.setdefault(req.start, []).append(req.request_id)

    for slot in sorted(by_start):
        batch = by_start[slot]
        ref = reference.build_incremental_spm(
            instance, batch, committed, charged
        )[0].compile()
        fast, x_offsets = compiler.compile_batch(batch, committed, charged)

        assert np.array_equal(ref.c, fast.c)
        assert np.array_equal(ref.row_lower, fast.row_lower)
        assert np.array_equal(ref.row_upper, fast.row_upper)
        assert np.array_equal(ref.var_lower, fast.var_lower)
        assert np.array_equal(ref.var_upper, fast.var_upper)
        assert np.array_equal(ref.integrality, fast.integrality)
        assert ref.sign == fast.sign
        ref_a = ref.a_matrix.tocsr()
        ref_a.sum_duplicates()
        assert np.array_equal(ref_a.indptr, fast.a_matrix.indptr)
        assert np.array_equal(ref_a.indices, fast.a_matrix.indices)
        assert np.array_equal(ref_a.data, fast.a_matrix.data)
        assert int(x_offsets[-1]) == sum(
            instance.num_paths(rid) for rid in batch
        )

        # Both sides solve the MILP: no batch is enumerated.
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(online_mod, "ENUMERATION_CAP", 0)
            d_fast = solve_batch(instance, batch, committed, charged)
            d_expr = reference.solve_batch(instance, batch, committed, charged)
        assert d_fast.choices == d_expr.choices
        assert d_fast.objective == pytest.approx(d_expr.objective)

        # Evolve the residual state so later batches exercise non-zero
        # committed loads and charged units.
        commit_decision(
            instance, batch, list(d_fast.choices), committed, charged
        )
