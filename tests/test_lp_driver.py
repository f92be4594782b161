"""The HiGHS driver against the scipy wrappers it replaced, bit for bit.

:mod:`repro.lp.solvers` hands HiGHS the model and options that
``scipy.optimize.linprog``/``milp`` passed; ``tests/oracles/lp/
scipy_backend.py`` keeps those wrapper paths.  Every suite here solves one
model both ways and demands the same bytes: status, objective, ``x`` and
(for LPs) ``upper_duals``.  The last suite guards the private binding
surface the driver calls, so a scipy upgrade that moves it fails here.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib
import pickle
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning

import repro.lp.solvers as solvers
from repro.core.instance import SPMInstance
from repro.core.metis import Metis
from repro.lp.fastbuild import compile_coo, with_row_upper
from repro.lp.result import SolveStatus
from repro.net.topologies import b4
from repro.service.broker import Broker, BrokerConfig
from repro.service.ingest import GeneratorSource
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.value_models import FlatRateValueModel

from tests.oracles.lp import scipy_backend as oracle

ROOT = pathlib.Path(__file__).resolve().parents[1]

differential = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_same_solution(got, want) -> None:
    """Status, objective bits, ``x`` bytes and ``upper_duals`` bytes agree."""
    assert got.status is want.status
    assert _bits(got.objective) == _bits(want.objective)
    assert (got.x is None) == (want.x is None)
    if want.x is not None:
        assert got.x.dtype == want.x.dtype
        assert got.x.tobytes() == want.x.tobytes()
    assert (got.upper_duals is None) == (want.upper_duals is None)
    if want.upper_duals is not None:
        assert got.upper_duals.tobytes() == want.upper_duals.tobytes()


def assert_matches_oracle(compiled) -> None:
    """One model, solved by the driver and by the wrappers, bit for bit."""
    assert_same_solution(
        solvers.solve_compiled_raw(compiled), oracle.solve_compiled_raw(compiled)
    )
    if not np.any(compiled.integrality):
        assert_same_solution(
            solvers._solve_lp(compiled, duals=True),
            oracle.solve_lp_with_duals(compiled),
        )


# Values that keep models small and exact, with both zeros: BL-SPM writes
# -0.0 right-hand sides for zero-capacity edges.
_VALUES = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 4.0])
_COEFFS = st.sampled_from([-1.5, -1.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
_ROW_KINDS = ("eq", "upper", "lower", "ranged", "free")


@st.composite
def ranged_models(draw, integral: bool):
    """A random ranged LP or MILP, built the way the runtime builds models.

    Rows are equalities, finite-upper-only, finite-lower-only, ranged or
    free; columns may be unbounded on either side; zero rows is allowed.
    Feasible, infeasible and unbounded models all come out.
    """
    num_vars = draw(st.integers(min_value=1, max_value=5))
    num_rows = draw(st.integers(min_value=0, max_value=5))
    objective = np.array(draw(st.lists(_COEFFS, min_size=num_vars, max_size=num_vars)))
    rows, cols, data = [], [], []
    for row in range(num_rows):
        for col in range(num_vars):
            # Mostly nonzero; an explicit 0.0 entry stays in the matrix.
            if draw(st.integers(min_value=0, max_value=3)):
                rows.append(row)
                cols.append(col)
                data.append(draw(_COEFFS))
    row_lower = np.empty(num_rows)
    row_upper = np.empty(num_rows)
    for row in range(num_rows):
        kind = draw(st.sampled_from(_ROW_KINDS))
        value = draw(_VALUES)
        lo, hi = {
            "eq": (value, value),
            "upper": (-np.inf, value),
            "lower": (value, np.inf),
            "ranged": (value, value + draw(st.sampled_from([0.5, 1.0, 3.0]))),
            "free": (-np.inf, np.inf),
        }[kind]
        row_lower[row], row_upper[row] = lo, hi
    var_lower = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.0, -1.0, -np.inf]), min_size=num_vars, max_size=num_vars,
    )))
    var_upper = np.array(draw(st.lists(
        st.sampled_from([1.0, 3.0, 5.0, np.inf]), min_size=num_vars, max_size=num_vars,
    )))
    integrality = np.zeros(num_vars, dtype=np.int8)
    if integral:
        flags = draw(st.lists(st.booleans(), min_size=num_vars, max_size=num_vars))
        integrality[np.flatnonzero(flags)] = 1
        integrality[draw(st.integers(min_value=0, max_value=num_vars - 1))] = 1
    return compile_coo(
        objective=objective,
        maximize=draw(st.booleans()),
        rows=np.array(rows, dtype=np.intp),
        cols=np.array(cols, dtype=np.intp),
        data=np.array(data, dtype=float),
        num_rows=num_rows,
        row_lower=row_lower,
        row_upper=row_upper,
        var_lower=var_lower,
        var_upper=var_upper,
        integrality=integrality,
        objective_constant=draw(st.sampled_from([0.0, 1.5])),
    )


class TestAgainstScipyWrappers:
    @differential
    @given(ranged_models(integral=False))
    def test_random_lps(self, compiled):
        assert_matches_oracle(compiled)

    @differential
    @given(ranged_models(integral=True))
    def test_random_milps(self, compiled):
        assert_matches_oracle(compiled)

    @differential
    @given(ranged_models(integral=False), st.data())
    def test_row_upper_rewrites_reuse_the_form(self, compiled, data):
        """A ``with_row_upper`` derivative solves on its parent's cached form.

        A rewrite that turns a ranged row into an equality changes the row
        split, so the form is rebuilt instead.
        """
        solvers.solve_compiled_raw(compiled)
        finite = np.isfinite(compiled.row_upper) & (
            compiled.row_lower != compiled.row_upper
        )
        shift = np.array(data.draw(st.lists(
            st.sampled_from([-1.0, -0.0, 0.0, 2.0]),
            min_size=finite.size, max_size=finite.size,
        )))
        row_upper = np.where(finite, compiled.row_upper + shift, compiled.row_upper)
        derived = with_row_upper(compiled, row_upper)
        form = compiled.split_cache
        assert_matches_oracle(derived)
        same_split = np.array_equal(
            derived.row_lower == derived.row_upper,
            compiled.row_lower == compiled.row_upper,
        )
        assert (derived.split_cache is form) == same_split

    def test_solved_model_pickles_and_its_copy_solves_alike(self):
        """The cached form holds HiGHS objects; pickling leaves it behind."""
        compiled = compile_coo(
            objective=np.array([1.0, 2.0]), maximize=True,
            rows=np.array([0, 0]), cols=np.array([0, 1]), data=np.ones(2),
            num_rows=1, row_lower=np.array([-np.inf]), row_upper=np.array([3.0]),
            var_lower=np.zeros(2), var_upper=np.full(2, 2.0),
            integrality=np.zeros(2, dtype=np.int8),
        )
        first = solvers.solve_compiled_raw(compiled)
        assert compiled.split_cache is not None
        copy = pickle.loads(pickle.dumps(compiled))
        assert copy.split_cache is None
        assert compiled.split_cache is not None
        assert_same_solution(solvers.solve_compiled_raw(copy), first)

    @pytest.mark.parametrize("integral", [False, True])
    def test_named_outcomes(self, integral):
        """Each status the generator relies on chance for, once for certain."""
        def model(objective, rows, cols, data, lower, upper, var_upper):
            n = len(objective)
            return compile_coo(
                objective=np.array(objective, dtype=float), maximize=True,
                rows=np.array(rows, dtype=np.intp), cols=np.array(cols, dtype=np.intp),
                data=np.array(data, dtype=float), num_rows=len(lower),
                row_lower=np.array(lower, dtype=float),
                row_upper=np.array(upper, dtype=float),
                var_lower=np.zeros(n), var_upper=np.array(var_upper, dtype=float),
                integrality=np.full(n, int(integral), dtype=np.int8),
            )

        # An unbounded MILP reads kUnboundedOrInfeasible from HiGHS: ERROR.
        unbounded = SolveStatus.ERROR if integral else SolveStatus.UNBOUNDED
        cases = [
            (SolveStatus.OPTIMAL, model(
                [1.0, 2.0], [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0],
                [-np.inf, 0.5], [3.0, np.inf], [5.0, 5.0],
            )),
            (SolveStatus.INFEASIBLE, model(
                [1.0], [0], [0], [1.0], [2.0], [np.inf], [1.0],
            )),
            (unbounded, model(
                [1.0, 1.0], [0], [0], [1.0], [-np.inf], [3.0], [5.0, np.inf],
            )),
            # No rows at all.
            (SolveStatus.OPTIMAL, model([1.0, -1.0], [], [], [], [], [], [2.0, 2.0])),
            # Zero-capacity rows, written -0.0 as BL-SPM writes them.
            (SolveStatus.OPTIMAL, model(
                [1.0, 1.0], [0, 0, 1], [0, 1, 1], [1.0, 1.0, 1.0],
                [-np.inf, -np.inf], [-0.0, 0.0], [3.0, 3.0],
            )),
        ]
        for status, compiled in cases:
            assert_matches_oracle(compiled)
            assert solvers.solve_compiled_raw(compiled).status is status

    def test_time_limit_is_passed_through(self):
        compiled = compile_coo(
            objective=np.ones(2), maximize=True,
            rows=np.array([0, 0]), cols=np.array([0, 1]), data=np.ones(2),
            num_rows=1, row_lower=np.array([-np.inf]), row_upper=np.array([3.0]),
            var_lower=np.zeros(2), var_upper=np.full(2, 2.0),
            integrality=np.zeros(2, dtype=np.int8),
        )
        assert_same_solution(
            solvers.solve_compiled_raw(compiled, time_limit=10.0),
            oracle.solve_compiled_raw(compiled, time_limit=10.0),
        )
        # scipy warned about a negative limit and solved without one.
        with pytest.warns(OptimizeWarning, match="Invalid option value"):
            want = oracle.solve_compiled_raw(compiled, time_limit=-1.0)
        assert_same_solution(
            solvers.solve_compiled_raw(compiled, time_limit=-1.0), want
        )


class _ModelSpy:
    """Records every model the driver solves during a run."""

    def __init__(self, monkeypatch) -> None:
        self.models = []
        solve_lp, solve_milp = solvers._solve_lp, solvers._solve_milp

        def spy_lp(compiled, **kwargs):
            self.models.append(replace(compiled, split_cache=None))
            return solve_lp(compiled, **kwargs)

        def spy_milp(compiled, **kwargs):
            self.models.append(replace(compiled, split_cache=None))
            return solve_milp(compiled, **kwargs)

        monkeypatch.setattr(solvers, "_solve_lp", spy_lp)
        monkeypatch.setattr(solvers, "_solve_milp", spy_milp)


class TestRealModels:
    """The models of the plan-b4 and serve-b4 benchmark workloads, replayed."""

    def test_plan_b4_relaxations(self, monkeypatch):
        # plan-b4's first instance (seed 1): K=200 on B4, flat 1.8 values.
        spy = _ModelSpy(monkeypatch)
        topology = b4()
        workload = generate_workload(
            topology,
            WorkloadConfig(num_requests=200, num_slots=12, max_duration=4,
                           value_model=FlatRateValueModel(1.8)),
            rng=1000,
        )
        instance = SPMInstance.build(topology, workload, k_paths=3)
        Metis(theta=10).solve(instance, rng=1000)
        monkeypatch.undo()
        assert len(spy.models) >= 10  # RL-SPM and BL-SPM relaxations
        assert not any(np.any(m.integrality) for m in spy.models)
        for compiled in spy.models:
            assert_matches_oracle(compiled)

    def test_serve_b4_batch_milps(self, monkeypatch):
        spy = _ModelSpy(monkeypatch)
        config = BrokerConfig(
            topology="b4", num_cycles=1, slots_per_cycle=12,
            requests_per_cycle=160, seed=1, max_batch=16, workers=0,
        )
        source = GeneratorSource(
            b4(),
            WorkloadConfig(num_requests=160, num_slots=12, max_duration=4,
                           value_model=FlatRateValueModel(1.8)),
            seed=1,
        )
        Broker(config, source=source).run()
        monkeypatch.undo()
        assert len(spy.models) >= 5
        assert all(np.any(m.integrality) for m in spy.models)
        for compiled in spy.models:
            assert_matches_oracle(compiled)


#: Every name the driver takes from ``scipy.optimize._highspy._core``.
BINDING_NAMES = (
    "_Highs", "HighsLp", "HighsOptions", "HighsSparseMatrix", "HighsVarType",
    "HighsModelStatus", "HighsStatus", "MatrixFormat", "HighsDebugLevel",
    "kHighsInf",
)
MODEL_STATUSES = (
    "kNotset", "kModelError", "kOptimal", "kInfeasible", "kUnbounded",
    "kUnboundedOrInfeasible", "kTimeLimit", "kIterationLimit",
    "kSolutionLimit", "kInterrupt", "kUnknown",
)


class TestBindingSurface:
    def test_every_binding_name_exists(self):
        from scipy.optimize._highspy import _core

        missing = [name for name in BINDING_NAMES if not hasattr(_core, name)]
        missing += [
            f"HighsModelStatus.{name}" for name in MODEL_STATUSES
            if not hasattr(_core.HighsModelStatus, name)
        ]
        for owner, name in (
            ("MatrixFormat", "kColwise"),
            ("HighsDebugLevel", "kHighsDebugLevelNone"),
            ("HighsStatus", "kError"),
        ):
            if not hasattr(getattr(_core, owner), name):
                missing.append(f"{owner}.{name}")
        assert not missing, f"scipy's HiGHS bindings lack {missing}"
        assert _core.kHighsInf == np.inf
        options = _core.HighsOptions()
        for option in ("presolve", "simplex_strategy", "highs_debug_level",
                       "log_to_console", "output_flag", "time_limit"):
            assert hasattr(options, option), option
        solution = _core._Highs().getSolution()
        for field in ("col_value", "row_value", "row_dual"):
            assert hasattr(solution, field), field

    def test_pyproject_floor_is_the_driver_floor(self):
        text = (ROOT / "pyproject.toml").read_text()
        assert f'"scipy>={solvers.SCIPY_FLOOR}"' in text

    def test_old_scipy_fails_at_import_naming_the_floor(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
        spec = importlib.util.spec_from_file_location(
            "_driver_without_bindings", solvers.__file__
        )
        module = importlib.util.module_from_spec(spec)
        with pytest.raises(ImportError, match=re.escape(f"scipy>={solvers.SCIPY_FLOOR}")):
            spec.loader.exec_module(module)

    def test_driver_reads_only_listed_names(self):
        """The guard above covers every ``_highs.<name>`` the driver reads."""
        tree = ast.parse(pathlib.Path(solvers.__file__).read_text())
        used = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "_highs"
        }
        assert used <= set(BINDING_NAMES), used - set(BINDING_NAMES)
