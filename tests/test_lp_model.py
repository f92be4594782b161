"""Tests for the oracle Model (tests.oracles.lp.model): build and compile."""

import math

import numpy as np
import pytest

from repro.exceptions import ModelError

from tests.oracles.lp.model import Model


class TestModelConstruction:
    def test_duplicate_names_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ModelError, match="duplicate"):
            m.add_var("x")

    def test_add_binary(self):
        m = Model()
        b = m.add_binary("b")
        assert b.is_integer
        assert (b.lower, b.upper) == (0.0, 1.0)

    def test_foreign_variable_rejected_in_constraint(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_var("x")
        with pytest.raises(ModelError, match="does not belong"):
            m2.add_constr(x <= 1)

    def test_foreign_variable_rejected_in_objective(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.add_var("x")
        with pytest.raises(ModelError):
            m2.set_objective(x + 0, maximize=True)

    def test_non_constraint_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(ModelError, match="expected Constraint"):
            m.add_constr(True)  # type: ignore[arg-type]

    def test_has_integer_vars(self):
        m = Model()
        m.add_var("x")
        assert not m.has_integer_vars
        m.add_binary("b")
        assert m.has_integer_vars


class TestCompilation:
    def test_empty_model_rejected(self):
        with pytest.raises(ModelError, match="no variables"):
            Model().compile()

    def test_senses_map_to_row_bounds(self):
        m = Model()
        x = m.add_var("x")
        m.add_constr(x <= 4)
        m.add_constr(x >= 1)
        m.add_constr(x == 2)
        m.set_objective(x + 0, maximize=False)
        compiled = m.compile()
        assert compiled.row_upper[0] == 4 and compiled.row_lower[0] == -np.inf
        assert compiled.row_lower[1] == 1 and compiled.row_upper[1] == np.inf
        assert compiled.row_lower[2] == compiled.row_upper[2] == 2

    def test_maximization_negates_objective(self):
        m = Model()
        x = m.add_var("x", 0, 1)
        m.set_objective(3 * x, maximize=True)
        compiled = m.compile()
        assert compiled.c[0] == -3.0
        assert compiled.sign == -1.0

    def test_relax_integrality(self):
        m = Model()
        m.add_binary("b")
        m.set_objective(m.variables[0] + 0, maximize=True)
        assert m.compile().integrality[0] == 1
        assert m.compile(relax_integrality=True).integrality[0] == 0

    def test_sparse_matrix_contents(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add_constr(2 * x + 3 * y <= 6)
        m.set_objective(x + y, maximize=False)
        a = m.compile().a_matrix.toarray()
        assert a.tolist() == [[2.0, 3.0]]


class TestFeasibilityHelpers:
    def test_check_feasible(self):
        m = Model()
        x = m.add_var("x", 0, 2)
        m.add_constr(x >= 1)
        assert m.check_feasible({x: 1.5})
        assert not m.check_feasible({x: 0.5}), "constraint violated"
        assert not m.check_feasible({x: 3.0}), "bound violated"

    def test_objective_value_in_original_sense(self):
        m = Model()
        x = m.add_var("x")
        m.set_objective(2 * x + 1, maximize=True)
        assert m.objective_value({x: 2.0}) == 5.0

    def test_repr(self):
        m = Model("demo")
        x = m.add_var("x")
        m.add_constr(x <= 1)
        m.set_objective(x + 0, maximize=True)
        assert "demo" in repr(m) and "max" in repr(m)
