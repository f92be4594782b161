"""Tests for the oracle expression layer (tests.oracles.lp.expr)."""

import math

import pytest

from repro.exceptions import ModelError

from tests.oracles.lp.constraint import Constraint
from tests.oracles.lp.expr import LinExpr, Variable


def var(name="x", **kwargs):
    return Variable(name, **kwargs)


class TestVariable:
    def test_defaults(self):
        x = var()
        assert x.lower == 0.0
        assert x.upper == math.inf
        assert not x.is_integer

    def test_bad_bounds(self):
        with pytest.raises(ModelError):
            Variable("x", 2.0, 1.0)
        with pytest.raises(ModelError):
            Variable("x", float("nan"), 1.0)

    def test_empty_name(self):
        with pytest.raises(ModelError):
            Variable("")

    def test_hash_is_identity(self):
        a, b = var("x"), var("x")
        assert hash(a) != hash(b) or a is not b
        assert len({a, b}) == 2


class TestArithmetic:
    def test_add_variables(self):
        x, y = var("x"), var("y")
        expr = x + y
        assert expr.terms == {x: 1.0, y: 1.0}
        assert expr.constant == 0.0

    def test_scalar_operations(self):
        x = var("x")
        expr = 2 * x + 1 - x / 2
        assert expr.terms[x] == pytest.approx(1.5)
        assert expr.constant == 1.0

    def test_negation_and_rsub(self):
        x = var("x")
        expr = 5 - x
        assert expr.terms[x] == -1.0
        assert expr.constant == 5.0
        assert (-x).terms[x] == -1.0

    def test_sum_builtin(self):
        xs = [var(f"x{i}") for i in range(4)]
        expr = sum(xs)
        assert all(expr.terms[x] == 1.0 for x in xs)

    def test_terms_merge(self):
        x = var("x")
        expr = x + x + x
        assert expr.terms[x] == 3.0

    def test_mul_by_expr_rejected(self):
        x, y = var("x"), var("y")
        with pytest.raises((ModelError, TypeError)):
            _ = (x + 1) * (y + 1)  # type: ignore[operator]

    def test_divide_by_zero_rejected(self):
        with pytest.raises(ModelError):
            _ = (var() + 1) / 0

    def test_bool_scalar_rejected(self):
        with pytest.raises(ModelError):
            _ = (var() + 1) * True  # type: ignore[operator]

    def test_value_evaluation(self):
        x, y = var("x"), var("y")
        expr = 2 * x - y + 3
        assert expr.value({x: 1.0, y: 4.0}) == pytest.approx(1.0)
        assert expr.value({}) == 3.0, "missing variables read as zero"


class TestComparisons:
    def test_le_builds_constraint(self):
        x = var("x")
        constr = x + 1 <= 5
        assert isinstance(constr, Constraint)
        assert constr.sense == "<="
        assert constr.rhs == 4.0

    def test_ge_and_eq(self):
        x, y = var("x"), var("y")
        ge = x >= y
        assert ge.sense == ">="
        assert ge.terms == {x: 1.0, y: -1.0}
        eq = x + y == 2
        assert eq.sense == "=="
        assert eq.rhs == 2.0

    def test_variable_comparison(self):
        x = var("x")
        constr = x <= 3
        assert constr.terms == {x: 1.0}
        assert constr.rhs == 3.0
