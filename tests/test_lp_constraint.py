"""Tests for the oracle constraints (tests.oracles.lp.constraint)."""

import pytest

from repro.exceptions import ModelError

from tests.oracles.lp.constraint import Constraint
from tests.oracles.lp.expr import LinExpr, Variable


class TestConstraint:
    def setup_method(self):
        self.x = Variable("x")
        self.y = Variable("y")

    def test_invalid_sense(self):
        with pytest.raises(ModelError):
            Constraint(LinExpr({self.x: 1.0}), "<")

    def test_non_expr_rejected(self):
        with pytest.raises(ModelError):
            Constraint("x <= 1", "<=")  # type: ignore[arg-type]

    def test_satisfaction_le(self):
        constr = self.x + self.y <= 3
        assert constr.is_satisfied({self.x: 1.0, self.y: 1.0})
        assert constr.is_satisfied({self.x: 3.0, self.y: 0.0})
        assert not constr.is_satisfied({self.x: 4.0, self.y: 0.0})

    def test_satisfaction_ge(self):
        constr = self.x >= 2
        assert constr.is_satisfied({self.x: 2.0})
        assert not constr.is_satisfied({self.x: 1.0})

    def test_satisfaction_eq_with_tolerance(self):
        constr = self.x == 1
        assert constr.is_satisfied({self.x: 1.0 + 1e-9})
        assert not constr.is_satisfied({self.x: 1.01})

    def test_violation_magnitude(self):
        constr = self.x <= 1
        assert constr.violation({self.x: 3.0}) == pytest.approx(2.0)
        assert constr.violation({self.x: 0.5}) == 0.0
        eq = self.x == 1
        assert eq.violation({self.x: 0.0}) == pytest.approx(1.0)

    def test_named(self):
        constr = Constraint(LinExpr({self.x: 1.0}), "<=", name="cap")
        assert "cap" in repr(constr)
