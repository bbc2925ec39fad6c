from __future__ import annotations

import re
from fractions import Fraction

import pytest

from quasicross import (
    MultiplierSet,
    QuasiCrossShape,
    dimension_bound,
    group_order_constraints,
    instance_feasibility,
    max_positive_arm,
    negative_arm_bound,
)
from quasicross.bounds import RuleCheck, shape_feasibility


def test_dimension_bound_values():
    check = dimension_bound(QuasiCrossShape(3, 2, 2))
    assert check.ruled_out
    assert check.value == Fraction(14, 5)
    assert not dimension_bound(QuasiCrossShape(3, 1, 6)).ruled_out
    assert dimension_bound(QuasiCrossShape(3, 1, 6)).value == Fraction(11, 4)
    assert not dimension_bound(QuasiCrossShape(2, 1, 5)).ruled_out


def test_every_2d_shape_is_ruled_out():
    for k_plus in range(2, 11):
        for k_minus in range(1, k_plus):
            assert dimension_bound(QuasiCrossShape(k_plus, k_minus, 2)).ruled_out


def test_dimension_bound_needs_n2():
    with pytest.raises(ValueError):
        dimension_bound(QuasiCrossShape(3, 2, 1))


def test_negative_arm_bound():
    assert negative_arm_bound(QuasiCrossShape(5, 4, 4)).ruled_out
    # the dimension bound alone does not catch (5,4,4)
    assert not dimension_bound(QuasiCrossShape(5, 4, 4)).ruled_out
    assert not negative_arm_bound(QuasiCrossShape(2, 1, 5)).ruled_out
    assert not negative_arm_bound(QuasiCrossShape(10, 9, 10)).ruled_out  # boundary


def test_max_positive_arm():
    assert max_positive_arm(4) == 6
    assert max_positive_arm(5) == 14
    assert max_positive_arm(3) == 4
    with pytest.raises(ValueError):
        max_positive_arm(2)


def test_group_order_constraints_examples():
    r10 = group_order_constraints(2, 1, 10)
    assert r10.ruled_out
    assert "two-power-order" in {rule.name for rule in r10.triggered()}
    assert not group_order_constraints(2, 1, 16).ruled_out
    r11 = group_order_constraints(3, 2, 11)
    assert r11.ruled_out
    assert {rule.name for rule in r11.triggered()} == {"gcd-consecutive-arms"}


def test_group_order_divisibility_rule():
    r = group_order_constraints(3, 1, 10)  # 4 does not divide 9
    assert r.ruled_out
    assert "divisibility" in {rule.name for rule in r.triggered()}
    assert r.n is None


def test_two_power_rule_sweep():
    allowed = {q for q in range(2, 101) if not group_order_constraints(2, 1, q).ruled_out}
    assert allowed == {4, 16, 64}


def test_two_power_rule_w2():
    # arms (4, 3): orders must be powers of 8
    allowed = {q for q in range(2, 513) if not group_order_constraints(4, 3, q).ruled_out}
    assert allowed == {8, 64, 512}


def divides_down_to_1(q: int, base: int) -> bool:
    while q % base == 0:
        q //= base
    return q == 1


@pytest.mark.parametrize("w", [1, 2, 3, 4])  # w = 0 would be arms (1, 0), which have no rule
def test_two_power_rule_agrees_with_a_division_loop(w):
    # the rule reads q's bits; 2^7401 is a power of 8 but not of 4, 16 or 32
    base = 2 ** (w + 1)
    for q in [*range(2, 2**13 + 1), 4**3700, 4**3700 + 4, 2**7401]:
        (rule,) = (r for r in group_order_constraints(2**w, 2**w - 1, q).rules if r.name == "two-power-order")
        assert rule.ruled_out is not divides_down_to_1(q, base), (w, q)


def test_ruled_out_always_has_witness():
    for q in range(2, 101):
        report = instance_feasibility(2, 1, q)
        if report.ruled_out:
            assert report.triggered()
            assert all(rule.detail for rule in report.triggered())


def test_instance_feasibility_includes_shape_rules():
    # q = 7 gives n = 2, killed by the dimension bound
    report = instance_feasibility(2, 1, 7)
    assert report.ruled_out
    assert "dimension" in {rule.name for rule in report.triggered()}


def test_reports_carry_the_shape_bounds_as_they_are():
    for k_plus in range(2, 9):
        for k_minus in range(1, k_plus):
            for q in range(2, 120):
                report = instance_feasibility(k_plus, k_minus, q)
                assert report.ruled_out == any(rule.ruled_out for rule in report.rules)
                shape_rules = [r for r in report.rules if r.name in ("dimension", "negative-arm")]
                if report.n is None or report.n < 2:
                    assert shape_rules == []
                    continue
                shape = QuasiCrossShape(k_plus, k_minus, report.n)
                assert shape_rules == [dimension_bound(shape), negative_arm_bound(shape)]
                assert report.rules[-2:] == tuple(shape_rules)
                alone = shape_feasibility(k_plus, k_minus, report.n)
                assert alone.rules == tuple(shape_rules)
                assert alone.ruled_out == any(rule.ruled_out for rule in shape_rules)


def test_shape_bounds_read_as_rules_and_as_values():
    dim = dimension_bound(QuasiCrossShape(3, 2, 2))
    arm = negative_arm_bound(QuasiCrossShape(5, 4, 4))
    assert (dim.name, dim.ruled_out, dim.detail, dim.value) == ("dimension", True, "14/5 vs n = 2", Fraction(14, 5))
    assert (arm.name, arm.ruled_out, arm.detail, arm.limit) == ("negative-arm", True, "k_minus = 4 vs n - 1 = 3", 3)
    assert isinstance(dim, RuleCheck) and isinstance(arm, RuleCheck)


@pytest.mark.parametrize("k_plus, k_minus", [(1, 2), (2, 2), (2, 0), (2.5, 1)])
def test_group_rules_check_arms_through_multiplier_set(k_plus, k_minus):
    # one rule for arms: the same message as MultiplierSet's
    with pytest.raises(ValueError) as expected:
        MultiplierSet(k_plus, k_minus)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        group_order_constraints(k_plus, k_minus, 16)


@pytest.mark.parametrize("q", [1, 16.0, "16", None])
def test_group_rules_check_the_order_through_the_group(q):
    with pytest.raises(ValueError, match="must be"):
        group_order_constraints(2, 1, q)
