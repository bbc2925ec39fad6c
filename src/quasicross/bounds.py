"""Feasibility predicates for quasi-cross lattice tilings.

Each rule is an executable necessary condition: when it triggers, no
perfect splitting (lattice tiling) with those parameters exists.  Rules
never rule out mere packings, and every ruled-out verdict carries the
arithmetic witness that triggered it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .groups import cyclic_group
from .splitting import MultiplierSet, QuasiCrossShape


@dataclass(frozen=True)
class RuleCheck:
    name: str
    ruled_out: bool
    detail: str


@dataclass(frozen=True)
class DimensionBound(RuleCheck):
    """Tilings need (2*k_plus*(k_minus+1) - k_minus^2)/(k_plus+k_minus) <= n."""

    value: Fraction


def dimension_bound(shape: QuasiCrossShape) -> DimensionBound:
    """Evaluate the dimension inequality exactly; ruled out when the
    rational left side exceeds n.  In particular every 2-D shape in scope
    is ruled out."""
    if shape.n < 2:
        raise ValueError("dimension bound applies to n >= 2")
    lhs = Fraction(
        2 * shape.k_plus * (shape.k_minus + 1) - shape.k_minus**2,
        shape.k_plus + shape.k_minus,
    )
    return DimensionBound("dimension", lhs > shape.n, f"{lhs} vs n = {shape.n}", lhs)


@dataclass(frozen=True)
class NegativeArmBound(RuleCheck):
    """Tilings need k_minus <= n - 1."""

    limit: int


def negative_arm_bound(shape: QuasiCrossShape) -> NegativeArmBound:
    if shape.n < 2:
        raise ValueError("negative-arm bound applies to n >= 2")
    limit = shape.n - 1
    detail = f"k_minus = {shape.k_minus} vs n - 1 = {limit}"
    return NegativeArmBound("negative-arm", shape.k_minus > limit, detail, limit)


def max_positive_arm(n: int) -> int:
    """Largest k_plus compatible with a tiling in dimension n >= 3 when
    k_minus > n/2 - 1: floor(3n^2/8) for even n, (3n^2-4n+1)/4 for odd n."""
    if n < 3:
        raise ValueError("max_positive_arm applies to n >= 3")
    if n % 2 == 0:
        return 3 * n * n // 8
    return (3 * n * n - 4 * n + 1) // 4


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict plus the rule evaluations at dimension n: the given one, or
    an instance's (q-1)/(k_plus+k_minus), None if that is not an integer.
    A ruled-out verdict always has a triggered rule with its witness."""

    n: int | None
    rules: tuple[RuleCheck, ...]

    @property
    def ruled_out(self) -> bool:
        return any(r.ruled_out for r in self.rules)

    def triggered(self) -> tuple[RuleCheck, ...]:
        return tuple(r for r in self.rules if r.ruled_out)


def group_order_constraints(k_plus: int, k_minus: int, q: int) -> FeasibilityReport:
    """Necessary conditions on the order q of a cyclic group admitting a
    perfect splitting with arms (k_plus, k_minus).

    Rules: (a) k_plus+k_minus must divide q-1 (counting); (b) for
    consecutive arms (k, k-1), gcd(k, q) must exceed 1; (c) for arms
    (2^w, 2^w - 1), q must be a power of 2^(w+1).
    """
    q = cyclic_group(q).order  # an integer >= 2, or ValueError
    arms = MultiplierSet(k_plus, k_minus)
    k_plus, k_minus, span = arms.k_plus, arms.k_minus, arms.k_plus + arms.k_minus
    rules = []
    divisible = (q - 1) % span == 0
    n = (q - 1) // span if divisible else None
    rules.append(
        RuleCheck(
            "divisibility",
            not divisible,
            f"{span} {'divides' if divisible else 'does not divide'} {q}-1",
        )
    )
    if k_minus == k_plus - 1:
        g = gcd(k_plus, q)
        rules.append(
            RuleCheck(
                "gcd-consecutive-arms",
                g == 1,
                f"gcd({k_plus}, {q}) = {g}",
            )
        )
        w = k_plus.bit_length() - 1
        if k_plus == 1 << w:
            base = 1 << (w + 1)
            power = q & (q - 1) == 0 and (q.bit_length() - 1) % (w + 1) == 0
            rules.append(
                RuleCheck(
                    "two-power-order",
                    not power,
                    f"{q} {'is' if power else 'is not'} a power of {base}",
                )
            )
    return FeasibilityReport(n, tuple(rules))


def _shape_rules(shape: QuasiCrossShape) -> tuple[RuleCheck, ...]:
    """The dimension and negative-arm rules at dimension n >= 2."""
    return dimension_bound(shape), negative_arm_bound(shape)


def shape_feasibility(k_plus: int, k_minus: int, n: int) -> FeasibilityReport:
    """The shape bounds alone at dimension n >= 2."""
    shape = QuasiCrossShape(k_plus, k_minus, n)
    return FeasibilityReport(shape.n, _shape_rules(shape))


def instance_feasibility(k_plus: int, k_minus: int, q: int) -> FeasibilityReport:
    """All applicable rules for a survey instance: the group-order rules
    plus the shape bounds at n = (q-1)/(k_plus+k_minus) when n >= 2."""
    report = group_order_constraints(k_plus, k_minus, q)
    if report.n is None or report.n < 2:
        return report
    shape = QuasiCrossShape(k_plus, k_minus, report.n)
    return FeasibilityReport(report.n, report.rules + _shape_rules(shape))
