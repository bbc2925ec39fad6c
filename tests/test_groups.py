from __future__ import annotations

import itertools
import re
from fractions import Fraction

import pytest

from quasicross import (
    FiniteAbelianGroup,
    IntegerLattice,
    MultiplierSet,
    QuasiCrossShape,
    Splitting,
    balance_family,
    cyclic_group,
    cyclic_splitting,
    field_splitting,
    group_order_constraints,
    instance_feasibility,
    is_prime,
    make_cyclic_splitting,
    matrix_extension,
    mixed_splitting,
    negative_arm_bound,
    period,
    search_tilings,
    two_one_splitting,
)
from quasicross.bounds import shape_feasibility
from quasicross.groups import prime_factors

import oracles


def test_add_examples():
    z17 = cyclic_group(17)
    assert z17.add((13,), (13,)) == (9,)
    z55 = FiniteAbelianGroup((5, 5))
    assert z55.add((4, 4), (1, 2)) == (0, 1)
    assert z55.add((3, 2), z55.zero) == (3, 2)


def test_add_dimension_mismatch():
    z55 = FiniteAbelianGroup((5, 5))
    with pytest.raises(ValueError):
        z55.add((1,), (2, 3))


def test_scalar_mul_examples():
    z17 = cyclic_group(17)
    assert z17.scalar_mul(2, (13,)) == (9,)
    z44 = FiniteAbelianGroup((4, 4))
    assert z44.scalar_mul(2, (1, 0)) == (2, 0)
    assert z44.scalar_mul(2, (1, 2)) == (2, 0)
    assert z44.scalar_mul(0, (3, 1)) == z44.zero
    assert z17.scalar_mul(-1, (5,)) == (12,)


def test_element_reduction_and_validation():
    z6 = cyclic_group(6)
    assert z6.elements_of([(13,), (-1,)]) == ((1,), (5,))
    with pytest.raises(ValueError):
        z6.elements_of([(1, 2)])


def element_orders(group, elements) -> tuple[int, ...]:
    """The order of each element, read off `period` of a splitting whose
    splitters are those elements."""
    return period(Splitting(group, MultiplierSet(2, 1), tuple(elements)))


def test_element_order_examples():
    assert element_orders(cyclic_group(25), [(5,), (6,)]) == (5, 25)
    assert element_orders(FiniteAbelianGroup((5, 5)), [(1, 3)]) == (5,)


def test_element_order_against_brute_force():
    g = FiniteAbelianGroup((4, 6))
    elems = [e for e in g.elements() if e != g.zero]
    assert element_orders(g, elems) == tuple(oracles.brute_element_order(g.orders, e) for e in elems)


@pytest.mark.parametrize("orders", [(5,), (2, 3), (4, 4), (2, 2, 2)])
def test_group_laws_exhaustive(orders):
    g = FiniteAbelianGroup(orders)
    elems = list(g.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert g.add(a, b) == g.add(b, a)
    trip = elems[: min(len(elems), 8)]
    for a, b, c in itertools.product(trip, repeat=3):
        assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))
    for m1, m2 in itertools.product(range(-3, 4), repeat=2):
        for s in elems:
            assert g.scalar_mul(m1 + m2, s) == g.add(g.scalar_mul(m1, s), g.scalar_mul(m2, s))


@pytest.mark.parametrize("orders", [(12,), (3, 9), (2, 4, 5)])
def test_lagrange_order_divides_group_order(orders):
    g = FiniteAbelianGroup(orders)
    for t in element_orders(g, g.elements()):
        assert g.order % t == 0


def test_group_invariants():
    with pytest.raises(ValueError):
        FiniteAbelianGroup(())
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
    g = FiniteAbelianGroup((6, 10))
    assert g.order == 60
    assert g.exponent == 30


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_prime_factors():
    # each prime, ascending, mapped to its full power
    assert prime_factors(1) == {}
    assert prime_factors(60) == {2: 4, 3: 3, 5: 5} and list(prime_factors(60)) == [2, 3, 5]
    assert prime_factors(97) == {97: 97}
    assert prime_factors(2**10 * 3**7) == {2: 2**10, 3: 3**7}
    # past the limit, the cofactor left is taken as one prime
    assert prime_factors(3 * 7 * 7 * 11, limit=5) == {3: 3, 539: 539}


def test_is_prime_agrees_with_prime_factors():
    # is_prime stops after the first factor that prime_factors lists
    for n in range(-5, 20001):
        assert is_prime(n) == (n >= 2 and prime_factors(n) == {n: n})


class Index:
    """An integer-like number that is not an int: it has only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# each builder puts x where the constructor needs an integer; x = valid is accepted
INTEGER_GATES = {
    "FiniteAbelianGroup": (lambda x: FiniteAbelianGroup((17, x)), 9),
    "element": (lambda x: cyclic_group(17).elements_of([(x,)])[0], 3),
    "MultiplierSet": (lambda x: MultiplierSet(x, 1), 3),
    "QuasiCrossShape": (lambda x: QuasiCrossShape(3, 1, x), 2),
    "IntegerLattice": (lambda x: IntegerLattice([[x, 0], [1, 3]]), 2),
    "search_tilings": (lambda x: search_tilings(2, 1, x), 16),
    "make_cyclic_splitting": (lambda x: make_cyclic_splitting(17, 3, 2, [x, 13]), 1),
    # the rules and the constructions used to validate an __index__ number
    # and then compute with it: group_order_constraints(I(2), I(1), 16) and
    # cyclic_splitting(5, I(2), I(3), I(1)) raised TypeError
    "group_order_constraints": (lambda x: group_order_constraints(x, 1, 16), 2),
    "instance_feasibility": (lambda x: instance_feasibility(3, x, 25), 1),
    "shape_feasibility": (lambda x: shape_feasibility(3, 1, x), 6),
    "cyclic_splitting_arms": (lambda x: cyclic_splitting(5, 2, x, 1), 3),
    "cyclic_splitting_ell": (lambda x: cyclic_splitting(5, x, 3, 1), 2),
    "cyclic_splitting_all_index": (lambda x: cyclic_splitting(5, Index(2), Index(3), x), 1),
    "field_splitting": (lambda x: field_splitting(x, 2, 3, 1), 5),
    "two_one_splitting": (lambda x: two_one_splitting(x), 2),
    "mixed_splitting": (lambda x: mixed_splitting(5, 1, 3, 1, x), 2),
    "balance_family": (lambda x: balance_family(1, 2, x), 1),
}


@pytest.mark.parametrize("name", INTEGER_GATES)
@pytest.mark.parametrize("bad", [0.5, "1", None, Fraction(1, 2)], ids=["float", "str", "None", "Fraction"])
def test_constructors_reject_non_integers(name, bad):
    # int() used to truncate: FiniteAbelianGroup((17.5,)) was Z17, and
    # QuasiCrossShape(3, 1, 2.5) had volume 11.0
    build, valid = INTEGER_GATES[name]
    with pytest.raises(ValueError, match="must be integers"):
        build(valid + bad if isinstance(bad, float) else bad)


@pytest.mark.parametrize("name", INTEGER_GATES)
def test_constructors_accept_and_store_index_integers(name):
    build, valid = INTEGER_GATES[name]
    assert build(Index(valid)) == build(valid)


Z5_SQUARED = field_splitting(5, 2, 3, 1)

# each call breaks a precondition of the function it calls
PRECONDITIONS = {
    "negative_arm_bound": (lambda: negative_arm_bound(QuasiCrossShape(3, 1, 1)), "negative-arm bound applies to n >= 2"),
    "QuasiCrossShape": (lambda: QuasiCrossShape(3, 1, 0), "dimension must be >= 1"),
    "Splitting": (lambda: Splitting(cyclic_group(17), MultiplierSet(3, 2), ()), "splitter set must be non-empty"),
    "splitter_values": (lambda: Z5_SQUARED.splitter_values(), "splitter_values needs a cyclic group"),
    "two_one_splitting": (lambda: two_one_splitting(0), "ell must be >= 1"),
    "matrix_extension_base": (lambda: matrix_extension(Z5_SQUARED, 2),
                              "matrix_extension needs a base splitting of a cyclic group"),
    "matrix_extension_k": (lambda: matrix_extension(cyclic_splitting(5, 1, 3, 1), 0), "k must be >= 1"),
    "IntegerLattice": (lambda: IntegerLattice([[2, 0, 0], [1, 3, 0]]), "basis must be a non-empty square matrix"),
    "Splitting_residues": (lambda: Splitting(cyclic_group(17), MultiplierSet(3, 2), (5,)),
                           "element residues must be integers"),
    "prime_factors": (lambda: prime_factors(0), "prime_factors needs n >= 1"),
}


@pytest.mark.parametrize("name", PRECONDITIONS)
def test_broken_preconditions_raise_value_error(name):
    build, message = PRECONDITIONS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
