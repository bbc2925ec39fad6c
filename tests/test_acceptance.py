"""Acceptance suite: one test per criterion, exact tolerances, with a
pass/fail line per criterion printed in the terminal summary."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from quasicross import (
    IntegerLattice,
    QuasiCrossShape,
    Singularity,
    SyndromeTable,
    classify_singularity,
    cyclic_splitting,
    decode,
    determinant,
    dimension_bound,
    encode,
    field_splitting,
    geometric_check,
    group_order_constraints,
    is_prime,
    is_tiling,
    lattice_from_splitting,
    make_code,
    make_cyclic_splitting,
    matrix_extension,
    max_positive_arm,
    negative_arm_bound,
    packing_density,
    period,
    survey,
    syndrome,
    two_one_splitting,
    verify_packing,
)

import oracles


def _sweep_constructions():
    """Everything criterion 3 builds, reused by the oracle-equivalence
    criterion."""
    out = []
    for p in (5, 7, 11, 13):
        for ell in (1, 2, 3):
            for k_minus in range(1, (p - 1) // 2 + (p - 1) % 2):
                k_plus = p - 1 - k_minus
                if k_minus < k_plus:
                    out.append(cyclic_splitting(p, ell, k_plus, k_minus))
    for ell in range(1, 6):
        out.append(two_one_splitting(ell))
    for p in (5, 7, 11):
        for ell in (1, 2):
            for k_minus in range(1, p - 1):
                k_plus = p - 1 - k_minus
                if k_minus < k_plus:
                    out.append(field_splitting(p, ell, k_plus, k_minus))
    return out


@pytest.fixture(scope="module")
def sweep():
    return _sweep_constructions()


@pytest.fixture(scope="module")
def full_survey():
    # no pruning so the rules and the search cross-check each other;
    # the per-instance cap turns a hang into an honest failure
    return survey(k_max=10, q_max=100, prune_with_bounds=False, time_limit=60.0)


def test_c1_density_11_17_example():
    lat = IntegerLattice(((4, 1), (3, 5)))
    assert packing_density(lat, QuasiCrossShape(3, 2, 2)) == Fraction(11, 17)
    sp = make_cyclic_splitting(17, 3, 2, [1, 13])
    assert verify_packing(sp).ok
    assert not is_tiling(sp)
    assert packing_density(lattice_from_splitting(sp), sp.shape) == Fraction(11, 17)


def test_c2_construction_examples():
    c1 = cyclic_splitting(5, 2, 3, 1)
    assert c1.splitter_values() == (1, 5, 6, 11, 16, 21)
    assert determinant(lattice_from_splitting(c1)) == 25
    assert period(c1) == (25, 5, 25, 25, 25, 25)

    c2 = field_splitting(5, 2, 3, 1)
    assert c2.splitters == ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4))
    assert determinant(lattice_from_splitting(c2)) == 25
    assert period(c2) == (5, 5, 5, 5, 5, 5)


def test_c3_construction_validity_sweep(sweep):
    assert len(sweep) == 36 + 5 + 14
    for sp in sweep:
        assert verify_packing(sp).ok, sp
        assert is_tiling(sp), sp
        assert geometric_check(sp).verdict == "tiling", sp


def test_c4_matrix_extension_counterexample():
    base = make_cyclic_splitting(4, 2, 1, [1])
    with pytest.raises(ValueError, match="multiplier 2"):
        matrix_extension(base, 2)
    # building the would-be columns by hand exposes the collision itself
    from quasicross import FiniteAbelianGroup, MultiplierSet, Splitting

    forced = Splitting(
        FiniteAbelianGroup((4, 4)),
        MultiplierSet(2, 1),
        ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3)),
    )
    check = verify_packing(forced)
    assert not check.ok
    assert (check.collision.m1, check.collision.s1) == (2, (1, 0))
    assert (check.collision.m2, check.collision.s2) == (2, (1, 2))


def test_c5_survey_full_scale(full_survey):
    rows = full_survey
    assert all(row.searched for row in rows)

    found = {(r.k_plus, r.k_minus, r.q) for r in rows if r.tilings}
    expected = {(2, 1, 16), (2, 1, 64)}
    for k_plus in range(2, 11):
        for k_minus in range(1, k_plus):
            p = k_plus + k_minus + 1
            if not is_prime(p):
                continue
            q = p * p
            while q <= 100:
                expected.add((k_plus, k_minus, q))
                q *= p
    assert found == expected

    two_one_qs = {r.q for r in rows if (r.k_plus, r.k_minus) == (2, 1) and r.tilings}
    assert two_one_qs == {16, 64}
    for k_plus in range(2, 11):
        for k_minus in range(1, k_plus):
            if (k_plus, k_minus) == (2, 1):
                continue  # the power-of-four family, asserted above
            if not is_prime(k_plus + k_minus + 1):
                assert not any(
                    r.tilings for r in rows if (r.k_plus, r.k_minus) == (k_plus, k_minus)
                ), (k_plus, k_minus)

    # soundness: no rule may reject an instance the search tiled
    for row in rows:
        if row.tilings:
            assert not row.ruled_out, row

    # every reported tiling really is one, algebraically and geometrically
    for row in rows:
        for values in row.tilings:
            sp = make_cyclic_splitting(row.q, row.k_plus, row.k_minus, values)
            assert verify_packing(sp).ok
            assert is_tiling(sp)
            assert geometric_check(sp).verdict == "tiling"


def test_c6_codec_perfectness_and_round_trip():
    sp = two_one_splitting(2)
    table = SyndromeTable(sp)
    assert len(table) == 15
    cs = make_code(sp, 16)

    zero = sp.group.zero
    checked = 0
    for info in itertools.islice(itertools.product(range(16), repeat=4), 1024):
        c = encode(cs, info, 0)
        assert syndrome(cs, c) == zero
        for i in range(5):
            for m in (-1, 1, 2):
                word = list(c)
                word[i] += m
                result = decode(cs, word, table)
                assert result.codeword == c
                assert result.correction == (i, m)
                checked += 1
    assert checked == 1024 * 15

    # exhaustive n = 1 code over Z_4
    n1 = make_cyclic_splitting(4, 2, 1, [1])
    n1_table = SyndromeTable(n1)
    for levels in (4, 8):
        cs1 = make_code(n1, levels)
        for t in range(levels // 4):
            c = encode(cs1, [], t)
            assert syndrome(cs1, c) == (0,)
            for m in (-1, 1, 2):
                result = decode(cs1, [c[0] + m], n1_table)
                assert result.codeword == c
                assert result.correction == (0, m)


def test_c7_bound_unit_values():
    dim = dimension_bound(QuasiCrossShape(3, 2, 2))
    assert dim.ruled_out and dim.value == Fraction(14, 5)
    assert negative_arm_bound(QuasiCrossShape(5, 4, 4)).ruled_out
    assert max_positive_arm(4) == 6
    assert max_positive_arm(5) == 14
    assert max_positive_arm(3) == 4
    allowed = {q for q in range(2, 101) if not group_order_constraints(2, 1, q).ruled_out}
    assert allowed == {4, 16, 64}


def test_c8_oracle_equivalence(sweep, full_survey):
    from quasicross import FiniteAbelianGroup, MultiplierSet, Splitting, mixed_splitting

    corpus = list(sweep)
    corpus.append(make_cyclic_splitting(17, 3, 2, [1, 13]))
    corpus.append(make_cyclic_splitting(17, 3, 2, [2, 9]))
    corpus.append(make_cyclic_splitting(17, 3, 2, [1, 2]))  # forced overlap
    corpus.append(make_cyclic_splitting(16, 2, 1, [1, 3, 4, 5, 7]))
    corpus.append(mixed_splitting(5, 2, 3, 1, 2))
    corpus.append(matrix_extension(make_cyclic_splitting(17, 3, 2, [1, 13]), 2))
    corpus.append(
        Splitting(
            FiniteAbelianGroup((4, 4)),
            MultiplierSet(2, 1),
            ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3)),
        )
    )
    for row in full_survey:
        for values in row.tilings:
            corpus.append(make_cyclic_splitting(row.q, row.k_plus, row.k_minus, values))

    for sp in corpus:
        geo = geometric_check(sp)
        algebraic_packing = verify_packing(sp).ok
        assert algebraic_packing == (geo.verdict != "overlap"), sp
        if algebraic_packing:
            assert is_tiling(sp) == (geo.verdict == "tiling"), sp


def test_group_theorem_invariants_on_survey_output(full_survey):
    """Every perfect splitting found by search obeys the gcd restriction
    for consecutive arms and the purely-singular prime density bound."""
    from math import gcd

    for row in full_survey:
        for values in row.tilings:
            sp = make_cyclic_splitting(row.q, row.k_plus, row.k_minus, values)
            if row.k_minus == row.k_plus - 1:
                assert gcd(row.k_plus, row.q) != 1
            if classify_singularity(sp) is Singularity.PURELY_SINGULAR:
                assert oracles.check_singular_prime_bound((row.q,), row.k_plus, row.k_minus, sp.splitters)
