from __future__ import annotations

import re
from functools import reduce

import pytest

from quasicross import (
    balance_family,
    constructions,
    cyclic_splitting,
    field_splitting,
    is_tiling,
    make_cyclic_splitting,
    matrix_extension,
    mixed_splitting,
    splitting,
    two_one_splitting,
    verify_packing,
)
from quasicross.cli import main

import oracles


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: cyclic_splitting(5, 2, 3, 1), 1),
        (lambda: cyclic_splitting(7, 3, 5, 1), 1),
        (lambda: field_splitting(5, 3, 3, 1), 1),
        (lambda: field_splitting(7, 1, 4, 2), 1),
        (lambda: two_one_splitting(3), 1),
        (lambda: balance_family(2, 3, 1).splitting, 1),
        (lambda: mixed_splitting(5, 1, 3, 1, 3), 2),  # the base, then only the lift
        (lambda: mixed_splitting(5, 2, 3, 1, 2), 2),
    ],
    ids=["cyclic", "cyclic-z343", "field", "field-l1", "two-one", "balance", "mixed", "mixed-z25"],
)
def test_each_construction_scans_its_products_once(scans, build, expected):
    sp = build()
    assert len(scans) == expected
    assert scans[-1] is sp


def test_constructions_count_their_products_before_they_build(monkeypatch):
    base = cyclic_splitting(5, 6, 3, 1)

    def built(*args):
        raise AssertionError("built before the product count was checked")

    for move in ("_lift", "_product", "make_cyclic_splitting"):
        monkeypatch.setattr(constructions, move, built)
    refused = "the product scan needs 244140624 products, more than 500000"
    for build in (lambda: cyclic_splitting(5, 12, 3, 1), lambda: field_splitting(5, 12, 3, 1),
                  lambda: matrix_extension(base, 2)):
        with pytest.raises(ValueError, match=refused):
            build()


def test_cyclic_splitting_p5_l2():
    sp = cyclic_splitting(5, 2, 3, 1)
    assert sp.splitter_values() == (1, 5, 6, 11, 16, 21)
    assert sp.group.orders == (25,)
    assert is_tiling(sp)


def test_cyclic_splitting_l1():
    assert cyclic_splitting(5, 1, 3, 1).splitter_values() == (1,)


def test_cyclic_splitting_p7_l2():
    sp = cyclic_splitting(7, 2, 4, 2)
    assert sp.n == 8
    assert oracles.brute_is_tiling((49,), 4, 2, sp.splitters)


def test_cyclic_size_recurrence():
    for p, ell in [(5, 3), (7, 2), (11, 2), (13, 1)]:
        sp = cyclic_splitting(p, ell, p - 2, 1)
        assert sp.n == (p**ell - 1) // (p - 1)


def test_cyclic_splitting_preconditions():
    with pytest.raises(ValueError):
        cyclic_splitting(4, 2, 2, 1)  # p not prime
    with pytest.raises(ValueError):
        cyclic_splitting(5, 2, 2, 2)  # arms not increasing
    with pytest.raises(ValueError):
        cyclic_splitting(7, 2, 3, 1)  # arms do not sum to p-1
    with pytest.raises(ValueError):
        cyclic_splitting(5, 0, 3, 1)


def test_field_splitting_p5_l2():
    sp = field_splitting(5, 2, 3, 1)
    assert sp.splitters == ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4))
    assert is_tiling(sp)


def test_field_splitting_l1():
    sp = field_splitting(5, 1, 3, 1)
    assert sp.splitters == ((1,),)
    assert is_tiling(sp)


def test_field_splitting_p7_l2():
    sp = field_splitting(7, 2, 5, 1)
    assert sp.n == 8
    assert oracles.brute_is_tiling((7, 7), 5, 1, sp.splitters)


def test_field_splitting_leading_one_shape():
    sp = field_splitting(7, 2, 4, 2)
    for vec in sp.splitters:
        lead = next(x for x in vec if x)
        assert lead == 1


def test_two_one_splitting_levels():
    assert two_one_splitting(1).splitter_values() == (1,)
    sp2 = two_one_splitting(2)
    assert sp2.splitter_values() == (1, 3, 4, 5, 7)
    assert oracles.brute_is_tiling((16,), 2, 1, sp2.splitters)
    sp3 = two_one_splitting(3)
    assert sp3.n == 21
    assert is_tiling(sp3)
    assert two_one_splitting(4).n == 85


def test_two_one_literal_mod4_reading_would_be_too_small():
    # residues 1 mod 4 with 2s < 16 are {1, 5}: two fresh elements, but the
    # size recurrence needs four; the odd-s rule supplies {1, 3, 5, 7}.
    literal = [s for s in range(1, 16, 4) if 2 * s < 16]
    assert len(literal) == 2
    odd = [s for s in range(1, 16, 2) if 2 * s < 16]
    assert len(odd) == 4
    assert not oracles.brute_is_tiling((16,), 2, 1, [(4,)] + [(s,) for s in literal])


def test_matrix_extension_of_z5():
    base = cyclic_splitting(5, 1, 3, 1)
    ext = matrix_extension(base, 2)
    assert ext.group.orders == (5, 5)
    assert ext.n == 6
    assert is_tiling(ext)
    # pivot-ordered columns: pivot position 0 first, then pivot position 1
    assert ext.splitters == ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (0, 1))


def test_matrix_extension_counterexample():
    base = make_cyclic_splitting(4, 2, 1, [1])
    assert is_tiling(base)
    with pytest.raises(ValueError, match="multiplier 2"):
        matrix_extension(base, 2)


def test_matrix_extension_rejects_non_packing_base(scans):
    base = make_cyclic_splitting(7, 2, 1, [1, 2])  # 2 * 1 = 1 * 2 collide
    assert not verify_packing(base).ok
    scans.clear()
    with pytest.raises(ValueError, match=r"base \[1, 2\] of Z_7 is not a packing"):
        matrix_extension(base, 2)
    assert len(scans) == 1  # the lift only


def test_construction_fault_names_the_collision():
    with pytest.raises(RuntimeError, match=r"non-packing: 2\*1 = 1\*2 = 2"):
        constructions._verified(make_cyclic_splitting(7, 2, 1, [1, 2]))
    with pytest.raises(RuntimeError, match="not a tiling"):
        constructions._verified(make_cyclic_splitting(17, 3, 2, [1, 13]))


def test_matrix_extension_k1_is_identity():
    base = cyclic_splitting(5, 2, 3, 1)
    assert matrix_extension(base, 1) is base


def test_matrix_extension_k1_rejects_non_packing_base():
    base = make_cyclic_splitting(17, 3, 2, [1, 2])  # 2 * 1 = 1 * 2 collide
    with pytest.raises(ValueError, match=r"base \[1, 2\] of Z_17 is not a packing"):
        matrix_extension(base, 1)


def test_matrix_extension_preserves_packing_only_base():
    base = make_cyclic_splitting(17, 3, 2, [1, 13])  # packing, not tiling
    ext = matrix_extension(base, 2)
    assert verify_packing(ext).ok
    assert not is_tiling(ext)
    assert ext.n == 2 * (17**2 - 1) // 16


def test_mixed_splitting():
    assert mixed_splitting(5, 2, 3, 1, 1).splitter_values() == (1, 5, 6, 11, 16, 21)
    big = mixed_splitting(5, 2, 3, 1, 2)
    assert big.group.orders == (25, 25)
    assert big.n == 156
    assert is_tiling(big)
    small = mixed_splitting(7, 1, 4, 2, 2)
    assert small.n == 8
    assert oracles.brute_is_tiling((7, 7), 4, 2, small.splitters)


@pytest.mark.parametrize(
    "a,b,index,prime,k_plus,k_minus",
    [
        (1, 2, 1, 7, 4, 2),
        (1, 3, 1, 5, 3, 1),
        (2, 3, 1, 11, 6, 4),
        (2, 3, 2, 31, 18, 12),
    ],
)
def test_balance_family(a, b, index, prime, k_plus, k_minus):
    member = balance_family(a, b, index)
    assert (member.prime, member.k_plus, member.k_minus) == (prime, k_plus, k_minus)
    sp = member.splitting
    assert sp.group.orders == (prime,)
    assert is_tiling(sp)
    assert oracles.brute_is_tiling((prime,), k_plus, k_minus, sp.splitters)


def test_balance_family_preconditions():
    with pytest.raises(ValueError):
        balance_family(2, 4, 1)  # not in lowest terms
    with pytest.raises(ValueError):
        balance_family(3, 2, 1)  # ratio above 1
    with pytest.raises(ValueError):
        balance_family(1, 2, 0)  # 1-based index


def test_balance_family_past_the_prime_scan_cap_is_a_usage_error(monkeypatch, capsys):
    # a member over Z_p has p - 1 products, so the scan's limit caps p
    monkeypatch.setattr(splitting, "SCAN_MAX_PRODUCTS", 49)
    assert balance_family(1, 2, 6).prime == 43  # the last prime = 1 (mod 3) with p - 1 <= 49
    error = "no 7 primes = 1 (mod 3) have p - 1 <= 49, the product scan's limit"
    with pytest.raises(ValueError, match=re.escape(error)):
        balance_family(1, 2, 7)
    assert main(["construct", "balance", "--beta", "1/2", "--index", "100"]) == 2
    err = "error: no 100 primes = 1 (mod 3) have p - 1 <= 49, the product scan's limit\n"
    assert capsys.readouterr() == ("", err)


def one(p):
    """S = {1} in Z_p as an (orders, columns) factor."""
    return (p,), [(1,)]


@pytest.mark.parametrize("p,k_plus,k_minus", [(5, 3, 1), (7, 4, 2), (7, 5, 1)])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_lift_of_one_tiles(p, k_plus, k_minus, ell):
    values = constructions._lift([1], p, ell)
    assert values == sorted(values)
    assert oracles.brute_is_tiling((p**ell,), k_plus, k_minus, [(x,) for x in values])


def test_lift_of_the_fourth_power_residues_of_z149_tiles_z22201():
    # M = {-1, 1, 2, 3} is a transversal of the fourth powers' cosets in Z_149^*
    residues = sorted({pow(x, 4, 149) for x in range(1, 149)})
    assert len(residues) == 37
    assert oracles.brute_is_tiling((149,), 3, 1, [(x,) for x in residues])
    values = constructions._lift(residues, 149, 2)
    assert len(values) == 5550
    assert oracles.brute_is_tiling((22201,), 3, 1, [(x,) for x in values])


def lifted(p, ell):
    """The lift of S = {1} to Z_{p^ell} as an (orders, columns) factor."""
    return (p**ell,), [(x,) for x in constructions._lift([1], p, ell)]


@pytest.mark.parametrize(
    "factors,k_plus,k_minus",
    [
        ([one(5), lifted(5, 2)], 3, 1),
        ([lifted(5, 2), one(5)], 3, 1),
        ([one(7)] * 3, 4, 2),
        ([one(7)] * 3, 5, 1),
    ],
    ids=["z5xz25", "z25xz5", "z7^3-arms-4-2", "z7^3-arms-5-1"],
)
def test_product_of_tilings_tiles(factors, k_plus, k_minus):
    orders, columns = reduce(constructions._product, factors)
    assert oracles.brute_is_tiling(orders, k_plus, k_minus, columns)


@pytest.mark.parametrize(
    "factors,k_plus,k_minus",
    [
        ([((17,), [(1,), (13,)])] * 2, 3, 2),  # a packing of Z_17 that does not tile
        ([one(5), one(7)], 3, 1),  # {1} tiles Z_5 but only packs Z_7
        ([one(7), one(5)], 3, 1),
    ],
    ids=["z17-packing-squared", "z5-tiling-x-z7-packing", "z7-packing-x-z5-tiling"],
)
def test_product_with_a_packing_factor_packs_but_does_not_tile(factors, k_plus, k_minus):
    orders, columns = reduce(constructions._product, factors)
    assert oracles.brute_is_packing(orders, k_plus, k_minus, columns)
    assert not oracles.brute_is_tiling(orders, k_plus, k_minus, columns)
