"""Splitting constructions that tile the space with quasi-crosses.

Three families plus two combinators:

* cyclic_splitting   — recursive splitting of Z_{p^l} when k_plus + k_minus = p - 1
* field_splitting    — splitting of the additive group (Z_p)^l of GF(p^l), same
                       arm sums: the matrix extension of S = {1} in Z_p
* two_one_splitting  — splitting of Z_{4^l} for arms (2, 1)
* matrix_extension   — lift a splitting of Z_v to Z_v^k (multipliers must be
                       coprime to v; this is exactly what fails over Z_4)
* mixed_splitting    — matrix_extension applied to cyclic_splitting output
* balance_family     — for a target arm ratio a/b, scale (b, a) by (p-1)/(a+b)
                       for primes p = 1 (mod a+b); yields arbitrarily large
                       dimensions at a fixed ratio

Every constructor re-verifies its output with one scan of the product
table, which decides both the packing and, by the counting condition,
perfectness; a construction that fails its own verification is an
internal fault, not a user error.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .groups import Element, FiniteAbelianGroup, integers, is_prime
from .splitting import (
    MultiplierSet,
    Splitting,
    make_cyclic_splitting,
    verify_packing,
)

_PRIME_SCAN_CAP = 10_000_000


def _check_arms(p: int, ell: int, k_plus: int, k_minus: int) -> tuple[int, int, MultiplierSet]:
    """p, ell and the arms as the ints they were checked as."""
    p, ell = integers((p, ell), "p and ell")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    arms = MultiplierSet(k_plus, k_minus)
    if len(arms) != p - 1:
        raise ValueError(
            f"k_plus + k_minus must equal p - 1, got {arms.k_plus}+{arms.k_minus} != {p}-1"
        )
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return p, ell, arms


def _verified(sp: Splitting) -> Splitting:
    check = verify_packing(sp)
    if not check.ok:
        raise RuntimeError(
            f"construction produced a non-packing: {check.collision.describe()}"
        )
    # a packing tiles iff its crosses fill the group
    if sp.group.order != sp.shape.volume:
        raise RuntimeError("construction produced a packing that is not a tiling")
    return sp


def cyclic_splitting(p: int, ell: int, k_plus: int, k_minus: int) -> Splitting:
    """Splitter set of size (p^l - 1)/(p - 1) tiling Z_{p^l}.

    Built recursively: S_1 = {1}; S_{i+1} = p*S_i together with every
    residue congruent to 1 mod p.  Output sorted ascending.
    """
    p, ell, arms = _check_arms(p, ell, k_plus, k_minus)
    level = [1]
    for i in range(1, ell):
        modulus = p ** (i + 1)
        level = [p * s for s in level] + list(range(1, modulus, p))
        assert len(level) == (modulus - 1) // (p - 1)  # |S_{i+1}| = |S_i| + p^i
    splitters = sorted(s % p**ell for s in level)
    assert len(splitters) == (p**ell - 1) // (p - 1)
    sp = make_cyclic_splitting(p**ell, arms.k_plus, arms.k_minus, splitters)
    return _verified(sp)


def field_splitting(p: int, ell: int, k_plus: int, k_minus: int) -> Splitting:
    """Splitter set tiling the additive group (Z_p)^l of GF(p^l): the
    matrix extension of the trivial splitting S = {1} of Z_p, i.e. every
    vector whose topmost nonzero entry is 1.  Output sorted
    lexicographically.  The base {1} tiles Z_p by counting, so only the
    lift is scanned."""
    p, ell, arms = _check_arms(p, ell, k_plus, k_minus)
    columns = sorted(_lifted_columns((1,), p, ell))
    sp = Splitting(FiniteAbelianGroup((p,) * ell), arms, tuple(columns))
    return _verified(sp)


def two_one_splitting(ell: int) -> Splitting:
    """Splitter set of size (4^l - 1)/3 tiling Z_{4^l} for arms (2, 1).

    Recursive: S_1 = {1}; S_{i+1} = 4*S_i together with the odd residues s
    of Z_{4^{i+1}} satisfying 2s < 4^{i+1}.  The odd-s rule is what makes
    S' and -S' partition the odd residues and gives the size recurrence
    |S_{i+1}| = |S_i| + 4^i.
    """
    [ell] = integers([ell], "ell")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    level = [1]
    for i in range(1, ell):
        modulus = 4 ** (i + 1)
        fresh = [s for s in range(1, modulus, 2) if 2 * s < modulus]
        level = [4 * s for s in level] + fresh
        assert len(fresh) == 4**i
    splitters = sorted(s % 4**ell for s in level)
    assert len(splitters) == (4**ell - 1) // 3
    sp = make_cyclic_splitting(4**ell, 2, 1, splitters)
    return _verified(sp)


def _lifted_columns(values, v: int, k: int) -> list[Element]:
    """Columns of Z_v^k whose topmost nonzero entry is one of `values`,
    ordered by (pivot position, order in `values`, lower entries)."""
    return [
        (0,) * pivot + (s,) + lower
        for pivot in range(k)
        for s in values
        for lower in itertools.product(range(v), repeat=k - 1 - pivot)
    ]


def matrix_extension(base: Splitting, k: int) -> Splitting:
    """Lift a splitting of Z_v to Z_v^k: the new splitter set consists of
    all columns whose topmost nonzero entry comes from the base splitter
    set, with arbitrary entries below it.

    Requires every multiplier coprime to v (otherwise two columns can
    collide under a non-unit multiplier and the lift is not even a
    packing) and a base that is a packing.  Columns are ordered by
    (pivot position, base splitter order, lower entries).  The lift
    packs exactly when the base does, and then, by counting, tiles
    exactly when the base does, so only the lift is scanned.
    """
    if not base.group.is_cyclic_form:
        raise ValueError("matrix_extension needs a base splitting of a cyclic group")
    [k] = integers([k], "k")
    if k < 1:
        raise ValueError("k must be >= 1")
    v = base.group.orders[0]
    for m in base.multipliers:
        if gcd(m, v) != 1:
            raise ValueError(
                f"multiplier {m} is not coprime to the group order {v}; "
                "the matrix extension does not produce a packing"
            )
    if k == 1:
        return base
    columns = _lifted_columns(base.splitter_values(), v, k)
    sp = Splitting(FiniteAbelianGroup((v,) * k), base.multipliers, tuple(columns))
    if not verify_packing(sp).ok:
        raise ValueError(f"base {list(base.splitter_values())} of Z_{v} is not a packing")
    return sp


def mixed_splitting(p: int, ell: int, k_plus: int, k_minus: int, k: int) -> Splitting:
    """Matrix extension of the cyclic construction: tiles (Z_{p^l})^k.

    Always applicable: the multipliers lie strictly between -p and p, so
    they are coprime to p^l."""
    return matrix_extension(cyclic_splitting(p, ell, k_plus, k_minus), k)


@dataclass(frozen=True)
class BalanceFamilyMember:
    """One member of the fixed-arm-ratio family: the prime used, the scaled
    arms, and the (dimension 1) splitting of Z_p it comes from."""

    numerator: int
    denominator: int
    index: int
    prime: int
    k_plus: int
    k_minus: int
    splitting: Splitting


def balance_family(numerator: int, denominator: int, index: int) -> BalanceFamilyMember:
    """index-th member (1-based) of the infinite family of tilings with
    arm ratio k_minus/k_plus = numerator/denominator.

    Scans primes p = 1 (mod numerator+denominator) in increasing order by
    direct primality testing; the scaling factor t = (p-1)/(a+b) gives
    arms (t*denominator, t*numerator) and Z_p splits with S = {1}.
    """
    a, b, index = integers((numerator, denominator, index), "the arm ratio and index")
    if not 0 < a < b:
        raise ValueError(f"arm ratio must satisfy 0 < a/b < 1, got {a}/{b}")
    if gcd(a, b) != 1:
        raise ValueError(f"arm ratio {a}/{b} must be in lowest terms")
    if index < 1:
        raise ValueError("index is 1-based")
    d = a + b
    seen = 0
    p = d + 1
    while p <= _PRIME_SCAN_CAP:
        if p % d == 1 and is_prime(p):
            seen += 1
            if seen == index:
                t = (p - 1) // d
                sp = cyclic_splitting(p, 1, t * b, t * a)
                return BalanceFamilyMember(a, b, index, p, t * b, t * a, sp)
        p += 1
    raise RuntimeError(
        f"no {index} primes = 1 (mod {d}) found below {_PRIME_SCAN_CAP}"
    )
