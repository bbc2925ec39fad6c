"""Splitting constructions that tile the space with quasi-crosses.

When k_plus + k_minus = p - 1, S = {1} splits Z_p, and two moves grow it
(Stein & Szabó, "Algebra and Tiling", 1994): `_lift` to Z_{p^l} gives
`cyclic_splitting`, and the `_product` of copies gives `field_splitting`
over (Z_p)^l, the additive group of GF(p^l), and `matrix_extension` over
Z_v^k, which `mixed_splitting` applies to the cyclic one.
`two_one_splitting` tiles Z_{4^l} for arms (2, 1), and `balance_family`
gives arbitrarily large dimensions at any fixed arm ratio below 1.

Each constructor counts its products from its arguments and refuses a
scan over the limit before it builds.  It re-verifies its output with one
scan of the product table, deciding the packing and whether it tiles;
failing that is an internal fault, not a user error.  The moves never scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from . import splitting
from .groups import FiniteAbelianGroup, integers, is_prime
from .splitting import (
    MultiplierSet,
    Splitting,
    check_scan_size,
    make_cyclic_splitting,
    verify_packing,
)


def _check_arms(p: int, ell: int, k_plus: int, k_minus: int) -> tuple[int, int, MultiplierSet]:
    """p, ell and the arms as the ints they were checked as."""
    p, ell = integers((p, ell), "p and ell")
    arms = MultiplierSet(k_plus, k_minus)
    if arms.k_plus + arms.k_minus != p - 1:
        raise ValueError(
            f"k_plus + k_minus must equal p - 1, got {arms.k_plus}+{arms.k_minus} != {p}-1"
        )
    if ell < 1:
        raise ValueError("ell must be >= 1")
    check_scan_size(arms.k_plus + arms.k_minus, p, ell)  # a tiling of order p^ell: bounds p before trial division
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p, ell, arms


def _verified(sp: Splitting) -> Splitting:
    check = verify_packing(sp)
    if not check.ok:
        raise RuntimeError(
            f"construction produced a non-packing: {check.collision.describe()}"
        )
    if not check.tiling:
        raise RuntimeError("construction produced a packing that is not a tiling")
    return sp


def _lift(first: list[int], p: int, ell: int) -> list[int]:
    """S_1 = first, a splitting of Z_p (p prime), lifted to Z_{p^ell}:
    S_{i+1} = p*S_i together with each x with x mod p in S_1, sorted.  If
    every multiplier is a unit mod p, S_ell splits Z_{p^ell}, by induction:
    a unit x is m*x' for the one (m, s) with m*s = x (mod p) and then the
    one x' = x/m; a non-unit p*y is m*(p*s) for the one m*s = y in Z_{p^i}."""
    level = first
    for i in range(1, ell):
        level = [p * s for s in level] + [x for s in first for x in range(s, p ** (i + 1), p)]
    return sorted(level)


def _product(a, b):
    """Columns of A x B from (orders, columns) pairs: each (s, x), s a
    column of A and x in B (lexicographic), then each (0, t), t of B.  If
    both pack and every multiplier is a unit of B, this packs: m*s != 0
    fixes (m, s), and then the unit m fixes x; (0, m*t) fixes (m, t).  It
    covers |S_A||M||B| + |S_B||M| + 1 <= |A||B| cells, so it tiles
    exactly when both factors tile."""
    (orders_a, columns_a), (orders_b, columns_b) = a, b
    rest = list(FiniteAbelianGroup(orders_b).elements())
    zero = (0,) * len(orders_a)
    columns = [s + x for s in columns_a for x in rest] + [zero + t for t in columns_b]
    return orders_a + orders_b, columns


def cyclic_splitting(p: int, ell: int, k_plus: int, k_minus: int) -> Splitting:
    """Splitter set of size (p^l - 1)/(p - 1) tiling Z_{p^l}: the lift of
    S = {1} in Z_p.  Output sorted ascending."""
    p, ell, arms = _check_arms(p, ell, k_plus, k_minus)
    return _verified(make_cyclic_splitting(p**ell, arms.k_plus, arms.k_minus, _lift([1], p, ell)))


def field_splitting(p: int, ell: int, k_plus: int, k_minus: int) -> Splitting:
    """Splitter set tiling the additive group (Z_p)^l of GF(p^l): the
    product of l copies of S = {1} in Z_p, i.e. every vector whose topmost
    nonzero entry is 1.  Output sorted lexicographically.  The base {1}
    tiles Z_p by counting, so only the product is scanned."""
    p, ell, arms = _check_arms(p, ell, k_plus, k_minus)
    orders, columns = reduce(_product, [((p,), [(1,)])] * ell)
    sp = Splitting(FiniteAbelianGroup(orders), arms, tuple(sorted(columns)))
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
    check_scan_size(3, 4, ell)
    level = [1]
    for i in range(1, ell):
        modulus = 4 ** (i + 1)
        level = [4 * s for s in level] + [s for s in range(1, modulus, 2) if 2 * s < modulus]
    sp = make_cyclic_splitting(4**ell, 2, 1, sorted(level))
    return _verified(sp)


def matrix_extension(base: Splitting, k: int) -> Splitting:
    """Lift a splitting of Z_v to Z_v^k: the product of k copies of the
    base, i.e. the columns whose topmost nonzero entry is a base splitter,
    ordered by (pivot position, base splitter order, lower entries).

    Requires every multiplier coprime to v (otherwise two columns can
    collide under a non-unit multiplier and the lift is not even a
    packing) and a packing base.  By `_product` the lift packs, and then
    tiles, exactly when the base does, so only the lift is scanned.
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
    sp = base
    if k > 1:  # k copies hold n*(v^k - 1)/(v - 1) splitters
        check_scan_size(base.n * (base.multipliers.k_plus + base.multipliers.k_minus), v, k)
        orders, columns = reduce(_product, [(base.group.orders, base.splitters)] * k)
        sp = Splitting(FiniteAbelianGroup(orders), base.multipliers, tuple(columns))
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

    prime: int
    k_plus: int
    k_minus: int
    splitting: Splitting


def balance_family(numerator: int, denominator: int, index: int) -> BalanceFamilyMember:
    """index-th member (1-based) of the infinite family of tilings with
    arm ratio k_minus/k_plus = numerator/denominator.

    Scans primes p = 1 (mod numerator+denominator) in increasing order by
    direct primality testing; the scaling factor t = (p-1)/(a+b) gives
    arms (t*denominator, t*numerator) and Z_p splits with S = {1}.  Its
    p - 1 products pass the scan only for p <= SCAN_MAX_PRODUCTS + 1.
    The scan has checked all that `cyclic_splitting(p, 1, ...)` would.
    """
    a, b, index = integers((numerator, denominator, index), "the arm ratio and index")
    if not 0 < a < b:
        raise ValueError(f"arm ratio must satisfy 0 < a/b < 1, got {a}/{b}")
    if gcd(a, b) != 1:
        raise ValueError(f"arm ratio {a}/{b} must be in lowest terms")
    if index < 1:
        raise ValueError("index is 1-based")
    d = a + b
    seen, limit = 0, splitting.SCAN_MAX_PRODUCTS
    for p in range(d + 1, limit + 2, d):
        if is_prime(p):
            seen += 1
            if seen == index:
                t = (p - 1) // d
                sp = _verified(make_cyclic_splitting(p, t * b, t * a, [1]))
                return BalanceFamilyMember(p, t * b, t * a, sp)
    raise ValueError(
        f"no {index} primes = 1 (mod {d}) have p - 1 <= {limit}, the product scan's limit"
    )
