"""Independent brute-force oracles for the test suite.

Everything here re-derives results from first principles with raw
modular arithmetic and rational elimination, sharing no code path with
the package under test, so agreement is meaningful.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, prod


def multiplier_list(k_plus: int, k_minus: int) -> list[int]:
    return list(range(-k_minus, 0)) + list(range(1, k_plus + 1))


def brute_products(orders, k_plus, k_minus, splitters):
    """Map of every product m*s -> (m, s), or None on collision/zero."""
    table = {}
    for s in splitters:
        for m in multiplier_list(k_plus, k_minus):
            prod = tuple((m * x) % d for x, d in zip(s, orders))
            if all(v == 0 for v in prod) or prod in table:
                return None
            table[prod] = (m, s)
    return table


def brute_is_packing(orders, k_plus, k_minus, splitters) -> bool:
    return brute_products(orders, k_plus, k_minus, splitters) is not None


def brute_is_tiling(orders, k_plus, k_minus, splitters) -> bool:
    table = brute_products(orders, k_plus, k_minus, splitters)
    if table is None:
        return False
    size = 1
    for d in orders:
        size *= d
    return len(table) == size - 1


def count_divisible_by(k_plus: int, k_minus: int, p: int) -> int:
    """How many of the multipliers -k_minus..-1, 1..k_plus the prime p
    divides."""
    return k_plus // p + k_minus // p


@cache
def brute_primes(n: int) -> tuple[int, ...]:
    """The primes dividing n, each p <= n tested by trial division."""
    return tuple(p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p)))


@cache
def smallest_prime_factors(n: int) -> tuple[int, ...]:
    """The smallest prime factor of each of 0..n (0 and 1 map to
    themselves), by a sieve of Eratosthenes."""
    smallest = list(range(n + 1))
    for p in range(2, n + 1):
        if smallest[p] == p:
            for multiple in range(p * p, n + 1, p):
                smallest[multiple] = min(smallest[multiple], p)
    return tuple(smallest)


def classify_singularity(orders, k_plus: int, k_minus: int) -> str:
    """How many primes of |G| divide some multiplier: none (non-singular),
    all (purely singular) or some (singular), with the primes found by
    brute force and the multipliers listed out."""
    multipliers = multiplier_list(k_plus, k_minus)
    hits = [any(m % p == 0 for m in multipliers) for p in brute_primes(prod(orders))]
    return "non-singular" if not any(hits) else "purely-singular" if all(hits) else "singular"


def check_singular_prime_bound(orders, k_plus, k_minus, splitters) -> bool:
    """For a purely-singular perfect splitting, every prime divisor p of
    |G| must divide at least |M|/p^2 of the multipliers.

    A False return on a valid input signals a bug upstream, not a
    property of the input.  Raises if the splitting is not a tiling, or if
    some prime of |G| divides no multiplier (not purely singular)."""
    if not brute_is_tiling(orders, k_plus, k_minus, splitters):
        raise ValueError("the prime bound needs a perfect splitting")
    primes = brute_primes(prod(orders))
    counts = [count_divisible_by(k_plus, k_minus, p) for p in primes]
    if 0 in counts:
        raise ValueError("the prime bound needs a purely-singular splitting")
    return all(c * p * p >= k_plus + k_minus for c, p in zip(counts, primes))


def brute_element_order(orders, element) -> int:
    """Smallest t > 0 with t*element == 0, by direct iteration."""
    t = 1
    while True:
        if all((t * x) % d == 0 for x, d in zip(element, orders)):
            return t
        t += 1


def fraction_det(rows) -> Fraction:
    """Determinant by rational Gaussian elimination."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def in_row_lattice(basis, vector) -> bool:
    """Membership of an integer vector in the row lattice of a full-rank
    square basis: solve over the rationals, accept iff the coefficients
    are integers."""
    n = len(basis)
    m = [[Fraction(basis[r][c]) for r in range(n)] for c in range(n)]  # transpose
    rhs = [Fraction(v) for v in vector]
    # Gaussian elimination with partial pivoting over Q
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("oracle basis is singular")
        m[c], m[piv] = m[piv], m[c]
        rhs[c], rhs[piv] = rhs[piv], rhs[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        rhs[c] *= inv
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
                rhs[r] -= f * rhs[c]
    return all(coeff.denominator == 1 for coeff in rhs)


def span_size(orders, splitters) -> int:
    """|<S>|, by closing {0} under adding each splitter."""
    seen = {(0,) * len(orders)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for s in splitters:
            y = tuple((a + b) % d for a, b, d in zip(x, s, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def is_lower_hnf(basis) -> bool:
    """Whether the rows of a square basis are in lower-triangular HNF:
    positive diagonal, zeros above it, each entry below a pivot in
    [0, pivot)."""
    return all(
        row[i] > 0 and not any(row[i + 1 :]) and all(0 <= x < basis[j][j] for j, x in enumerate(row[:i]))
        for i, row in enumerate(basis)
    )


def is_kernel_hnf(orders, splitters, basis) -> bool:
    """Whether `basis` is the lower-triangular HNF of the kernel of
    x -> sum x_i s_i: every row maps to 0; the rows are in HNF (positive
    diagonal, zeros above it, each entry below a pivot in [0, pivot));
    and the diagonal product equals |<S>|, the kernel's index in Z^n.  A
    full-rank sublattice of the kernel with the kernel's index is the
    kernel, and a lattice has one HNF."""
    n = len(splitters)
    if len(basis) != n or any(len(row) != n for row in basis):
        return False
    for row in basis:
        if any(sum(x * s[j] for x, s in zip(row, splitters)) % d for j, d in enumerate(orders)):
            return False
    return is_lower_hnf(basis) and prod(basis[i][i] for i in range(n)) == span_size(orders, splitters)


def first_unit_pivots(splitters, modulus):
    """The lexicographically first k-subset of column indices whose k x k
    system (row r holds coordinate r of each chosen splitter) has a
    determinant that is a unit mod `modulus`, trying every subset in
    order; None when no subset qualifies."""
    k = len(splitters[0])
    for subset in combinations(range(len(splitters)), k):
        det = fraction_det([[splitters[i][r] for i in subset] for r in range(k)])
        if gcd(int(det), modulus) == 1:
            return subset
    return None


def product_sets(k_plus: int, k_minus: int, q: int) -> dict[int, set[int]]:
    """Each splitter s of Z_q whose products m*s are distinct and nonzero,
    ascending, mapped to the set of those products."""
    ms = multiplier_list(k_plus, k_minus)
    out = {}
    for s in range(1, q):
        prods = {(m * s) % q for m in ms}
        if 0 not in prods and len(prods) == len(ms):
            out[s] = prods
    return out


def layer_witness(q: int, k_plus: int, k_minus: int):
    """The first nonempty set P of the primes p | q with p <= k_plus
    (smaller sets first, each ascending) for which |M_P|, the multipliers
    divisible by no prime in P, fails to divide the size of some class
    {x in [0, q) : no p in P divides x, gcd(x, u) = d}, u the part of q
    made of its primes above k_plus, as (P, the smallest class size,
    |M_P|); None when there is none.  Every class is counted residue by
    residue."""
    small = [p for p in range(2, k_plus + 1) if q % p == 0 and all(p % f for f in range(2, p))]
    u = q
    for p in small:
        while u % p == 0:
            u //= p
    for size in range(1, len(small) + 1):
        for primes in combinations(small, size):
            kept = sum(1 for m in multiplier_list(k_plus, k_minus) if all(m % p for p in primes))
            classes = Counter(gcd(x, u) for x in range(q) if all(x % p for p in primes))
            if any(c % kept for c in classes.values()):
                return primes, min(classes.values()), kept
    return None


def cyclotomic_witness(q: int, k_plus: int, k_minus: int):
    """For q whose primes all exceed k_plus, the first prime p | q
    (ascending) whose product of r over the balanced prime powers s = r^k
    dividing p - 1 is not k_plus + k_minus, as (p, that product), else
    None; None for any other q.  s is balanced when the discrete logs of
    the multipliers have equal counts mod s across each class mod s/r.
    The logs come from a table of the powers of a primitive root found by
    brute force."""
    primes = [p for p in range(2, q + 1) if q % p == 0 and all(p % f for f in range(2, p))]
    if primes[0] <= k_plus:
        return None
    for p in primes:
        root = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
        log = {pow(root, e, p): e for e in range(p - 1)}
        logs = [log[m % p] for m in multiplier_list(k_plus, k_minus)]
        product = 1
        for s in range(2, p):
            r = next(f for f in range(2, s + 1) if s % f == 0)  # the smallest prime of s
            rest = s
            while rest % r == 0:
                rest //= r
            if rest != 1 or (p - 1) % s:
                continue  # s is not a power of r, or does not divide p - 1
            counts = Counter(a % s for a in logs)
            if all(counts[i] == counts[i + t * (s // r)] for i in range(s // r) for t in range(r)):
                product *= r
        if product != k_plus + k_minus:
            return p, product
    return None


def reference_search(k_plus: int, k_minus: int, q: int, find_all: bool = True):
    """Every splitter set of Z_q for the arms, sorted, in the order found
    (only the first with find_all=False): an exact-cover search that
    branches on the smallest uncovered residue and fixes no splitter."""
    if (q - 1) % (k_plus + k_minus) != 0:
        return []
    blocks: dict[int, int] = {}
    candidates: list[list[int]] = [[] for _ in range(q)]
    for s, prods in product_sets(k_plus, k_minus, q).items():
        blocks[s] = sum(1 << p for p in prods)
        for p in prods:
            candidates[p].append(s)
    full = (1 << q) - 2  # residues 1..q-1
    solutions: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def dfs(covered: int) -> bool:
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            return not find_all
        rem = (~covered) & full
        e = (rem & -rem).bit_length() - 1
        for s in candidates[e]:
            b = blocks[s]
            if b & covered:
                continue
            chosen.append(s)
            stop = dfs(covered | b)
            chosen.pop()
            if stop:
                return True
        return False

    dfs(0)
    return solutions


def orbit_min(q: int, values) -> tuple[int, ...]:
    """The smallest sorted tuple u*values mod q over the units u of Z_q."""
    return min(tuple(sorted(u * s % q for s in values)) for u in range(1, q) if gcd(u, q) == 1)
