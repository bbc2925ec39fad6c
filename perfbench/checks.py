"""Output checkers for the benchmark, written from the paper's
definitions with raw modular arithmetic.

Nothing here imports `quasicross`: every verdict the program reports is
recomputed from first principles, so agreement between the two is
evidence and not an echo.  Each checker raises `CheckError` with a
reason when an output is wrong and returns quietly otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod


class CheckError(Exception):
    """An output of the program disagrees with the independent check."""


def multipliers(k_plus: int, k_minus: int) -> list[int]:
    return [m for m in range(-k_minus, k_plus + 1) if m != 0]


def syndrome(orders, splitters, word) -> tuple[int, ...]:
    """sum_i x_i * s_i, reduced modulo each cyclic order."""
    if len(word) != len(splitters):
        raise CheckError(f"word has {len(word)} entries, code has n={len(splitters)}")
    return tuple(
        sum(x * s[j] for x, s in zip(word, splitters)) % d for j, d in enumerate(orders)
    )


def products(orders, k_plus, k_minus, splitters) -> dict[tuple[int, ...], tuple[int, int]] | None:
    """Map m*s_i -> (i, m) over all multipliers and splitters, or None
    when two products coincide or one of them is zero."""
    zero = (0,) * len(orders)
    table = {}
    for i, s in enumerate(splitters):
        for m in multipliers(k_plus, k_minus):
            p = tuple((m * x) % d for x, d in zip(s, orders))
            if p == zero or p in table:
                return None
            table[p] = (i, m)
    return table


def check_tiling(orders, k_plus, k_minus, splitters) -> None:
    """Brute-force product check: every m*s distinct and nonzero, and
    together with 0 they exhaust the group."""
    if len(set(map(tuple, splitters))) != len(splitters):
        raise CheckError("splitter set has a repeated element")
    table = products(orders, k_plus, k_minus, splitters)
    if table is None:
        raise CheckError(f"splitters {splitters} over {orders}: products collide or vanish")
    if len(table) + 1 != prod(orders):
        raise CheckError(
            f"splitters cover {len(table) + 1} of {prod(orders)} elements: not a tiling"
        )


def is_packing(orders, k_plus, k_minus, splitters) -> bool:
    return products(orders, k_plus, k_minus, splitters) is not None


def unit_orbit_min(q: int, values) -> tuple[int, ...]:
    """Smallest sorted tuple among all unit multiples u*S of S in Z_q."""
    units = [u for u in range(1, q) if gcd(u, q) == 1]
    return min(tuple(sorted(u * s % q for s in values)) for u in units)


def check_canonical(q: int, values) -> None:
    """A reported representative is the minimum of its unit orbit, and
    so contains 1."""
    values = tuple(values)
    if values != tuple(sorted(values)):
        raise CheckError(f"representative {values} is not sorted")
    best = unit_orbit_min(q, values)
    if values != best:
        raise CheckError(f"representative {values} over Z_{q} is not its orbit minimum {best}")
    if 1 not in values:
        raise CheckError(f"representative {values} over Z_{q} does not contain 1")


def element_order(orders, s) -> int:
    return lcm(*(d // gcd(d, x) for x, d in zip(s, orders)))


def check_kernel_basis(orders, splitters, basis, index: int = 1) -> None:
    """Every row lies in the kernel of x -> sum x_i s_i, the basis is
    lower-triangular with a positive diagonal, and its determinant (the
    diagonal product) is |G| / index, the order of the subgroup S
    generates."""
    n = len(splitters)
    if len(basis) != n or any(len(row) != n for row in basis):
        raise CheckError(f"basis is not {n}x{n}")
    zero = (0,) * len(orders)
    for i, row in enumerate(basis):
        if syndrome(orders, splitters, row) != zero:
            raise CheckError(f"basis row {i} is not in the kernel")
        if any(row[j] for j in range(i + 1, n)):
            raise CheckError(f"basis row {i} has an entry right of the diagonal")
        if row[i] <= 0:
            raise CheckError(f"basis row {i} has a non-positive diagonal entry")
    det = prod(row[i] for i, row in enumerate(basis))
    if det * index != prod(orders):
        raise CheckError(f"basis determinant {det} != |G|/{index} = {prod(orders) // index}")


def dimension_ruled_out(k_plus: int, k_minus: int, n: int) -> bool:
    """The paper's dimension inequality: a tiling needs
    (2 k+ (k- + 1) - k-^2) / (k+ + k-) <= n, evaluated exactly."""
    return Fraction(2 * k_plus * (k_minus + 1) - k_minus**2, k_plus + k_minus) > n


def group_rules_ruled_out(k_plus: int, k_minus: int, q: int) -> bool:
    """Necessary conditions on a cyclic group order: counting, and for
    consecutive arms (k, k-1) a common factor of k and q, and for
    (2^w, 2^w - 1) an order that is a power of 2^(w+1)."""
    span = k_plus + k_minus
    if (q - 1) % span:
        return True
    if k_minus == k_plus - 1:
        if gcd(k_plus, q) == 1:
            return True
        if k_plus & (k_plus - 1) == 0:
            base = 2 * k_plus
            while q % base == 0:
                q //= base
            if q != 1:
                return True
    return False


def instance_ruled_out(k_plus: int, k_minus: int, q: int) -> bool:
    """Every rule the program applies to a grid instance, recomputed."""
    if group_rules_ruled_out(k_plus, k_minus, q):
        return True
    n = (q - 1) // (k_plus + k_minus)
    return n >= 2 and (dimension_ruled_out(k_plus, k_minus, n) or k_minus > n - 1)


def exhaustive_classes(q: int, k_plus: int, k_minus: int) -> set[tuple[int, ...]]:
    """Unit-orbit classes of all perfect splittings of Z_q, by a plain
    exact-cover search that branches on the uncovered residue with the
    fewest candidate blocks."""
    ms = multipliers(k_plus, k_minus)
    if (q - 1) % len(ms):
        return set()
    blocks = {}
    for s in range(1, q):
        block = frozenset(m * s % q for m in ms)
        if len(block) == len(ms) and 0 not in block:
            blocks[s] = block
    found: set[tuple[int, ...]] = set()

    def extend(uncovered: frozenset, chosen: list[int]) -> None:
        if not uncovered:
            found.add(unit_orbit_min(q, chosen))
            return
        options = {
            r: [s for s, b in blocks.items() if r in b and b <= uncovered] for r in uncovered
        }
        r = min(options, key=lambda x: (len(options[x]), x))
        for s in options[r]:
            extend(uncovered - blocks[s], chosen + [s])

    extend(frozenset(range(1, q)), [])
    return found


def cyclic_construction(p: int, ell: int) -> list[int]:
    """The paper's recursive splitter set of Z_{p^l}: S_1 = {1},
    S_{i+1} = p S_i together with every residue = 1 (mod p)."""
    level = [1]
    for i in range(2, ell + 1):
        level = [p * s for s in level] + list(range(1, p**i, p))
    return sorted(level)


def two_one_construction(ell: int) -> list[int]:
    """Splitter set of Z_{4^l} for arms (2, 1): S_1 = {1}, S_{i+1} =
    4 S_i together with the odd s < 4^{i+1} / 2."""
    level = [1]
    for i in range(2, ell + 1):
        level = [4 * s for s in level] + [s for s in range(1, 4**i // 2, 2)]
    return sorted(level)


def check_lattice_points_2d(q: int, s1: int, s2: int, window: int, count: int) -> None:
    """The number of kernel points (x, y), |x|, |y| < window, with
    x s1 + y s2 = 0 (mod q), counted by brute force."""
    expect = sum(
        1
        for x in range(-window + 1, window)
        for y in range(-window + 1, window)
        if (x * s1 + y * s2) % q == 0
    )
    if count != expect:
        raise CheckError(f"plot shows {count} lattice points, expected {expect}")


def check_systematic(info, word, k: int) -> None:
    """`info` is what remains of `word` after deleting k positions."""
    if len(word) != len(info) + k:
        raise CheckError(f"codeword has {len(word)} entries, expected {len(info) + k}")
    it = iter(word)
    if not all(any(x == d for x in it) for d in info):
        raise CheckError("information digits do not appear in order in the codeword")


def singularity(order: int, k_plus: int, k_minus: int) -> str:
    """non-singular: every multiplier is a unit mod |G|; purely-singular:
    every prime of |G| divides some multiplier; singular otherwise."""
    ms = multipliers(k_plus, k_minus)
    if all(gcd(m, order) == 1 for m in ms):
        return "non-singular"
    primes = [p for p in range(2, order + 1) if order % p == 0 and all(p % f for f in range(2, p))]
    if all(any(m % p == 0 for m in ms) for p in primes):
        return "purely-singular"
    return "singular"


def balance_prime(a: int, b: int, index: int) -> int:
    """The index-th prime p = 1 (mod a + b)."""
    p, seen = 1, 0
    while seen < index:
        p += a + b
        if all(p % f for f in range(2, int(p**0.5) + 1)):
            seen += 1
    return p
