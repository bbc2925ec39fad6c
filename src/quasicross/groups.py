"""Finite abelian groups as direct products of cyclic groups.

Elements are plain tuples of residues, one per cyclic factor, always
reduced into range.  The additive group of GF(p^l) is (Z_p)^l; no field
multiplication is needed anywhere, so none is built.

All arithmetic is exact; nothing here silently wraps around.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm, prod
from operator import index

Element = tuple[int, ...]


def integers(values, what: str) -> list[int]:
    """`values` as a list of ints; a float or any other non-integer
    raises ValueError where int() would silently truncate it."""
    try:
        return list(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def is_prime(n: int) -> bool:
    """Primality by the trial division of `prime_factors`, stopped at the
    first factor found."""
    return n >= 2 and next(_trial_division(n, n)) == (n, n)


def prime_factors(n: int, limit: int | None = None) -> dict[int, int]:
    """Each prime factor p of n >= 1, ascending, mapped to p^a, its full
    power in n; with `limit`, factors above it go untried, and a cofactor
    c > 1 left comes last as one prime, mapped to c."""
    if n < 1:
        raise ValueError("prime_factors needs n >= 1")
    return dict(_trial_division(n, n if limit is None else limit))


def _trial_division(n: int, limit: int):
    """The distinct prime factors p of n >= 1 up to `limit`, ascending, each
    yielded as (p, p^a) once its full power is divided out, then (c, c)
    for the cofactor c left if it is > 1."""
    f = 2
    while f * f <= n and f <= limit:
        if n % f == 0:
            power = 1
            while n % f == 0:
                n, power = n // f, power * f
            yield f, power
        f += 1 if f == 2 else 2
    if n > 1:
        yield n, n


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product Z_d1 x ... x Z_dk, each order dj >= 2."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(integers(self.orders, "cyclic orders"))
        if not orders:
            raise ValueError("group needs at least one cyclic factor")
        if any(d < 2 for d in orders):
            raise ValueError("every cyclic order must be >= 2")
        object.__setattr__(self, "orders", orders)

    @property
    def order(self) -> int:
        """|G|, the number of elements."""
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        """Smallest e > 0 with e*g = 0 for every g."""
        return lcm(*self.orders)

    @property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    @property
    def is_cyclic_form(self) -> bool:
        """True when represented with a single cyclic factor."""
        return len(self.orders) == 1

    def elements_of(self, batch) -> tuple[Element, ...]:
        """Validate and reduce residue sequences into this group, one
        coordinate column at a time for the whole batch."""
        try:
            rows = list(map(tuple, batch))
        except TypeError:
            raise ValueError("element residues must be integers") from None
        k = len(self.orders)
        for row in rows:
            if len(row) != k:
                raise ValueError(f"element has {len(row)} coordinates, group has {k}")
        columns = [
            [r % d for r in integers(col, "element residues")]
            for col, d in zip(zip(*rows), self.orders)
        ]
        return tuple(zip(*columns))

    def add(self, a: Element, b: Element) -> Element:
        if len(a) != len(self.orders) or len(b) != len(self.orders):
            raise ValueError("element dimension mismatch")
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def scalar_mul(self, m: int, s: Element) -> Element:
        """m*s for any integer m, negative included."""
        if len(s) != len(self.orders):
            raise ValueError("element dimension mismatch")
        return tuple((m * x) % d for x, d in zip(s, self.orders))

    def elements(self):
        """Iterate all elements in lexicographic order (use on small groups)."""
        return (tuple(t) for t in itertools.product(*(range(d) for d in self.orders)))

    def __str__(self) -> str:
        return " x ".join(f"Z{d}" for d in self.orders)


def cyclic_group(q: int) -> FiniteAbelianGroup:
    return FiniteAbelianGroup((q,))
