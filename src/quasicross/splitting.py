"""Group splittings: the algebraic form of a lattice packing by quasi-crosses.

A splitting is a finite abelian group G, the multiplier set
M = {-k_minus, ..., -1, 1, ..., k_plus}, and an ordered splitter set
S = (s_1, ..., s_n) in G.  S doubles as the parity-check matrix of the
resulting code: the lattice is {x : sum x_i s_i = 0 in G}.

`verify_packing` checks the defining property (all products m*s distinct
and nonzero) and reports the first collision when it fails;
`is_tiling` decides perfectness by the counting condition
|G| = n*(k_plus + k_minus) + 1.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .groups import Element, FiniteAbelianGroup, cyclic_group, integers, prime_factors


@dataclass(frozen=True)
class MultiplierSet:
    """The nonzero integers in [-k_minus, k_plus]."""

    k_plus: int
    k_minus: int

    def __post_init__(self) -> None:
        k_plus, k_minus = integers((self.k_plus, self.k_minus), "k_plus and k_minus")
        if not 0 < k_minus < k_plus:
            raise ValueError(f"need 0 < k_minus < k_plus, got ({k_plus}, {k_minus})")
        self.__dict__.update(k_plus=k_plus, k_minus=k_minus)  # frozen: store the ints

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(-self.k_minus, 0)) + tuple(range(1, self.k_plus + 1))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.k_plus + self.k_minus

    def count_divisible_by(self, p: int) -> int:
        """How many multipliers the prime p divides."""
        return self.k_plus // p + self.k_minus // p


@dataclass(frozen=True)
class QuasiCrossShape:
    """Error sphere of the channel: arms of length k_plus up and k_minus
    down in each of n axis directions, plus the center cell."""

    k_plus: int
    k_minus: int
    n: int

    def __post_init__(self) -> None:
        arms = MultiplierSet(self.k_plus, self.k_minus)
        [n] = integers([self.n], "dimensions")
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.__dict__.update(k_plus=arms.k_plus, k_minus=arms.k_minus, n=n)

    @property
    def volume(self) -> int:
        """Number of unit cells covered by one quasi-cross."""
        return self.n * (self.k_plus + self.k_minus) + 1

    @property
    def multipliers(self) -> MultiplierSet:
        return MultiplierSet(self.k_plus, self.k_minus)

    def cells(self):
        """The volume-many integer points of the cross centered at 0."""
        yield (0,) * self.n
        for i in range(self.n):
            for m in self.multipliers:
                cell = [0] * self.n
                cell[i] = m
                yield tuple(cell)


@dataclass(frozen=True)
class Collision:
    """Witness that two products coincide (m1*s1 == m2*s2) or that a
    product vanishes (m2/s2 are None and m1*s1 == 0)."""

    m1: int
    s1: Element
    m2: int | None
    s2: Element | None
    product: Element

    def describe(self) -> str:
        left = f"{self.m1}*{fmt_element(self.s1)}"
        if self.m2 is None:
            return f"{left} = 0"
        return f"{left} = {self.m2}*{fmt_element(self.s2)} = {fmt_element(self.product)}"


@dataclass(frozen=True)
class PackingCheck:
    ok: bool
    collision: Collision | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Splitting:
    """Group, multiplier set, and ordered splitter set.

    Construction validates shapes only; whether the products are really
    distinct is decided by verify_packing, never assumed.
    """

    group: FiniteAbelianGroup
    multipliers: MultiplierSet
    splitters: tuple[Element, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.group.element(s) for s in self.splitters)
        if len(set(elems)) != len(elems):
            raise ValueError("splitter elements must be distinct")
        if not elems:
            raise ValueError("splitter set must be non-empty")
        object.__setattr__(self, "splitters", elems)

    @property
    def n(self) -> int:
        return len(self.splitters)

    @property
    def shape(self) -> QuasiCrossShape:
        return QuasiCrossShape(self.multipliers.k_plus, self.multipliers.k_minus, self.n)

    def splitter_values(self) -> tuple[int, ...]:
        """Splitters of a cyclic-group splitting as plain integers."""
        if not self.group.is_cyclic_form:
            raise ValueError("splitter_values needs a cyclic group")
        return tuple(s[0] for s in self.splitters)


def fmt_element(e: Element | None) -> str:
    if e is None:
        return "?"
    if len(e) == 1:
        return str(e[0])
    return "(" + ",".join(str(x) for x in e) + ")"


def make_cyclic_splitting(q: int, k_plus: int, k_minus: int, splitters) -> Splitting:
    """Convenience constructor over Z_q with integer splitters."""
    g = cyclic_group(q)
    return Splitting(g, MultiplierSet(k_plus, k_minus), tuple((s,) for s in splitters))


def _scan_products(sp: Splitting):
    g = sp.group
    zero = g.zero
    table: dict[Element, tuple[int, Element]] = {}
    for s in sp.splitters:
        for m in sp.multipliers:
            prod = g.scalar_mul(m, s)
            if prod == zero:
                return PackingCheck(False, Collision(m, s, None, None, prod)), table
            if prod in table:
                m0, s0 = table[prod]
                return PackingCheck(False, Collision(m0, s0, m, s, prod)), table
            table[prod] = (m, s)
    return PackingCheck(True), table


def verify_packing(sp: Splitting) -> PackingCheck:
    """Check that all products m*s, m in M, s in S, are distinct and
    nonzero; on failure the result carries the first collision found
    (splitters scanned in order, multipliers ascending)."""
    check, _ = _scan_products(sp)
    return check


def is_tiling(sp: Splitting) -> bool:
    """Perfectness: the products plus 0 exhaust G.

    Given a verified packing this is exactly the counting condition
    |G| = n*(k_plus+k_minus) + 1.  Raises on a non-packing.
    """
    check = verify_packing(sp)
    if not check.ok:
        raise ValueError(f"is_tiling called on a non-packing: {check.collision.describe()}")
    return sp.group.order == sp.shape.volume


class Singularity(enum.Enum):
    NON_SINGULAR = "non-singular"
    SINGULAR = "singular"
    PURELY_SINGULAR = "purely-singular"


def classify_singularity(sp: Splitting) -> Singularity:
    """Non-singular: every multiplier is coprime to |G|.  Purely singular:
    every prime divisor of |G| divides some multiplier.  Singular: neither."""
    order = sp.group.order
    if all(gcd(order, m) == 1 for m in sp.multipliers):
        return Singularity.NON_SINGULAR
    if all(
        any(m % p == 0 for m in sp.multipliers) for p in prime_factors(order)
    ):
        return Singularity.PURELY_SINGULAR
    return Singularity.SINGULAR


def check_singular_prime_bound(sp: Splitting) -> bool:
    """For a purely-singular perfect splitting, every prime divisor p of
    |G| must divide at least |M|/p^2 of the multipliers.

    This is a diagnostic: a False return on a valid input signals a bug
    upstream, not a property of the input.  Raises if the splitting is
    not a purely-singular tiling.
    """
    if not is_tiling(sp):
        raise ValueError("check_singular_prime_bound needs a perfect splitting")
    if classify_singularity(sp) is not Singularity.PURELY_SINGULAR:
        raise ValueError("check_singular_prime_bound needs a purely-singular splitting")
    m_size = len(sp.multipliers)
    return all(
        sp.multipliers.count_divisible_by(p) >= Fraction(m_size, p * p)
        for p in prime_factors(sp.group.order)
    )


def image(sp: Splitting, vector) -> Element:
    """Apply the defining homomorphism: sum of x_i * s_i in G.

    Accepts arbitrary integer coordinates (they reduce through the
    scalar multiplication)."""
    vec = list(vector)
    if len(vec) != sp.n:
        raise ValueError(f"vector has length {len(vec)}, splitting has n={sp.n}")
    g = sp.group
    acc = g.zero
    for x, s in zip(vec, sp.splitters):
        acc = g.add(acc, g.scalar_mul(x, s))
    return acc


# --- JSON wire format ------------------------------------------------------


def to_json_dict(sp: Splitting) -> dict:
    return {
        "orders": list(sp.group.orders),
        "k_plus": sp.multipliers.k_plus,
        "k_minus": sp.multipliers.k_minus,
        "splitters": [list(s) for s in sp.splitters],
    }


def to_json(sp: Splitting) -> str:
    return json.dumps(to_json_dict(sp))


def json_int_list(value, what: str) -> tuple[int, ...]:
    """A JSON list of integers, validated: floats and bools are rejected,
    never truncated or coerced."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def from_json_dict(data) -> Splitting:
    if not isinstance(data, dict):
        raise ValueError("splitting JSON must be an object")
    missing = [key for key in ("orders", "k_plus", "k_minus", "splitters") if key not in data]
    if missing:
        raise ValueError(f"splitting JSON is missing field {missing[0]!r}")
    if not isinstance(data["splitters"], list):
        raise ValueError("splitters must be a list of elements")
    k_plus, k_minus = json_int_list([data["k_plus"], data["k_minus"]], "k_plus and k_minus")
    group = FiniteAbelianGroup(json_int_list(data["orders"], "orders"))
    splitters = tuple(json_int_list(s, "each splitter") for s in data["splitters"])
    return Splitting(group, MultiplierSet(k_plus, k_minus), splitters)


def from_json(text: str) -> Splitting:
    return from_json_dict(json.loads(text))
