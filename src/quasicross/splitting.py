"""Group splittings: the algebraic form of a lattice packing by quasi-crosses.

A splitting is a finite abelian group G, the multiplier set
M = {-k_minus, ..., -1, 1, ..., k_plus}, and an ordered splitter set
S = (s_1, ..., s_n) in G.  S doubles as the parity-check matrix of the
resulting code: the lattice is {x : sum x_i s_i = 0 in G}.

`verify_packing` scans the products m*s once: are they distinct and
nonzero (else the first collision), and do they with 0 fill G (a tiling,
what `is_tiling` returns)?  The scan's table m*s_i -> (coordinate i,
multiplier m) is the single-error syndrome table of the code.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product

from .groups import Element, FiniteAbelianGroup, cyclic_group, integers, prime_factors

SCAN_MAX_PRODUCTS = 500_000  # at 100-200 B each, about 100 MB


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

    def __len__(self) -> int:  # len() fails past sys.maxsize: the search and rules add the arms
        return self.k_plus + self.k_minus


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
    """tiling: the products pack and, together with 0, fill G."""

    ok: bool
    collision: Collision | None = None
    tiling: bool = False


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
        elems = self.group.elements_of(self.splitters)
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


def fmt_element(e: Element) -> str:
    if len(e) == 1:
        return str(e[0])
    return "(" + ",".join(str(x) for x in e) + ")"


def make_cyclic_splitting(q: int, k_plus: int, k_minus: int, splitters) -> Splitting:
    """Convenience constructor over Z_q with integer splitters."""
    g = cyclic_group(q)
    return Splitting(g, MultiplierSet(k_plus, k_minus), tuple((s,) for s in splitters))


def check_scan_size(scale: int, base: int = 2, exponent: int = 1) -> None:
    """Refuse a scan of more than SCAN_MAX_PRODUCTS products.  The count is
    scale * (1 + base + ... + base^(exponent - 1)), which fits every construction
    (scale alone by default).  It is at least base^(exponent - 1), so an exponent
    past the limit's bit length is refused before the power is raised."""
    if exponent > SCAN_MAX_PRODUCTS.bit_length():
        raise ValueError(f"the product scan needs at least {base}^{exponent - 1} products, "
                         f"more than {SCAN_MAX_PRODUCTS}")
    products = scale * (base**exponent - 1) // (base - 1)
    if products > SCAN_MAX_PRODUCTS:
        raise ValueError(f"the product scan needs {products} products, more than {SCAN_MAX_PRODUCTS}")


def _scan_products(sp: Splitting):
    """The check and the table m*s_i -> (i, m) built on the way.  All
    n*|M| products are made at once, one cyclic factor (column) at a time,
    and keyed in (i, m) order; only a table shorter than the products or
    holding 0 walks them again, to the first collision and the table
    before it.  More than SCAN_MAX_PRODUCTS products are refused before
    any is made."""
    check_scan_size(sp.n * (sp.multipliers.k_plus + sp.multipliers.k_minus))
    g = sp.group
    ms = sp.multipliers.elements
    columns = [[m * x % d for x in col for m in ms] for col, d in zip(zip(*sp.splitters), g.orders)]
    products = list(zip(*columns))
    table: dict[Element, tuple[int, int]] = dict(zip(products, product(range(sp.n), ms)))
    if len(table) == len(products) and g.zero not in table:
        return PackingCheck(True, tiling=len(table) + 1 == g.order), table
    table = {}
    for prod, (i, m) in zip(products, product(range(sp.n), ms)):
        s = sp.splitters[i]
        if prod == g.zero:
            return PackingCheck(False, Collision(m, s, None, None, prod)), table
        if prod in table:
            i0, m0 = table[prod]
            return PackingCheck(False, Collision(m0, sp.splitters[i0], m, s, prod)), table
        table[prod] = (i, m)


def verify_packing(sp: Splitting) -> PackingCheck:
    """Check that all products m*s, m in M, s in S, are distinct and
    nonzero; on failure the result carries the first collision found
    (splitters scanned in order, multipliers ascending)."""
    check, _ = _scan_products(sp)
    return check


def is_tiling(sp: Splitting) -> bool:
    """Perfectness: the products plus 0 exhaust G.  Raises on a non-packing."""
    check = verify_packing(sp)
    if not check.ok:
        raise ValueError(f"is_tiling called on a non-packing: {check.collision.describe()}")
    return check.tiling


class Singularity(enum.Enum):
    NON_SINGULAR = "non-singular"
    SINGULAR = "singular"
    PURELY_SINGULAR = "purely-singular"


def classify_singularity(sp: Splitting) -> Singularity:
    """Non-singular: every multiplier is coprime to |G|.  Purely singular:
    every prime divisor of |G| divides some multiplier.  Singular: neither.
    A prime divides a multiplier exactly when it is <= k_plus, and is then
    one itself, so trial division of |G| stopped at k_plus decides it:
    O(min(k_plus, sqrt|G|)) steps."""
    order = rest = sp.group.order
    for p, power in prime_factors(order, sp.multipliers.k_plus).items():
        if p <= sp.multipliers.k_plus:
            rest //= power
    if rest == order:
        return Singularity.NON_SINGULAR
    return Singularity.PURELY_SINGULAR if rest == 1 else Singularity.SINGULAR


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
    splitters = data["splitters"]
    if not isinstance(splitters, list):
        raise ValueError("splitters must be a list of elements")
    k_plus, k_minus = json_int_list([data["k_plus"], data["k_minus"]], "k_plus and k_minus")
    group = FiniteAbelianGroup(json_int_list(data["orders"], "orders"))
    if not {*map(type, splitters)} <= {list} or not {*map(type, chain(*splitters))} <= {int}:
        raise ValueError("each splitter must be a list of integers")
    return Splitting(group, MultiplierSet(k_plus, k_minus), splitters)


def from_json(text: str) -> Splitting:
    return from_json_dict(json.loads(text))
