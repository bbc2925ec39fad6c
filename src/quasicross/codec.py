"""Systematic encoder and syndrome decoder built on a splitting.

Codewords are integer vectors in [0, Q)^n whose image under the defining
homomorphism is zero; Q is the cell-level count and must be a multiple
of the group exponent.  Codes need a group (Z_v)^k with equal cyclic
orders, so the syndrome of a word x is k integer dot products,
sum_i x_i * s_i[j] mod v for j < k, over splitter columns precomputed
once per code.  The encoder fills the free coordinates with the
information digits and solves the k pivot residues with the inverse of
the pivot system mod v, also precomputed.  A received word decodes by
computing its syndrome and inverting the unique product representation
m*s_i, which locates the single error coordinate and magnitude.  For
tiling-based codes every nonzero syndrome is decodable (the code is
perfect); plain packings may report an uncorrectable word instead.

Errors are applied over the integers (levels clamp physically, they do
not wrap), which the syndrome never notices since it reduces through
the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import index, mul

from .groups import Element
from .splitting import Splitting, _scan_products


class SyndromeTable:
    """Immutable-by-convention map from m*s_i to (coordinate i, magnitude m)."""

    def __init__(self, splitting: Splitting):
        check, products = _scan_products(splitting)
        if not check.ok:
            raise RuntimeError(
                f"syndrome table over a non-packing: {check.collision.describe()}"
            )
        index_of = {s: i for i, s in enumerate(splitting.splitters)}
        self.splitting = splitting
        self.entries: dict[Element, tuple[int, int]] = {
            prod: (index_of[s], m) for prod, (m, s) in products.items()
        }

    def lookup(self, syndrome: Element) -> tuple[int, int] | None:
        return self.entries.get(syndrome)

    def __len__(self) -> int:
        return len(self.entries)


def _unit_pivots(splitters, candidates, v: int):
    """Gauss-Jordan elimination mod v with unit pivots over the splitter
    columns in `candidates`, taken in order: a column joins the pivots
    when its reduced form has a unit entry in a row no earlier pivot
    holds (the first such row becomes its pivot row); otherwise it is
    skipped.  Stops at k pivots.  Returns the pivots and the inverse mod
    v of their system (row c inverts pivot c), or None when fewer than k
    columns qualify.  Complete for prime-power v: the result is then the
    first k-subset, in candidate order, whose determinant is a unit."""
    k = len(splitters[0])
    # the accumulated row operations; it reduces each candidate column
    ops = [[int(i == r) for i in range(k)] for r in range(k)]
    pivots, rows = [], []
    for i in candidates:
        reduced = [sum(map(mul, row, splitters[i])) % v for row in ops]
        r = next((r for r in range(k) if r not in rows and gcd(reduced[r], v) == 1), None)
        if r is None:
            continue
        inv = pow(reduced[r], -1, v)
        ops[r] = [(x * inv) % v for x in ops[r]]
        for other in range(k):
            f = reduced[other]
            if other != r and f:
                ops[other] = [(x - f * y) % v for x, y in zip(ops[other], ops[r])]
        pivots.append(i)
        rows.append(r)
        if len(pivots) == k:
            return tuple(pivots), [ops[r] for r in rows]
    return None


@dataclass(frozen=True)
class CodeSpec:
    """A splitting plus the physical alphabet [0, levels) and the pivot
    coordinates the encoder solves for.

    Set-up precomputes the flat integer form the codec runs on: the k
    splitter columns (entry i of column j is coordinate j of s_i), their
    restriction to the free coordinates, and the inverse mod v of the
    pivot system.  Raises ValueError when that system is not invertible."""

    splitting: Splitting
    levels: int
    pivots: tuple[int, ...]
    free_coordinates: tuple[int, ...] = field(init=False, repr=False, compare=False)
    columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    free_columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    pivot_inverse: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sp, pivots = self.splitting, self.pivots
        v = sp.group.orders[0]
        pivot_set = set(pivots)
        free = tuple(i for i in range(sp.n) if i not in pivot_set)
        columns = tuple(zip(*sp.splitters))
        found = _unit_pivots(sp.splitters, pivots, v)
        if found is None:
            raise ValueError(f"pivot columns {pivots} are not invertible mod {v}")
        inverse = found[1]
        object.__setattr__(self, "free_coordinates", free)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "free_columns", tuple(tuple(col[i] for i in free) for col in columns))
        object.__setattr__(self, "pivot_inverse", tuple(map(tuple, inverse)))

    @property
    def n(self) -> int:
        return self.splitting.n

    @property
    def quotient_levels(self) -> int:
        """Range of each pivot quotient digit: levels // group exponent."""
        return self.levels // self.splitting.group.exponent


def make_code(sp: Splitting, levels: int, pivots: tuple[int, ...] | None = None) -> CodeSpec:
    """Validate levels and pivot coordinates, auto-selecting pivots when
    omitted (first splitter columns forming an invertible system).

    The group must have equal cyclic orders (true for every construction
    here: Z_q, Z_p^l, and (Z_{p^l})^k)."""
    orders = set(sp.group.orders)
    if len(orders) != 1:
        raise ValueError("codes need a group with equal cyclic orders")
    v = sp.group.orders[0]
    [levels] = _integers([levels], "levels")
    if levels <= 0 or levels % v != 0:
        raise ValueError(f"levels must be a positive multiple of {v}, got {levels}")
    k = len(sp.group.orders)
    if pivots is None:
        found = _unit_pivots(sp.splitters, range(sp.n), v)
        if found is None:
            raise ValueError("no invertible pivot system found among the splitter columns")
        pivots = found[0]
    else:
        pivots = tuple(_integers(pivots, "pivot coordinates"))
        if len(pivots) != k or len(set(pivots)) != k:
            raise ValueError(f"need {k} distinct pivot coordinates")
        if not all(0 <= i < sp.n for i in pivots):
            raise ValueError("pivot coordinate out of range")
    return CodeSpec(sp, levels, pivots)


def _integers(values, what: str) -> list[int]:
    """`values` as a list of ints; a float or any other non-integer
    raises ValueError where int() would silently truncate it."""
    try:
        return list(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def _word(cs: CodeSpec, word) -> list[int]:
    word = _integers(word, "word entries")
    if len(word) != cs.n:
        raise ValueError(f"word has length {len(word)}, code has n={cs.n}")
    return word


def _syndrome(cs: CodeSpec, word: list[int]) -> Element:
    v = cs.splitting.group.orders[0]
    return tuple(sum(map(mul, word, col)) % v for col in cs.columns)


def syndrome(cs: CodeSpec, word) -> Element:
    """Image of the received word in the group, one integer dot product
    mod v per cyclic factor; zero exactly on lattice points, independent
    of the alphabet wrap.  Entries must be integers: a float raises
    ValueError."""
    return _syndrome(cs, _word(cs, word))


def encode(cs: CodeSpec, info, quotients=0) -> tuple[int, ...]:
    """Systematic encoding.

    `info` fills the non-pivot coordinates (digits in [0, levels)), in
    coordinate order; `quotients` gives one digit in [0, levels/q) per
    pivot coordinate (a bare int is accepted when there is a single
    pivot).  Pivot residues are solved so the syndrome vanishes.  Every
    digit must be an integer: a float raises ValueError, never truncated.
    """
    v = cs.splitting.group.orders[0]
    info = _integers(info, "info digits")
    if len(info) != len(cs.free_coordinates):
        raise ValueError(f"info must have {len(cs.free_coordinates)} digits, got {len(info)}")
    if info and not 0 <= min(info) <= max(info) < cs.levels:
        raise ValueError(f"info digits must lie in [0, {cs.levels})")
    try:
        quotients = [index(quotients)] * len(cs.pivots)
    except TypeError:
        quotients = _integers(quotients, "quotient digits")
    if len(quotients) != len(cs.pivots):
        raise ValueError(f"need {len(cs.pivots)} quotient digits")
    if any(not 0 <= t < cs.quotient_levels for t in quotients):
        raise ValueError(f"quotient digits must lie in [0, {cs.quotient_levels})")

    rhs = [-sum(map(mul, info, col)) for col in cs.free_columns]
    digits = [sum(map(mul, row, rhs)) % v + v * t for row, t in zip(cs.pivot_inverse, quotients)]
    word = info
    for i, x in sorted(zip(cs.pivots, digits)):  # ascending, so each lands at i
        word.insert(i, x)
    out = tuple(word)
    if any(_syndrome(cs, out)):
        raise RuntimeError("encoder produced a word with nonzero syndrome")
    return out


@dataclass(frozen=True)
class Decoded:
    """codeword is None when the syndrome is not decodable (possible only
    for non-perfect packings or model violations); correction is the
    (coordinate, magnitude) removed, or None when the word was clean."""

    codeword: tuple[int, ...] | None
    correction: tuple[int, int] | None

    @property
    def uncorrectable(self) -> bool:
        return self.codeword is None


def decode(cs: CodeSpec, word, table: SyndromeTable | None = None) -> Decoded:
    """Correct at most one limited-magnitude error.

    If word = c + m*e_i for a codeword c and multiplier m, the result is
    exactly c with correction (i, m).  Out-of-range coordinates are
    accepted.  More than one error decodes to some wrong codeword
    without detection (the code is perfect); that is inherent, not a
    defect.  Entries must be integers: a float raises ValueError."""
    word = _word(cs, word)
    if table is None:
        table = SyndromeTable(cs.splitting)
    s = _syndrome(cs, word)
    if not any(s):
        return Decoded(tuple(word), None)
    hit = table.lookup(s)
    if hit is None:
        return Decoded(None, None)
    i, m = hit
    word[i] -= m
    return Decoded(tuple(word), (i, m))
