"""Systematic encoder and syndrome decoder built on a splitting.

Codewords are integer vectors in [0, Q)^n whose image under the defining
homomorphism is zero; Q is the cell-level count and must be a multiple
of the group exponent.  Codes need a group (Z_v)^k with equal cyclic
orders, so the syndrome of a word x is k integer dot products,
sum_i x_i * s_i[j] mod v for j < k, over splitter columns precomputed
once per code.  The encoder fills the free coordinates with the
information digits and reads the k pivot residues off the reduced
echelon rows mod v, also precomputed.  A received word decodes by
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

from .groups import Element, integers
from .splitting import Splitting, _scan_products


class NotAPacking(RuntimeError):
    """A syndrome table asked of a non-packing; carries the scan's first collision."""

    def __init__(self, collision):
        super().__init__(f"syndrome table over a non-packing: {collision.describe()}")
        self.collision = collision


class SyndromeTable:
    """Immutable-by-convention map from m*s_i to (coordinate i, magnitude m):
    the table the product scan builds.  Raises NotAPacking on a non-packing."""

    def __init__(self, splitting: Splitting):
        check, entries = _scan_products(splitting)
        if not check.ok:
            raise NotAPacking(check.collision)
        self.entries: dict[Element, tuple[int, int]] = entries

    def __len__(self) -> int:
        return len(self.entries)


def _unit_pivots(splitters, v: int):
    """Gauss-Jordan elimination mod v with unit pivots on the k rows of
    splitter coordinates (entry i of row j is coordinate j of s_i),
    columns taken in order: a column joins the pivots when it has a unit
    entry in a row no earlier pivot holds (the first such row becomes its
    pivot row); otherwise it is skipped.  Stops at k pivots.  Returns the
    pivots and the reduced rows (row c has 1 at pivot c and 0 at the
    others), or None when fewer than k columns qualify.  Complete for
    prime-power v: the result is then the lexicographically first
    k-subset whose determinant is a unit."""
    k = len(splitters[0])
    rows = list(zip(*splitters))
    pivots, held = [], []
    for i in range(len(splitters)):
        r = next((r for r in range(k) if r not in held and gcd(rows[r][i], v) == 1), None)
        if r is None:
            continue
        inv = pow(rows[r][i], -1, v)
        if inv != 1:  # a pass of n saved per code set-up: most constructions' pivots are 1
            rows[r] = [(x * inv) % v for x in rows[r]]
        for other in range(k):
            f = rows[other][i]
            if other != r and f:
                rows[other] = [(x - f * y) % v for x, y in zip(rows[other], rows[r])]
        pivots.append(i)
        held.append(r)
        if len(pivots) == k:
            return tuple(pivots), [rows[r] for r in held]
    return None


@dataclass(frozen=True)
class CodeSpec:
    """A splitting plus the physical alphabet [0, levels).

    The group must have equal cyclic orders v (true for every
    construction here: Z_q, Z_p^l, and (Z_{p^l})^k), and levels must be
    a positive multiple of v.  The pivot coordinates the encoder solves
    for are derived: the first splitter columns forming an invertible
    system.  Set-up precomputes the flat integer form the codec runs on:
    the k splitter columns (entry i of column j is coordinate j of s_i)
    and `solve`, row c of which gives pivot c's residue as a dot product
    with the free coordinates: minus the reduced echelon row c there, mod
    v.  Raises ValueError on any invalid input, splitter columns with no
    invertible pivot system included."""

    splitting: Splitting
    levels: int
    pivots: tuple[int, ...] = field(init=False)
    free_coordinates: tuple[int, ...] = field(init=False, repr=False, compare=False)
    columns: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    solve: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sp = self.splitting
        if len(set(sp.group.orders)) != 1:
            raise ValueError("codes need a group with equal cyclic orders")
        v = sp.group.orders[0]
        [levels] = integers([self.levels], "levels")
        if levels <= 0 or levels % v != 0:
            raise ValueError(f"levels must be a positive multiple of {v}, got {levels}")
        found = _unit_pivots(sp.splitters, v)
        if found is None:
            raise ValueError("no invertible pivot system found among the splitter columns")
        pivots, reduced = found
        free = tuple(i for i in range(sp.n) if i not in pivots)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "free_coordinates", free)
        object.__setattr__(self, "columns", tuple(zip(*sp.splitters)))
        object.__setattr__(self, "solve", tuple(tuple(-row[i] % v for i in free) for row in reduced))

    @property
    def n(self) -> int:
        return self.splitting.n

    @property
    def quotient_levels(self) -> int:
        """Range of each pivot quotient digit: levels // group exponent."""
        return self.levels // self.splitting.group.exponent


def make_code(sp: Splitting, levels: int) -> CodeSpec:
    """The code `CodeSpec(sp, levels)`, which validates its inputs."""
    return CodeSpec(sp, levels)


def _word(cs: CodeSpec, word) -> list[int]:
    word = integers(word, "word entries")
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
    coordinate order; `quotients` gives one digit in [0, levels/v) per
    pivot coordinate, v the group exponent (a bare int is used for every
    pivot).  Pivot residues are solved so the syndrome vanishes.  Every
    digit must be an integer: a float raises ValueError, never truncated.
    """
    v = cs.splitting.group.orders[0]
    info = integers(info, "info digits")
    if len(info) != len(cs.free_coordinates):
        raise ValueError(f"info must have {len(cs.free_coordinates)} digits, got {len(info)}")
    if info and not 0 <= min(info) <= max(info) < cs.levels:
        raise ValueError(f"info digits must lie in [0, {cs.levels})")
    try:
        quotients = [index(quotients)] * len(cs.pivots)
    except TypeError:
        quotients = integers(quotients, "quotient digits")
    if len(quotients) != len(cs.pivots):
        raise ValueError(f"need {len(cs.pivots)} quotient digits")
    if any(not 0 <= t < cs.quotient_levels for t in quotients):
        raise ValueError(f"quotient digits must lie in [0, {cs.quotient_levels})")

    digits = [sum(map(mul, row, info)) % v + v * t for row, t in zip(cs.solve, quotients)]
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
    hit = table.entries.get(s)
    if hit is None:
        return Decoded(None, None)
    i, m = hit
    word[i] -= m
    return Decoded(tuple(word), (i, m))
