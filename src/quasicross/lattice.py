"""Integer lattices derived from splittings.

The lattice of a splitting is the kernel of the homomorphism
x -> sum x_i s_i, a full-rank sublattice of Z^n.  Its lower-triangular
Hermite normal form (HNF) is unique, so equal lattices have equal HNFs,
and the determinant is the HNF diagonal's product.  A kernel lattice is
built in HNF; any other basis gets its HNF once, modulo its determinant
(`intlinalg.hnf_lower`, after Domich, Kannan & Trotter, Math. Oper. Res.
1987, and Cohen, A Course in Computational Algebraic Number Theory, Alg.
2.4.8).  Rows are stored sparsely, and the pivot-1 fact keeps them
sparse: in a lower HNF every entry in the column of a pivot of 1 is 0,
as it must lie in [0, 1), and a kernel of G has at most log2|G| pivots
above 1, so every other row is e_i plus entries in those few columns.
Building, reducing and taking the determinant work on those columns in
whole-list passes, and dense rows are made only for output.  A vector is
reduced by its projection onto them (`intlinalg.pivot_projection`: the
entry there of each e^c modulo the rows with pivot 1), one dot product
per such column, then by `intlinalg.reduce_mod_lattice`.
`geometric_check` re-derives the packing/tiling verdict purely from the
lattice geometry (coset coverage on the quotient torus), independently of
the product-table logic in `splitting`: one batch reduction gives every
cross cell its coset index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod

from .groups import integers
from .intlinalg import SparseRow, hnf_lower, kernel_hnf, pivot_projection, reduce_mod_lattice
from .splitting import QuasiCrossShape, Splitting, json_int_list

RENDER_2D_MAX_CELLS = 1_000_000  # about 100 MB of SVG
LATTICE_JSON_MAX_ENTRIES = 25_000_000  # n up to 5,000, about 75 MB of JSON


@dataclass(frozen=True, init=False)
class IntegerLattice:
    """Full-rank sublattice of Z^n given by basis rows.

    Built from dense rows; stored as sparse rows (`intlinalg.SparseRow`),
    and `basis` rebuilds the dense rows on demand.
    """

    rows: tuple[SparseRow, ...]

    def __init__(self, basis) -> None:
        dense = [integers(row, "lattice basis entries") for row in basis]
        n = len(dense)
        if n == 0 or any(len(r) != n for r in dense):
            raise ValueError("basis must be a non-empty square matrix")
        object.__setattr__(self, "rows", _sparse(dense))

    @classmethod
    def from_rows(cls, rows: tuple[SparseRow, ...]) -> IntegerLattice:
        """Wrap the sparse rows of a lower-triangular HNF basis without
        densifying them; the lattice is its own `hnf()`."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "rows", rows)
        lat.__dict__["_hnf"] = lat
        return lat

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        dense = [[0] * self.n for _ in self.rows]
        for row, out in zip(self.rows, dense):
            for j, x in row:
                out[j] = x
        return tuple(map(tuple, dense))

    def hnf(self) -> IntegerLattice:
        """The same lattice in its canonical lower-triangular HNF, computed once."""
        return self._hnf

    @cached_property
    def _hnf(self) -> IntegerLattice:
        return IntegerLattice.from_rows(_sparse(hnf_lower([list(r) for r in self.basis])))


def _sparse(dense) -> tuple[SparseRow, ...]:
    return tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in dense)


def lattice_from_splitting(sp: Splitting) -> IntegerLattice:
    """Kernel of x -> sum x_i s_i as an HNF-basis lattice, its own `hnf()`.

    The sparse HNF comes straight from the group arithmetic
    (`intlinalg.kernel_hnf`).  For a cyclic group whose first splitter is
    invertible it is the closed form with diagonal (q, 1, ..., 1) and one
    nonzero column; (Z_v)^k whose first k splitters generate has k.
    """
    return IntegerLattice.from_rows(tuple(kernel_hnf(sp.splitters, sp.group.orders)))


def determinant(lat: IntegerLattice) -> int:
    """|det| of the basis; the volume of a fundamental region.

    The product of the HNF diagonal: a kernel lattice carries its HNF, and
    any other basis gets it modulo its determinant (`intlinalg.hnf_lower`;
    Domich, Kannan & Trotter 1987; Cohen, Alg. 2.4.8), which refuses a
    singular basis."""
    return prod(row[-1][1] for row in lat.hnf().rows)


def packing_density(lat: IntegerLattice, shape: QuasiCrossShape) -> Fraction:
    """Cross volume over fundamental-region volume; 1 exactly for tilings.

    A value above 1 proves the caller's packing claim false and raises."""
    rho = Fraction(shape.volume, determinant(lat))
    if rho > 1:
        raise ValueError(
            f"density {rho} > 1: the lattice cannot pack this quasi-cross"
        )
    return rho


def period(sp: Splitting) -> tuple[int, ...]:
    """Per-coordinate periods of the lattice: the i-th entry is the least
    t > 0 with t*e_i in the lattice, which is the order of s_i in G: the
    lcm over the cyclic factors of d // gcd(x, d), one column at a time."""
    columns = [[d // gcd(x, d) for x in col] for col, d in zip(zip(*sp.splitters), sp.group.orders)]
    return tuple(map(lcm, *columns))


@dataclass(frozen=True)
class GeometricReport:
    """Outcome of the torus-coverage check.

    verdict is "tiling", "packing", or "overlap".  Cells are (i, m) arm
    labels with None for the center cell; uncovered counts the torus
    points no cross reaches (0 for tilings)."""

    verdict: str
    uncovered: int
    witness: tuple[tuple[int, int] | None, tuple[int, int] | None] | None = None


def geometric_check(sp: Splitting, lat: IntegerLattice | None = None) -> GeometricReport:
    """Decide packing/tiling geometrically, independent of product tables.

    One batch reduction (`intlinalg.reduce_mod_lattice`) gives every cell
    of the quasi-cross at the origin its coset index modulo the lattice;
    the crosses at all lattice points are disjoint iff these indices are
    pairwise distinct, and tile iff additionally every coset is hit.  A
    cell is m*e_i, whose projection is m times entry i of each column of
    `intlinalg.pivot_projection`, so the check costs O(volume * pivots
    above 1).  Its cells but the center are the product scan's n*|M|
    products, which `verify` bounds by scanning first, under the scan's
    size limit.  With no pivot above 1 the lattice is Z^n and every cell
    hits the center.  The overlap witness is the first cell in (i, m)
    order whose coset an earlier cell holds.  `lat`, when the caller
    already has it, is `lattice_from_splitting(sp)`.  The cosets number the
    points of their index box, the product of the batch's pivots: the determinant.

    The verdict matches verify_packing/is_tiling whenever the splitters
    generate the group.  When they generate a proper subgroup the
    geometry answers for that subgroup: the lattice may tile space even
    though the splitting of the full group is not perfect.
    """
    if lat is None:
        lat = lattice_from_splitting(sp)
    hnf = lat.hnf().rows
    ms = sp.multipliers.elements
    span = len(ms)  # cell v = span*i + a is the vector ms[a]*e_i
    batch = {p: [m * x for x in col for m in ms] for p, col in pivot_projection(hnf).items()}
    keys = reduce_mod_lattice(hnf, batch) or [0] * (span * sp.n)  # no pivot above 1: Z^n
    if len({0, *keys}) <= len(keys):  # an overlap: walk to the first one
        seen: dict[int, tuple[int, int] | None] = {0: None}
        for v, key in enumerate(keys):
            cell = (v // span, ms[v % span])
            if key in seen:
                return GeometricReport("overlap", 0, (seen[key], cell))
            seen[key] = cell
    uncovered = prod(hnf[p][-1][1] for p in batch) - 1 - len(keys)
    return GeometricReport("tiling" if uncovered == 0 else "packing", uncovered)


# --- JSON wire format -------------------------------------------------------


def check_json_size(n: int) -> None:
    """Refuse an n x n basis, n = |splitters| for a kernel lattice, past LATTICE_JSON_MAX_ENTRIES."""
    if n * n > LATTICE_JSON_MAX_ENTRIES:
        raise ValueError(f"the lattice JSON needs {n * n} entries, more than {LATTICE_JSON_MAX_ENTRIES}")


def lattice_to_json(lat: IntegerLattice) -> str:
    """`{"basis": [[...], ...]}`, the bytes of `json.dumps` of the dense
    rows, written from their sparse pairs in one join: each run of zeros
    is a slice of one "0, " * n before an entry or of one ", 0" * n after
    a row's last entry, and a zero row is that tail less its first ", "."""
    n = lat.n
    check_json_size(n)
    zeros, tail = "0, " * n, ", 0" * n
    out = ['{"basis": [']
    for row in lat.rows:
        nxt = 0
        for j, x in row:
            out += (", " if nxt else "[", zeros[: 3 * (j - nxt)], str(x))
            nxt = j + 1
        out.append(tail[: 3 * (n - nxt)] + "], " if nxt else "[" + tail[2 : 3 * n] + "], ")
    out[-1] = out[-1][:-2] + "]}"
    return "".join(out)


def lattice_from_json(text: str) -> IntegerLattice:
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("basis"), list):
        raise ValueError('lattice JSON must be an object with a "basis" list of rows')
    return IntegerLattice([json_int_list(row, "each lattice basis row") for row in data["basis"]])


# --- 2-D rendering -----------------------------------------------------------

_UNIT = 24  # pixels per integer cell
_COLOR_ARM = "#c9d9f0"
_COLOR_CENTER = "#4a6fa5"
_COLOR_OVERLAP = "#e05252"
_COLOR_DOT = "#1a1a1a"
_COLOR_AXIS = "#888888"
_COLOR_HATCH = "#777777"


def _lattice_points_2d(lat: IntegerLattice, window: int):
    """All lattice points v with |v_x| < window and |v_y| < window."""
    (a, _), (b, c) = lat.basis  # lower-triangular HNF rows (a,0), (b,c)
    points = []
    for j in range(-(window // c) - 1, window // c + 2):
        y = j * c
        if abs(y) >= window:
            continue
        for i in range(-((window + abs(j * b)) // a) - 1, (window + abs(j * b)) // a + 2):
            x = i * a + j * b
            if abs(x) < window:
                points.append((x, y))
    points.sort()
    return points


def render_2d(lat: IntegerLattice, shape: QuasiCrossShape, window: int) -> str:
    """Draw the 2-D packing as an SVG document.

    One unit square per cross cell (center cells darker, cells covered
    more than once highlighted), lattice points dotted, and the
    fundamental-region parallelogram of the basis hatched.  The y axis
    grows upward and output bytes are stable across runs.  A window whose
    crosses would cover more than RENDER_2D_MAX_CELLS cells, about
    (2*window + 1)^2 * volume / det of them, is refused before drawing.
    """
    if shape.n != 2:
        raise ValueError("render_2d draws 2-dimensional lattices only")
    if lat.n != 2:
        raise ValueError("lattice dimension must be 2")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    cells = (2 * window + 1) ** 2 * shape.volume // determinant(lat)
    if cells > RENDER_2D_MAX_CELLS:
        raise ValueError(
            f"window {window} would draw about {cells} cells, more than {RENDER_2D_MAX_CELLS}"
        )
    points = _lattice_points_2d(lat.hnf(), window)

    coverage: dict[tuple[int, int], int] = {}
    centers = set(points)  # the center cell of each cross is its lattice point
    for (vx, vy) in points:
        for cell in shape.cells():
            cx, cy = vx + cell[0], vy + cell[1]
            coverage[(cx, cy)] = coverage.get((cx, cy), 0) + 1

    extent = (window + shape.k_plus + 1) * _UNIT
    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{-extent} {-extent} {2 * extent} {2 * extent}">'
    )
    out.append(
        '<defs><pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        f'<line x1="0" y1="0" x2="0" y2="6" stroke="{_COLOR_HATCH}" stroke-width="1"/>'
        "</pattern></defs>"
    )
    for (cx, cy) in sorted(coverage):
        count = coverage[(cx, cy)]
        if count > 1:
            fill = _COLOR_OVERLAP
        elif (cx, cy) in centers:
            fill = _COLOR_CENTER
        else:
            fill = _COLOR_ARM
        out.append(
            f'<rect x="{cx * _UNIT}" y="{-(cy + 1) * _UNIT}" '
            f'width="{_UNIT}" height="{_UNIT}" fill="{fill}" '
            f'stroke="#ffffff" stroke-width="1"/>'
        )
    out.append(
        f'<line x1="{-extent}" y1="0" x2="{extent}" y2="0" '
        f'stroke="{_COLOR_AXIS}" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="0" y1="{-extent}" x2="0" y2="{extent}" '
        f'stroke="{_COLOR_AXIS}" stroke-width="1"/>'
    )
    if points:
        (b1x, b1y), (b2x, b2y) = lat.basis  # hatch the caller's basis region
        para = [
            (0, 0),
            (b1x * _UNIT, -b1y * _UNIT),
            ((b1x + b2x) * _UNIT, -(b1y + b2y) * _UNIT),
            (b2x * _UNIT, -b2y * _UNIT),
        ]
        d = "M " + " L ".join(f"{x} {y}" for x, y in para) + " Z"
        out.append(
            f'<path d="{d}" fill="url(#hatch)" stroke="{_COLOR_HATCH}" stroke-width="1"/>'
        )
    half = _UNIT // 2
    for (vx, vy) in points:
        out.append(
            f'<circle cx="{vx * _UNIT + half}" cy="{-vy * _UNIT - half}" r="3" '
            f'fill="{_COLOR_DOT}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
