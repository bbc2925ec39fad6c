"""Integer lattices derived from splittings.

The lattice of a splitting is the kernel of the homomorphism
x -> sum x_i s_i, a full-rank sublattice of Z^n.  Kernel bases are kept in
lower-triangular Hermite normal form, which is unique, so equal lattices
compare equal.  Rows are stored sparsely: the paper's kernels are a
diagonal plus a few nonzero columns below it, so building, reducing and
taking the determinant cost O(n + nonzeros), and dense rows are made only
for output.  `geometric_check` re-derives the packing/tiling verdict
purely from the lattice geometry (coset coverage on the quotient torus),
independently of the product-table logic in `splitting`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .groups import integers
from .intlinalg import SparseRow, bareiss_det, hnf_lower, kernel_hnf, left_kernel, reduce_mod_lattice
from .splitting import QuasiCrossShape, Splitting, json_int_list

GEOMETRIC_CHECK_MAX_VOLUME = 100_000


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
        rows = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in dense)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: tuple[SparseRow, ...]) -> IntegerLattice:
        """Wrap sparse rows of a square basis without densifying them."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "rows", rows)
        return lat

    @property
    def n(self) -> int:
        return len(self.rows)

    def dense_rows(self):
        """The basis rows as dense lists, one at a time."""
        for row in self.rows:
            dense = [0] * self.n
            for j, x in row:
                dense[j] = x
            yield dense

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(r) for r in self.dense_rows())

    def is_lower_triangular(self) -> bool:
        return all(not row or row[-1][0] <= i for i, row in enumerate(self.rows))

    def is_hnf(self) -> bool:
        pivots = []
        for i, row in enumerate(self.rows):
            if not row or row[-1][0] != i or row[-1][1] <= 0:
                return False
            if any(not 0 <= x < pivots[j] for j, x in row[:-1]):
                return False
            pivots.append(row[-1][1])
        return True

    def hnf(self) -> IntegerLattice:
        """The same lattice with its canonical lower-triangular HNF basis."""
        if self.is_hnf():
            return self
        return IntegerLattice(hnf_lower([list(r) for r in self.basis]))

    def contains(self, vector) -> bool:
        vec = integers(vector, "vector entries")
        if len(vec) != self.n:
            raise ValueError("vector dimension mismatch")
        return not reduce_mod_lattice(self.hnf().rows, {j: x for j, x in enumerate(vec) if x})


def lattice_from_splitting(sp: Splitting) -> IntegerLattice:
    """Kernel of x -> sum x_i s_i as an HNF-basis lattice.

    The sparse HNF comes straight from the group arithmetic
    (`intlinalg.kernel_hnf`).  For a cyclic group whose first splitter is
    invertible it is the closed form with diagonal (q, 1, ..., 1) and one
    nonzero column; (Z_v)^k whose first k splitters generate has k.
    """
    return IntegerLattice.from_rows(tuple(kernel_hnf(sp.splitters, sp.group.orders)))


def _kernel_lattice_general(sp: Splitting) -> IntegerLattice:
    """Dense reference for `lattice_from_splitting`: the left kernel of the
    stacked (n+k) x k integer system whose top block holds the splitter
    columns and whose bottom block is the negated diagonal of cyclic
    orders (projecting kernel rows onto the first n coordinates is an
    isomorphism onto the lattice), brought into HNF."""
    orders = sp.group.orders
    k = len(orders)
    n = sp.n
    stacked = [[sp.splitters[i][j] for j in range(k)] for i in range(n)]
    for j in range(k):
        stacked.append([-orders[j] if jj == j else 0 for jj in range(k)])
    kernel = left_kernel(stacked)
    basis = [row[:n] for row in kernel]
    if len(basis) != n:
        raise RuntimeError(f"kernel rank {len(basis)} != {n}")
    return IntegerLattice(hnf_lower(basis))


def determinant(lat: IntegerLattice) -> int:
    """|det| of the basis; the volume of a fundamental region.

    A lower-triangular basis, such as every kernel lattice, gives the
    product of its diagonal in O(n); any other basis goes through exact
    Bareiss elimination."""
    if lat.is_lower_triangular():
        d = prod(row[-1][1] if row and row[-1][0] == i else 0 for i, row in enumerate(lat.rows))
    else:
        d = bareiss_det([list(r) for r in lat.basis])
    if d == 0:
        raise ValueError("lattice basis is singular")
    return abs(d)


def packing_density(lat: IntegerLattice, shape: QuasiCrossShape, det: int | None = None) -> Fraction:
    """Cross volume over fundamental-region volume; 1 exactly for tilings.

    `det`, when the caller already has it, is `determinant(lat)`.  A
    value above 1 proves the caller's packing claim false and raises."""
    rho = Fraction(shape.volume, determinant(lat) if det is None else det)
    if rho > 1:
        raise ValueError(
            f"density {rho} > 1: the lattice cannot pack this quasi-cross"
        )
    return rho


def period(sp: Splitting) -> tuple[int, ...]:
    """Per-coordinate periods of the lattice: the i-th entry is the least
    t > 0 with t*e_i in the lattice, which is the order of s_i in G."""
    return tuple(sp.group.element_order(s) for s in sp.splitters)


@dataclass(frozen=True)
class GeometricReport:
    """Outcome of the torus-coverage check.

    verdict is "tiling", "packing", or "overlap".  Cells are (i, m) arm
    labels with None for the center cell; uncovered counts the torus
    points no cross reaches (0 for tilings)."""

    verdict: str
    uncovered: int
    witness: tuple[tuple[int, int] | None, tuple[int, int] | None] | None = None

    def __bool__(self) -> bool:
        return self.verdict != "overlap"


def geometric_check(
    sp: Splitting, lat: IntegerLattice | None = None, det: int | None = None
) -> GeometricReport:
    """Decide packing/tiling geometrically, independent of product tables.

    Reduces every cell of the quasi-cross at the origin to its canonical
    coset representative modulo the lattice; the crosses at all lattice
    points are disjoint iff these representatives are pairwise distinct,
    and tile iff additionally every coset is hit.  A cell is a sparse
    vector m*e_i, so each reduction touches only the nonzero columns of
    the HNF and the check costs O(volume * nonzeros per row).  Guarded to
    cross volumes <= GEOMETRIC_CHECK_MAX_VOLUME.  `lat` and `det`, when
    the caller already has them, are `lattice_from_splitting(sp)` and its
    determinant.

    The verdict matches verify_packing/is_tiling whenever the splitters
    generate the group.  When they generate a proper subgroup the
    geometry answers for that subgroup: the lattice may tile space even
    though the splitting of the full group is not perfect.
    """
    shape = sp.shape
    if shape.volume > GEOMETRIC_CHECK_MAX_VOLUME:
        raise ValueError(
            f"cross volume {shape.volume} exceeds the geometric_check guard "
            f"({GEOMETRIC_CHECK_MAX_VOLUME})"
        )
    if lat is None:
        lat = lattice_from_splitting(sp)
    if det is None:
        det = determinant(lat)
    hnf = lat.hnf().rows
    multipliers = tuple(sp.multipliers)
    seen: dict[SparseRow, tuple[int, int] | None] = {reduce_mod_lattice(hnf, {}): None}
    for i in range(sp.n):
        for m in multipliers:
            rep = reduce_mod_lattice(hnf, {i: m})
            if rep in seen:
                return GeometricReport("overlap", 0, (seen[rep], (i, m)))
            seen[rep] = (i, m)
    uncovered = det - len(seen)
    return GeometricReport("tiling" if uncovered == 0 else "packing", uncovered)


# --- JSON wire format -------------------------------------------------------


def lattice_to_json(lat: IntegerLattice) -> str:
    """`{"basis": [[...], ...]}`, written one dense row at a time."""
    return '{"basis": [' + ", ".join(json.dumps(row) for row in lat.dense_rows()) + "]}"


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
    if window <= 0:
        return points
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
    grows upward and output bytes are stable across runs.
    """
    if shape.n != 2:
        raise ValueError("render_2d draws 2-dimensional lattices only")
    if lat.n != 2:
        raise ValueError("lattice dimension must be 2")
    canonical = lat.hnf()
    points = _lattice_points_2d(canonical, window)

    coverage: dict[tuple[int, int], int] = {}
    centers = set()
    for (vx, vy) in points:
        for cell in shape.cells():
            cx, cy = vx + cell[0], vy + cell[1]
            coverage[(cx, cy)] = coverage.get((cx, cy), 0) + 1
            if cell == (0, 0):
                centers.add((cx, cy))

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
