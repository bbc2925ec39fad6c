"""Cross-checks of the structured lattice paths against the dense ones and
against the independent oracles: the diagonal-product determinant, the
sparse kernel HNF (against its definition and a per-row reference), the
batch coset reduction, the geometric check and the lattice JSON writer.
Also the product scan's verdicts and table (against a per-element scan),
and the integer-column codec: its syndrome against `splitting.image`,
its stored pivot inverse, and encode/decode round trips."""

from __future__ import annotations

import json
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasicross import (
    FiniteAbelianGroup,
    IntegerLattice,
    MultiplierSet,
    Splitting,
    balance_family,
    cyclic_splitting,
    decode,
    determinant,
    encode,
    field_splitting,
    geometric_check,
    image,
    lattice_from_splitting,
    make_code,
    mixed_splitting,
    syndrome,
    two_one_splitting,
)
from quasicross.codec import SyndromeTable
from quasicross.intlinalg import bareiss_det, hnf_lower, kernel_hnf, pivot_projection, reduce_mod_lattice, xgcd
from quasicross.lattice import GeometricReport, lattice_to_json
from quasicross.splitting import Collision, PackingCheck, _scan_products, verify_packing

import oracles

entries = st.integers(-6, 6)


@st.composite
def square_matrices(draw, triangular: bool):
    n = draw(st.integers(1, 5))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if triangular:
        rows = [[x if j <= i else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    return rows


@st.composite
def nonsingular_matrices(draw):
    rows = draw(square_matrices(triangular=False))
    assume(oracles.fraction_det(rows) != 0)
    return rows


@st.composite
def splittings(draw):
    """Random splitter sets over small groups, packings or not."""
    orders = tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)))
    group = FiniteAbelianGroup(orders)
    pool = [e for e in group.elements() if e != group.zero]
    splitters = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    k_plus = draw(st.integers(2, 4))
    k_minus = draw(st.integers(1, k_plus - 1))
    return Splitting(group, MultiplierSet(k_plus, k_minus), tuple(splitters))


@settings(max_examples=200, deadline=None)
@given(st.one_of(square_matrices(triangular=True), square_matrices(triangular=False)))
def test_determinant_matches_bareiss_and_fraction_oracle(rows):
    expect = abs(oracles.fraction_det(rows))
    assert abs(bareiss_det(rows)) == expect
    if expect == 0:
        with pytest.raises(ValueError, match="singular"):
            determinant(IntegerLattice(rows))
    else:
        assert determinant(IntegerLattice(rows)) == expect


@settings(max_examples=200, deadline=None)
@given(nonsingular_matrices())
@example([[1, 2], [0, 3]])  # the folded pivot 2 is not the HNF's: its gcd with det 3 is
def test_hnf_lower_spans_the_same_lattice_in_hnf(rows):
    h = hnf_lower(rows)
    assert oracles.is_lower_hnf(h)
    assert all(oracles.in_row_lattice(rows, row) for row in h)
    assert all(oracles.in_row_lattice(h, row) for row in rows)


@settings(max_examples=200, deadline=None)
@given(splittings(), st.data())
def test_hnf_of_a_scrambled_kernel_basis_is_the_kernel_hnf(sp, data):
    lat = lattice_from_splitting(sp)
    rows = [list(row) for row in lat.basis]
    n = len(rows)
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, k in data.draw(st.lists(steps, max_size=12)):
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    other = IntegerLattice(rows)
    assert other.hnf().rows == lat.rows
    assert determinant(other) == determinant(lat) == oracles.span_size(sp.group.orders, sp.splitters)
    assert lat.hnf() is lat and other.hnf() is other.hnf()  # each HNF is computed once


@settings(max_examples=200, deadline=None)
@given(splittings())
def test_sparse_kernel_matches_dense_reference(sp):
    lat = lattice_from_splitting(sp)
    assert oracles.is_kernel_hnf(sp.group.orders, sp.splitters, lat.basis)
    assert oracles.is_lower_hnf(lat.basis)


def coset_indices(hnf, vectors) -> list[int]:
    """`reduce_mod_lattice` of the vectors, each projected onto the pivot
    columns above 1 by one dot product per column; a lattice with no such
    column is Z^n, every index 0."""
    batch = {p: [sum(x * y for x, y in zip(col, vec)) for vec in vectors] for p, col in pivot_projection(hnf).items()}
    return reduce_mod_lattice(hnf, batch) or [0] * len(vectors)


@settings(max_examples=200, deadline=None)
@given(nonsingular_matrices(), st.data())
def test_reduction_keys_agree_with_membership_oracle(rows, data):
    hnf = IntegerLattice(rows).hnf()
    det = determinant(hnf)
    n = len(rows)
    vectors = st.lists(st.integers(-40, 40), min_size=n, max_size=n)
    u, v = data.draw(vectors), data.draw(vectors)
    diff = [a - b for a, b in zip(u, v)]
    batch = (u, v, diff)
    projected = {p: [sum(x * y for x, y in zip(col, vec)) for vec in batch] for p, col in pivot_projection(hnf.rows).items()}
    given_projected = {p: list(col) for p, col in projected.items()}
    keys = reduce_mod_lattice(hnf.rows, projected) or [0] * len(batch)
    assert projected == given_projected  # the batch is read, not consumed
    assert all(0 <= key < det for key in keys)
    assert keys == [coset_indices(hnf.rows, [vec])[0] for vec in batch]
    assert (keys[0] == keys[1]) == oracles.in_row_lattice(rows, diff)
    assert (keys[2] == 0) == oracles.in_row_lattice(rows, diff)


def _mix(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """The sparse combination a*x + b*y."""
    out = {j: a * v for j, v in x.items()}
    for j, v in y.items():
        out[j] = out.get(j, 0) + b * v
    return {j: v for j, v in out.items() if v}


def per_row_kernel_hnf(vectors, moduli):
    """The kernel HNF one row at a time: the reference for `kernel_hnf`.
    Row i's pivot t is the order of v_i modulo the subgroup H of the
    earlier vectors, kept as a lower-triangular basis `gens` of its
    preimage in Z^k with `combos` expressing it over the pivot vectors."""
    k = len(moduli)
    gens = [[d if c == r else 0 for c in range(k)] for r, d in enumerate(moduli)]
    combos = [{} for _ in range(k)]
    pivots, rows = [], []
    for i, v in enumerate(vectors):
        t, rest, coef = 1, list(v), [0] * k
        for c in range(k - 1, -1, -1):
            d = gens[c][c]
            f = d // gcd(rest[c], d)
            if f != 1:
                t *= f
                rest = [f * x for x in rest]
                coef = [f * x for x in coef]
            coef[c] = rest[c] // d
            if coef[c]:
                rest = [x - coef[c] * y for x, y in zip(rest, gens[c])]
        row = {}
        for c in range(k):
            for j, a in combos[c].items():
                row[j] = row.get(j, 0) - coef[c] * a
        for j, pivot, prow in reversed(pivots):
            q = row.get(j, 0) // pivot
            if q:
                for jj, h in prow:
                    row[jj] = row.get(jj, 0) - q * h
        sparse = tuple((j, row[j]) for j in sorted(row) if row[j]) + ((i, t),)
        rows.append(sparse)
        if t == 1:
            continue
        pivots.append((i, t, sparse))
        new, combo = list(v), {i: 1}
        for c in range(k - 1, -1, -1):
            if new[c]:
                g, u, w = xgcd(gens[c][c], new[c])
                fa, fb = gens[c][c] // g, new[c] // g
                gens[c], new = (
                    [u * x + w * y for x, y in zip(gens[c], new)],
                    [fa * y - fb * x for x, y in zip(gens[c], new)],
                )
                combos[c], combo = _mix(u, combos[c], w, combo), _mix(-fb, combos[c], fa, combo)
    return rows


@st.composite
def late_pivot_vectors(draw):
    """Vectors over a small group, each drawn at random or made as an
    integer combination of the earlier ones (so it lies in their span),
    such that some pivot above 1 comes after a row with pivot 1."""
    orders = tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=3)))
    vectors = []
    for _ in range(draw(st.integers(2, 9))):
        if vectors and draw(st.booleans()):
            coeffs = [draw(st.integers(-3, 3)) for _ in vectors]
            vectors.append(tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) % d for j, d in enumerate(orders)))
        else:
            vectors.append(tuple(draw(st.integers(0, d - 1)) for d in orders))
    pivots = [row[-1][1] for row in per_row_kernel_hnf(vectors, orders)]
    assume(any(t > 1 for t in pivots[pivots.index(1) + 1:]) if 1 in pivots else False)
    return orders, vectors


def dense(rows, n):
    return [[dict(row).get(j, 0) for j in range(n)] for row in rows]


@settings(max_examples=300, deadline=None)
@given(late_pivot_vectors())
@example(((4, 6), [(0, 0), (2, 3), (1, 0), (0, 4), (1, 1)]))
@example(((4,), [(2,), (2,)]))  # the first run ends at its first vector, t = 2
@example(((4, 6), [(0, 1), (1, 0), (1, 1), (2, 3)]))  # from row 1 on, column 1 has pivot 1 in H
def test_kernel_hnf_runs_match_the_per_row_reference(case):
    orders, vectors = case
    rows = kernel_hnf(vectors, orders)
    assert rows == per_row_kernel_hnf(vectors, orders)
    assert oracles.is_kernel_hnf(orders, vectors, dense(rows, len(vectors)))


@st.composite
def hnfs_with_late_pivots(draw):
    """Dense lower HNFs with two or three pivots above 1 in rows other
    than the first, and entries only in the columns of those pivots."""
    n = draw(st.integers(3, 7))
    late = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=3, unique=True))
    diagonal = [draw(st.integers(1, 5))] + [draw(st.integers(2, 9)) if i in late else 1 for i in range(1, n)]
    return [
        [draw(st.integers(0, diagonal[j] - 1)) for j in range(i)] + [diagonal[i]] + [0] * (n - 1 - i)
        for i in range(n)
    ]


def dense_coset_index(hnf, vec) -> int:
    """The representative of vec in the box prod([0, pivot_i)), one row of
    the dense HNF at a time, read as a mixed-radix number."""
    x = list(vec)
    for i in range(len(hnf) - 1, -1, -1):
        q = x[i] // hnf[i][i]
        x = [a - q * h for a, h in zip(x, hnf[i])]
    index = 0
    for i, r in enumerate(x):
        index = index * hnf[i][i] + r
    return index


@settings(max_examples=300, deadline=None)
@given(hnfs_with_late_pivots(), st.data())
def test_reduction_with_late_pivots_matches_the_dense_rows(hnf, data):
    assert oracles.is_lower_hnf(hnf)
    n = len(hnf)
    vectors = data.draw(st.lists(st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=1, max_size=6))
    sparse = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in hnf)
    keys = coset_indices(sparse, vectors)
    assert keys == [dense_coset_index(hnf, vec) for vec in vectors]
    for b, vec in enumerate(vectors):
        assert (keys[b] == keys[0]) == oracles.in_row_lattice(hnf, [x - y for x, y in zip(vec, vectors[0])])


@pytest.mark.parametrize("hnf, carried", [
    ([[3, 0, 0], [0, 1, 0], [2, 0, 5]], True),  # row 2's pivot 5 has an entry in column 0 (pivot 3)
    ([[4, 0, 0], [1, 1, 0], [0, 0, 3]], False),  # rows 0 and 2 hold only their pivots
])
def test_reduction_carries_quotients_only_from_rows_with_entries(hnf, carried):
    sparse = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in hnf)
    assert any(len(row) > 1 and row[-1][1] > 1 for row in sparse) == carried
    vectors = [[7, -3, 11], [-4, 2, 9], [0, 0, 0], [13, 5, -8], [3, 1, 5]]
    assert coset_indices(sparse, vectors) == [dense_coset_index(hnf, vec) for vec in vectors]


def dense_geometric_check(sp: Splitting) -> GeometricReport:
    """The check over the dense rows of the kernel HNF, which
    `test_sparse_kernel_matches_dense_reference` pins to its definition."""
    hnf = [list(r) for r in lattice_from_splitting(sp).basis]
    n = sp.n

    def reduce(vec):
        x = list(vec)
        for i in range(n - 1, -1, -1):
            q = x[i] // hnf[i][i]
            for j in range(i + 1):
                x[j] -= q * hnf[i][j]
        return tuple(x)

    seen = {reduce([0] * n): None}
    for i in range(n):
        for m in sp.multipliers:
            cell = [0] * n
            cell[i] = m
            rep = reduce(cell)
            if rep in seen:
                return GeometricReport("overlap", 0, (seen[rep], (i, m)))
            seen[rep] = (i, m)
    det = 1
    for i in range(n):
        det *= hnf[i][i]
    uncovered = det - len(seen)
    return GeometricReport("tiling" if uncovered == 0 else "packing", uncovered)


CONSTRUCTIONS = (
    cyclic_splitting(5, 2, 3, 1),
    cyclic_splitting(5, 3, 3, 1),
    cyclic_splitting(7, 3, 5, 1),
    cyclic_splitting(11, 2, 6, 4),
    field_splitting(5, 2, 3, 1),
    field_splitting(7, 3, 4, 2),
    two_one_splitting(2),
    two_one_splitting(4),
    mixed_splitting(5, 1, 3, 1, 3),
    mixed_splitting(7, 1, 5, 1, 3),
    balance_family(2, 3, 1).splitting,
    balance_family(1, 3, 5).splitting,
)


@pytest.mark.parametrize("sp", CONSTRUCTIONS, ids=lambda sp: f"{sp.group}-n{sp.n}")
def test_kernel_hnf_matches_the_per_row_reference_on_constructions(sp):
    assert kernel_hnf(sp.splitters, sp.group.orders) == per_row_kernel_hnf(sp.splitters, sp.group.orders)


@pytest.mark.parametrize("sp", CONSTRUCTIONS, ids=lambda sp: f"{sp.group}-n{sp.n}")
def test_geometric_check_matches_dense_on_constructions(sp):
    assert geometric_check(sp) == dense_geometric_check(sp)


@settings(max_examples=200, deadline=None)
@given(splittings())
def test_geometric_check_matches_dense_on_random_splittings(sp):
    assert geometric_check(sp) == dense_geometric_check(sp)


@settings(max_examples=200, deadline=None)
@given(splittings())
def test_geometric_check_matches_dense_on_random_non_packings(sp):
    assume(not verify_packing(sp).ok)
    report = geometric_check(sp)
    assert report.verdict == "overlap"
    assert report == dense_geometric_check(sp)  # the first overlap witness included


def test_geometric_check_overlap_matches_dense():
    # an overlapping non-packing of a constructed tiling's group: 2*1 = 2
    sp = Splitting(FiniteAbelianGroup((25,)), MultiplierSet(3, 1), ((1,), (2,), (6,), (11,)))
    report = geometric_check(sp)
    assert report.verdict == "overlap"
    assert report == dense_geometric_check(sp)


@settings(max_examples=300, deadline=None)
@given(st.one_of(splittings(), st.sampled_from(CONSTRUCTIONS)))
def test_scan_decides_packing_tiling_and_the_syndrome_table(sp):
    args = (sp.group.orders, sp.multipliers.k_plus, sp.multipliers.k_minus, sp.splitters)
    check, table = _scan_products(sp)
    assert check.ok == oracles.brute_is_packing(*args)
    assert check.tiling == oracles.brute_is_tiling(*args)
    if check.ok:
        expected = oracles.brute_products(*args)
        assert table == {prod: (sp.splitters.index(s), m) for prod, (m, s) in expected.items()}


def per_element_scan(sp: Splitting):
    """The product scan one `scalar_mul` at a time, splitters in order and
    multipliers ascending: the reference for `_scan_products`."""
    g = sp.group
    table = {}
    for i, s in enumerate(sp.splitters):
        for m in sp.multipliers:
            prod = g.scalar_mul(m, s)
            if prod == g.zero:
                return PackingCheck(False, Collision(m, s, None, None, prod)), table
            if prod in table:
                i0, m0 = table[prod]
                return PackingCheck(False, Collision(m0, sp.splitters[i0], m, s, prod)), table
            table[prod] = (i, m)
    return PackingCheck(True, tiling=len(table) + 1 == g.order), table


# a zero product m*s = 0 with m >= 2 comes after (m - 1)*s = -1*s collides,
# so one is met first only at a negative multiplier: here -2*(0, 2) = 0
ZERO_PRODUCT = Splitting(FiniteAbelianGroup((3, 4)), MultiplierSet(3, 2), ((1, 1), (0, 2)))
COLLISION = Splitting(FiniteAbelianGroup((5, 5)), MultiplierSet(2, 1), ((1, 0), (0, 1), (2, 0)))


def test_scan_reference_inputs_hit_a_zero_product_and_a_collision():
    zero, collision = per_element_scan(ZERO_PRODUCT)[0], per_element_scan(COLLISION)[0]
    assert zero.collision == Collision(-2, (0, 2), None, None, (0, 0))
    assert collision.collision == Collision(2, (1, 0), 1, (2, 0), (2, 0))


@example(ZERO_PRODUCT)
@example(COLLISION)
@settings(max_examples=300, deadline=None)
@given(st.one_of(splittings(), st.sampled_from(CONSTRUCTIONS)))
def test_scan_matches_per_element_reference(sp):
    assert _scan_products(sp) == per_element_scan(sp)


@settings(max_examples=200, deadline=None)
@given(st.one_of(square_matrices(triangular=False), st.sampled_from(CONSTRUCTIONS)))
@example([[0, 0, 0], [0, 0, 5], [4, 0, 0]])  # an all-zero row, and zeros before and after an entry
@example([[1, 0, 0], [0, 0, 0], [0, 7, 0]])  # a zero row, and no entry in the last column
@example([[2, 0, -1], [0, 3, 0], [5, 5, 5]])  # rows whose last entry is in the last column
def test_lattice_json_is_json_dumps_of_each_dense_row(case):
    lat = IntegerLattice(case) if isinstance(case, list) else lattice_from_splitting(case)
    expect = '{"basis": [' + ", ".join(json.dumps(r) for r in lat.basis) + "]}"
    assert lattice_to_json(lat) == expect


# --- integer-column codec -------------------------------------------------

TABLES = {sp: SyndromeTable(sp) for sp in CONSTRUCTIONS}
construction_ids = st.sampled_from(range(len(CONSTRUCTIONS)))


@st.composite
def construction_codes(draw):
    """A code on a constructed tiling."""
    sp = CONSTRUCTIONS[draw(construction_ids)]
    return make_code(sp, sp.group.orders[0] * draw(st.integers(1, 3)))


@st.composite
def equal_order_codes(draw):
    """Random codes over (Z_v)^k, k >= 2: random nonzero splitters with
    the unit vectors shuffled in, packings or not, auto pivots."""
    v = draw(st.integers(2, 12))
    k = draw(st.integers(2, 3))
    group = FiniteAbelianGroup((v,) * k)
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    pool = [e for e in group.elements() if e != group.zero and e not in units]
    others = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True))
    splitters = draw(st.permutations(units + others))
    k_plus = draw(st.integers(2, 4))
    sp = Splitting(group, MultiplierSet(k_plus, draw(st.integers(1, k_plus - 1))), tuple(splitters))
    try:
        return make_code(sp, v * draw(st.integers(1, 3)))
    except ValueError:  # no unit-pivot system for a composite v
        assume(False)


any_codes = st.one_of(construction_codes(), equal_order_codes())


@settings(max_examples=300, deadline=None)
@given(any_codes, st.data())
def test_syndrome_matches_image(cs, data):
    # entries far outside [0, levels), negative ones included
    word = data.draw(st.lists(st.integers(-3000, 3000), min_size=cs.n, max_size=cs.n))
    assert syndrome(cs, word) == image(cs.splitting, word)
    assert syndrome(cs, iter(word)) == image(cs.splitting, word)


@settings(max_examples=200, deadline=None)
@given(any_codes)
def test_solve_completes_each_free_unit_vector(cs):
    # solve's column at free coordinate f, put at the pivots, completes e_f
    # to a codeword; the pivot system it solves is invertible mod v
    v, k = cs.splitting.group.orders[0], len(cs.pivots)
    a = [[cs.splitting.splitters[i][j] for i in cs.pivots] for j in range(k)]
    assert gcd(bareiss_det(a), v) == 1
    assert cs.free_coordinates == tuple(i for i in range(cs.n) if i not in cs.pivots)
    assert all(0 <= x < v for row in cs.solve for x in row)
    for t, f in enumerate(cs.free_coordinates):
        word = [0] * cs.n
        word[f] = 1
        for i, row in zip(cs.pivots, cs.solve):
            word[i] = row[t]
        assert not any(image(cs.splitting, word)), (f, word)


@settings(max_examples=200, deadline=None)
@given(any_codes, st.data())
def test_encode_keeps_info_at_the_free_coordinates(cs, data):
    # pivots need not lead: equal_order_codes shuffles the unit vectors in
    info = data.draw(st.lists(st.integers(0, cs.levels - 1), min_size=len(cs.free_coordinates),
                              max_size=len(cs.free_coordinates)))
    quotients = data.draw(st.lists(st.integers(0, cs.quotient_levels - 1), min_size=len(cs.pivots),
                                   max_size=len(cs.pivots)))
    word = encode(cs, info, quotients)
    assert [word[i] for i in cs.free_coordinates] == info
    assert [word[i] // cs.splitting.group.orders[0] for i in cs.pivots] == quotients
    assert all(0 <= x < cs.levels for x in word)
    assert not any(image(cs.splitting, word))


@settings(max_examples=300, deadline=None)
@given(construction_codes(), st.data())
def test_round_trip_with_one_error(cs, data):
    sp = cs.splitting
    info = data.draw(st.lists(st.integers(0, cs.levels - 1), min_size=cs.n - len(cs.pivots),
                              max_size=cs.n - len(cs.pivots)))
    quotients = data.draw(st.lists(st.integers(0, cs.quotient_levels - 1), min_size=len(cs.pivots),
                                   max_size=len(cs.pivots)))
    codeword = encode(cs, info, quotients)
    assert [codeword[i] for i in cs.free_coordinates] == info
    assert all(0 <= x < cs.levels for x in codeword)
    assert image(sp, codeword) == sp.group.zero
    i = data.draw(st.integers(0, cs.n - 1))
    m = data.draw(st.sampled_from(sp.multipliers.elements))
    word = list(codeword)
    word[i] += m
    assert decode(cs, word, TABLES[sp]) == decode(cs, word)
    result = decode(cs, word, TABLES[sp])
    assert result.codeword == codeword
    assert result.correction == (i, m)
    assert decode(cs, codeword, TABLES[sp]).correction is None


@st.composite
def prime_power_splittings(draw):
    """Random distinct splitters over (Z_{p^e})^k, packings or not."""
    v = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27]))
    k = draw(st.integers(1, 3))
    group = FiniteAbelianGroup((v,) * k)
    columns = st.tuples(*[st.integers(0, v - 1)] * k)
    splitters = draw(st.lists(columns, min_size=1, max_size=8, unique=True))
    return Splitting(group, MultiplierSet(2, 1), tuple(splitters))


@settings(max_examples=400, deadline=None)
@given(prime_power_splittings())
def test_auto_pivots_are_the_first_unit_determinant_subset(sp):
    v = sp.group.orders[0]
    expected = oracles.first_unit_pivots(sp.splitters, v)
    if expected is None:
        with pytest.raises(ValueError, match="^no invertible pivot system found among the splitter columns$"):
            make_code(sp, v)
        return
    auto = make_code(sp, v)
    assert auto.pivots == expected


@pytest.mark.parametrize("sp", CONSTRUCTIONS, ids=lambda sp: f"{sp.group}-n{sp.n}")
def test_wrong_length_word_raises(sp):
    cs = make_code(sp, sp.group.orders[0])
    for n in (cs.n - 1, cs.n + 1):
        with pytest.raises(ValueError, match="length"):
            syndrome(cs, [0] * n)
        with pytest.raises(ValueError, match="length"):
            decode(cs, [0] * n, TABLES[sp])
