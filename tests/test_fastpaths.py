"""Cross-checks of the structured lattice paths against the dense ones and
against the independent oracles: the diagonal-product determinant, the
sparse kernel HNF, the sparse coset reduction and the geometric check."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasicross import (
    FiniteAbelianGroup,
    IntegerLattice,
    MultiplierSet,
    Splitting,
    balance_family,
    cyclic_splitting,
    determinant,
    field_splitting,
    geometric_check,
    lattice_from_splitting,
    mixed_splitting,
    two_one_splitting,
)
from quasicross.intlinalg import bareiss_det, reduce_mod_lattice
from quasicross.lattice import GEOMETRIC_CHECK_MAX_VOLUME, GeometricReport, _kernel_lattice_general

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
@given(splittings())
def test_sparse_kernel_matches_dense_reference(sp):
    lat = lattice_from_splitting(sp)
    assert lat.basis == _kernel_lattice_general(sp).basis
    assert lat.is_hnf()


@settings(max_examples=200, deadline=None)
@given(nonsingular_matrices(), st.data())
def test_reduction_keys_agree_with_membership_oracle(rows, data):
    hnf = IntegerLattice(rows).hnf()
    pivots = [row[-1][1] for row in hnf.rows]
    n = len(rows)
    vectors = st.lists(st.integers(-40, 40), min_size=n, max_size=n)
    u, v = data.draw(vectors), data.draw(vectors)

    def key(vec):
        rep = reduce_mod_lattice(hnf.rows, {j: x for j, x in enumerate(vec) if x})
        assert all(0 < x < pivots[j] for j, x in rep)
        return rep

    diff = [a - b for a, b in zip(u, v)]
    assert (key(u) == key(v)) == oracles.in_row_lattice(rows, diff)
    assert (not key(diff)) == oracles.in_row_lattice(rows, diff)


def dense_geometric_check(sp: Splitting) -> GeometricReport:
    """The check over dense rows of the dense reference kernel."""
    hnf = [list(r) for r in _kernel_lattice_general(sp).basis]
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
def test_geometric_check_matches_dense_on_constructions(sp):
    assert sp.shape.volume <= GEOMETRIC_CHECK_MAX_VOLUME
    assert geometric_check(sp) == dense_geometric_check(sp)


@settings(max_examples=200, deadline=None)
@given(splittings())
def test_geometric_check_matches_dense_on_random_splittings(sp):
    assert geometric_check(sp) == dense_geometric_check(sp)


def test_geometric_check_overlap_matches_dense():
    # an overlapping non-packing of a constructed tiling's group: 2*1 = 2
    sp = Splitting(FiniteAbelianGroup((25,)), MultiplierSet(3, 1), ((1,), (2,), (6,), (11,)))
    report = geometric_check(sp)
    assert report.verdict == "overlap"
    assert report == dense_geometric_check(sp)
