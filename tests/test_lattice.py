from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from math import prod

import pytest

from quasicross import (
    GeometricReport,
    IntegerLattice,
    QuasiCrossShape,
    cyclic_splitting,
    determinant,
    field_splitting,
    geometric_check,
    is_tiling,
    image,
    lattice_from_json,
    lattice_from_splitting,
    lattice_to_json,
    make_cyclic_splitting,
    mixed_splitting,
    packing_density,
    period,
    render_2d,
    to_json,
    two_one_splitting,
    verify_packing,
)
from quasicross import lattice as lattice_mod
from quasicross.cli import main
from quasicross.intlinalg import bareiss_det, hnf_lower

import oracles

Z25_CYCLIC_BASIS = (
    (25, 0, 0, 0, 0, 0),
    (20, 1, 0, 0, 0, 0),
    (19, 0, 1, 0, 0, 0),
    (14, 0, 0, 1, 0, 0),
    (9, 0, 0, 0, 1, 0),
    (4, 0, 0, 0, 0, 1),
)

GF25_FIELD_BASIS = (
    (5, 0, 0, 0, 0, 0),
    (0, 5, 0, 0, 0, 0),
    (4, 4, 1, 0, 0, 0),
    (3, 4, 0, 1, 0, 0),
    (2, 4, 0, 0, 1, 0),
    (1, 4, 0, 0, 0, 1),
)


def test_kernel_lattice_known_bases():
    assert lattice_from_splitting(cyclic_splitting(5, 2, 3, 1)).basis == Z25_CYCLIC_BASIS
    assert lattice_from_splitting(field_splitting(5, 2, 3, 1)).basis == GF25_FIELD_BASIS


def test_kernel_rows_map_to_zero():
    for sp in (
        cyclic_splitting(5, 2, 3, 1),
        field_splitting(5, 2, 3, 1),
        two_one_splitting(2),
        make_cyclic_splitting(17, 3, 2, [1, 13]),
    ):
        lat = lattice_from_splitting(sp)
        for row in lat.basis:
            assert image(sp, row) == sp.group.zero


def test_trivial_kernel_n1():
    lat = lattice_from_splitting(make_cyclic_splitting(4, 2, 1, [1]))
    assert lat.basis == ((4,),)


KERNEL_CASES = [
    cyclic_splitting(5, 2, 3, 1),
    field_splitting(5, 2, 3, 1),
    two_one_splitting(2),
    make_cyclic_splitting(16, 2, 1, [5, 1, 3, 4, 7]),  # unit first, unsorted
    make_cyclic_splitting(17, 3, 2, [1, 13]),
    mixed_splitting(5, 1, 3, 1, 2),
    make_cyclic_splitting(8, 2, 1, [2, 6]),  # generates an index-2 subgroup
]


def test_closed_form_matches_general_kernel():
    for sp in KERNEL_CASES:
        basis = lattice_from_splitting(sp).basis
        assert oracles.is_kernel_hnf(sp.group.orders, sp.splitters, basis)


def test_kernel_oracle_rejects_single_entry_mutants():
    # a doubled pivot, the exponent of G just above a pivot (the row stays
    # in the kernel), and each entry below a pivot shifted by 1 within
    # [0, pivot) or raised by its pivot out of that range
    rejected = 0
    for sp in KERNEL_CASES:
        basis = [list(row) for row in lattice_from_splitting(sp).basis]
        mutants = []
        for i, row in enumerate(basis):
            mutants.append((i, i, 2 * row[i]))
            if i + 1 < sp.n:
                mutants.append((i, i + 1, sp.group.exponent))
            for j in range(i):
                pivot = basis[j][j]
                if pivot > 1:
                    mutants.append((i, j, (row[j] + 1) % pivot))
                mutants.append((i, j, row[j] + pivot))
        for i, j, value in mutants:
            mutant = [list(row) for row in basis]
            mutant[i][j] = value
            assert not oracles.is_kernel_hnf(sp.group.orders, sp.splitters, mutant)
            rejected += 1
    assert rejected > 100


def test_hnf_canonicalizes_equivalent_bases():
    # the 2-D example basis and its kernel form generate the same lattice
    direct = IntegerLattice(((4, 1), (3, 5))).hnf()
    derived = lattice_from_splitting(make_cyclic_splitting(17, 3, 2, [1, 13]))
    assert direct.basis == derived.basis == ((17, 0), (4, 1))


def test_alternative_generating_rows_are_members():
    lat = lattice_from_splitting(make_cyclic_splitting(17, 3, 2, [1, 13]))
    assert oracles.in_row_lattice(lat.basis, (4, 1))
    assert oracles.in_row_lattice(lat.basis, (3, 5))
    assert not oracles.in_row_lattice(lat.basis, (1, 0))


def test_determinant_examples():
    assert determinant(IntegerLattice(((4, 1), (3, 5)))) == 17
    assert determinant(IntegerLattice(Z25_CYCLIC_BASIS)) == 25
    assert determinant(IntegerLattice(((1, 0), (0, 1)))) == 1
    assert determinant(IntegerLattice(((1,),))) == 1


def test_determinant_against_fraction_oracle():
    mats = [
        ((4, 1), (3, 5)),
        Z25_CYCLIC_BASIS,
        GF25_FIELD_BASIS,
        ((2, 3, 1), (0, -4, 5), (7, 1, 1)),
        ((0, 2), (3, 0)),
    ]
    for m in mats:
        assert determinant(IntegerLattice(m)) == abs(oracles.fraction_det(m))


def test_determinant_rejects_singular():
    with pytest.raises(ValueError):
        determinant(IntegerLattice(((1, 2), (2, 4))))


def test_packing_density():
    assert packing_density(IntegerLattice(((4, 1), (3, 5))), QuasiCrossShape(3, 2, 2)) == Fraction(11, 17)
    assert packing_density(IntegerLattice(Z25_CYCLIC_BASIS), QuasiCrossShape(3, 1, 6)) == 1
    assert packing_density(IntegerLattice(((4,),)), QuasiCrossShape(2, 1, 1)) == 1


def test_packing_density_rejects_impossible_claim():
    with pytest.raises(ValueError):
        packing_density(IntegerLattice(((2, 0), (0, 2))), QuasiCrossShape(3, 2, 2))


def test_period_examples():
    assert period(cyclic_splitting(5, 2, 3, 1)) == (25, 5, 25, 25, 25, 25)
    assert period(field_splitting(5, 2, 3, 1)) == (5, 5, 5, 5, 5, 5)
    assert period(make_cyclic_splitting(4, 2, 1, [1])) == (4,)


def test_period_matches_smallest_axis_vector_in_lattice():
    for sp in (cyclic_splitting(5, 2, 3, 1), two_one_splitting(2)):
        lat = lattice_from_splitting(sp)
        for i, t in enumerate(period(sp)):
            axis = [0] * sp.n
            axis[i] = t
            assert oracles.in_row_lattice(lat.basis, axis)
            for smaller in range(1, t):
                axis[i] = smaller
                assert not oracles.in_row_lattice(lat.basis, axis)
                axis[i] = t


def verify_cli(tmp_path, capsys, sp, *flags) -> str:
    """The standard output of `verify` on `sp`, which must exit 0."""
    path = tmp_path / "splitting.json"
    path.write_text(to_json(sp), encoding="utf-8")
    assert main(["verify", str(path), *flags]) == 0
    return capsys.readouterr().out


def subgroup_index(tmp_path, capsys, sp) -> int:
    """[G : <S>] as `verify --format json` reports it."""
    return json.loads(verify_cli(tmp_path, capsys, sp, "--format", "json"))["subgroup_index"]


def test_det_equals_group_order_when_splitters_generate(tmp_path, capsys):
    for sp in (
        cyclic_splitting(5, 2, 3, 1),
        field_splitting(5, 2, 3, 1),
        two_one_splitting(2),
        make_cyclic_splitting(17, 3, 2, [1, 13]),
    ):
        assert determinant(lattice_from_splitting(sp)) == sp.group.order
        assert subgroup_index(tmp_path, capsys, sp) == 1


def test_generated_index_on_non_generating_set(tmp_path, capsys):
    # {3} generates {0, 3, 6, 9}, of index 3 in Z_12.  (Z_9 with {3, 6} has
    # the same index but is no packing, as -1*3 = 6, so verify refuses it.)
    sp = make_cyclic_splitting(12, 2, 1, [3])
    assert subgroup_index(tmp_path, capsys, sp) == 3
    assert "splitters generate an index-3 subgroup\n" in verify_cli(tmp_path, capsys, sp)


def test_non_generating_splitters_tile_their_subgroup(tmp_path, capsys):
    # the lattice answers for the generated subgroup: 4Z tiles the line
    # with volume-4 crosses even though the Z_8 splitting is not perfect
    sp = make_cyclic_splitting(8, 2, 1, [2])
    assert verify_packing(sp).ok
    assert not is_tiling(sp)
    assert subgroup_index(tmp_path, capsys, sp) == 2
    assert geometric_check(sp).verdict == "tiling"
    assert packing_density(lattice_from_splitting(sp), sp.shape) == 1


@pytest.mark.parametrize("flags", [(), ("--format", "json")], ids=["text", "json"])
def test_verify_computes_the_determinant_once(monkeypatch, tmp_path, capsys, flags):
    # the geometric check counts its cosets from the pivots its batch is
    # reduced by, so the determinant verify prints is the only one it takes
    calls, det = [], lattice_mod.determinant
    monkeypatch.setattr(lattice_mod, "determinant", lambda lat: calls.append(lat) or det(lat))
    for sp in (
        cyclic_splitting(5, 2, 3, 1),
        field_splitting(7, 3, 4, 2),
        two_one_splitting(5),
        make_cyclic_splitting(17, 3, 2, [1, 13]),
    ):
        calls.clear()
        verify_cli(tmp_path, capsys, sp, *flags)
        assert len(calls) == 1


def test_geometric_check_tiling():
    report = geometric_check(two_one_splitting(2))
    assert report.verdict == "tiling"
    assert report.uncovered == 0


def test_geometric_check_packing_counts_uncovered():
    report = geometric_check(make_cyclic_splitting(17, 3, 2, [1, 13]))
    assert report.verdict == "packing"
    assert report.uncovered == 6


def test_geometric_check_counts_cosets_of_any_basis_of_the_lattice():
    # the caller's lattice may come in any basis; its HNF gives the cosets
    sp = make_cyclic_splitting(17, 3, 2, [1, 13])
    (a, b), (c, d) = lattice_from_splitting(sp).basis
    other = IntegerLattice(((a + 3 * c, b + 3 * d), (2 * a + 7 * c, 2 * b + 7 * d)))  # det 1 change
    assert not oracles.is_lower_hnf(other.basis)
    assert geometric_check(sp, other) == geometric_check(sp) == GeometricReport("packing", 6)


def test_lattice_with_no_pivot_above_1_is_all_of_z_n():
    # the lone splitter 0 of Z_5: the kernel is Z, every cell lands on the center
    sp = make_cyclic_splitting(5, 2, 1, [0])
    assert lattice_from_splitting(sp).basis == ((1,),)
    assert geometric_check(sp) == GeometricReport("overlap", 0, (None, (0, -1)))
    assert oracles.in_row_lattice(((1,),), (7,))
    assert oracles.in_row_lattice(((1, 0), (5, 1)), (-3, 4))


def test_geometric_check_overlap_witness():
    report = geometric_check(make_cyclic_splitting(17, 3, 2, [1, 2]))
    assert report.verdict == "overlap"
    assert report.witness is not None
    a, b = report.witness
    assert a != b and a is not None and b is not None


def test_geometric_check_runs_past_the_old_volume_guard():
    # volume 3*33334+1 = 100003 was once refused; 2*1 = 1*2 is the first
    # overlap, in (i, m) order, as the product scan also finds it
    sp = make_cyclic_splitting(10**6 + 3, 2, 1, range(1, 33335))
    assert geometric_check(sp) == GeometricReport("overlap", 0, ((0, 2), (1, 1)))
    assert verify_packing(sp).collision.product == (2,)


def test_density_one_iff_tiling():
    cases = [
        cyclic_splitting(5, 2, 3, 1),
        cyclic_splitting(7, 2, 5, 1),
        two_one_splitting(2),
        make_cyclic_splitting(17, 3, 2, [1, 13]),
        make_cyclic_splitting(16, 2, 1, [1, 3, 4, 5, 7]),
    ]
    for sp in cases:
        rho = packing_density(lattice_from_splitting(sp), sp.shape)
        assert (rho == 1) == is_tiling(sp)


def test_packing_implies_counting_bound():
    # a verified packing can never have fewer group elements than cells
    cases = [
        make_cyclic_splitting(17, 3, 2, [1, 13]),
        make_cyclic_splitting(16, 2, 1, [1, 3, 4, 5, 7]),
        make_cyclic_splitting(100, 2, 1, [1, 7, 11]),
    ]
    for sp in cases:
        assert verify_packing(sp).ok
        assert sp.group.order >= sp.shape.volume


def test_geometric_agrees_with_algebraic():
    cases = [
        cyclic_splitting(5, 2, 3, 1),
        cyclic_splitting(7, 2, 4, 2),
        field_splitting(5, 2, 3, 1),
        two_one_splitting(3),
        make_cyclic_splitting(17, 3, 2, [1, 13]),
        make_cyclic_splitting(16, 2, 1, [1, 3, 4, 5, 7]),
    ]
    for sp in cases:
        geo = geometric_check(sp)
        assert verify_packing(sp).ok == (geo.verdict != "overlap")
        assert is_tiling(sp) == (geo.verdict == "tiling")


def test_lattice_json_round_trip():
    lat = IntegerLattice(((4, 1), (3, 5)))
    text = lattice_to_json(lat)
    assert text == '{"basis": [[4, 1], [3, 5]]}'
    assert lattice_from_json(text) == lat
    with pytest.raises(ValueError):
        lattice_from_json('{"rows": []}')


def test_lattice_json_refuses_more_entries_than_its_limit(monkeypatch):
    monkeypatch.setattr(lattice_mod, "LATTICE_JSON_MAX_ENTRIES", 4)
    assert lattice_to_json(IntegerLattice(((4, 1), (3, 5)))) == '{"basis": [[4, 1], [3, 5]]}'
    with pytest.raises(ValueError, match="^the lattice JSON needs 9 entries, more than 4$"):
        lattice_to_json(IntegerLattice(((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_hnf_lower_properties():
    h = hnf_lower([[4, 1], [3, 5]])
    assert h == [[17, 0], [4, 1]]
    # idempotent and sign-normalizing
    assert hnf_lower(h) == h
    assert hnf_lower([[-4, -1], [3, 5]]) == h


def test_hnf_lower_of_a_dense_40x40_basis_is_fast():
    # without the reduction modulo the determinant the coefficients of the
    # xgcd fold grow past any bound at this size
    rng = random.Random(40)
    rows = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    start = time.perf_counter()
    h = hnf_lower(rows)
    assert time.perf_counter() - start < 1.0
    assert oracles.is_lower_hnf(h)
    assert prod(h[i][i] for i in range(40)) == abs(bareiss_det(rows)) > 0


def ex1_lattice():
    return IntegerLattice(((4, 1), (3, 5)))


def test_render_2d_deterministic_and_structured():
    svg1 = render_2d(ex1_lattice(), QuasiCrossShape(3, 2, 2), 12)
    svg2 = render_2d(ex1_lattice(), QuasiCrossShape(3, 2, 2), 12)
    assert svg1 == svg2
    assert svg1.startswith('<?xml version="1.0"')
    assert "<svg" in svg1 and svg1.rstrip().endswith("</svg>")
    assert 'fill="url(#hatch)"' in svg1
    assert "#e05252" not in svg1  # valid packing, no overlap cells
    # one circle per lattice point inside the window
    points = [
        (x, y)
        for x in range(-11, 12)
        for y in range(-11, 12)
        if oracles.in_row_lattice(((4, 1), (3, 5)), (x, y))
    ]
    assert svg1.count("<circle") == len(points)
    # a valid packing never merges cells: 11 distinct cells per cross
    assert svg1.count("<rect") == 11 * len(points)


def test_render_2d_golden_bytes():
    import hashlib

    svg = render_2d(ex1_lattice(), QuasiCrossShape(3, 2, 2), 12)
    digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
    assert digest == "faed7c7a3477fcc44829e8a04e1d233cc6c1a7123f110166b04252e806dc264f"


def test_render_2d_window_zero_axes_only():
    svg = render_2d(ex1_lattice(), QuasiCrossShape(3, 2, 2), 0)
    assert "<rect" not in svg
    assert "<circle" not in svg
    assert svg.count("<line") >= 2


@pytest.mark.parametrize("window", [-1, -5])
def test_render_2d_rejects_a_negative_window(window):
    # it used to draw an inverted viewBox
    with pytest.raises(ValueError, match=f"^window must be >= 0, got {window}$"):
        render_2d(ex1_lattice(), QuasiCrossShape(3, 2, 2), window)


def test_render_2d_highlights_overlap():
    sp = make_cyclic_splitting(17, 3, 2, [1, 2])
    lat = lattice_from_splitting(sp)
    svg = render_2d(lat, sp.shape, 10)
    assert "#e05252" in svg


def test_render_2d_rejects_other_dimensions():
    with pytest.raises(ValueError):
        render_2d(IntegerLattice(((2,),)), QuasiCrossShape(2, 1, 1), 5)
    with pytest.raises(ValueError):
        render_2d(ex1_lattice(), QuasiCrossShape(3, 2, 3), 5)
    with pytest.raises(ValueError, match="^lattice dimension must be 2$"):
        render_2d(IntegerLattice(((2,),)), QuasiCrossShape(2, 1, 2), 5)
