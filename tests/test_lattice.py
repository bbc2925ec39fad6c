from __future__ import annotations

import json
from fractions import Fraction

import pytest

from quasicross import (
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
    packing_density,
    period,
    render_2d,
    to_json,
    two_one_splitting,
    verify_packing,
)
from quasicross.cli import main
from quasicross.intlinalg import hnf_lower

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


def test_closed_form_matches_general_kernel():
    from quasicross.lattice import _kernel_lattice_general

    cases = [
        cyclic_splitting(5, 2, 3, 1),
        two_one_splitting(2),
        make_cyclic_splitting(17, 3, 2, [1, 13]),
        make_cyclic_splitting(16, 2, 1, [5, 1, 3, 4, 7]),  # unit first, unsorted
    ]
    for sp in cases:
        assert lattice_from_splitting(sp).basis == _kernel_lattice_general(sp).basis


def test_hnf_canonicalizes_equivalent_bases():
    # the 2-D example basis and its kernel form generate the same lattice
    direct = IntegerLattice(((4, 1), (3, 5))).hnf()
    derived = lattice_from_splitting(make_cyclic_splitting(17, 3, 2, [1, 13]))
    assert direct.basis == derived.basis == ((17, 0), (4, 1))


def test_alternative_generating_rows_are_members():
    lat = lattice_from_splitting(make_cyclic_splitting(17, 3, 2, [1, 13]))
    assert lat.contains((4, 1))
    assert lat.contains((3, 5))
    assert not lat.contains((1, 0))
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
            assert lat.contains(axis)
            for smaller in range(1, t):
                axis[i] = smaller
                assert not lat.contains(axis)
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


def test_geometric_check_tiling():
    report = geometric_check(two_one_splitting(2))
    assert report.verdict == "tiling"
    assert report.uncovered == 0


def test_geometric_check_packing_counts_uncovered():
    report = geometric_check(make_cyclic_splitting(17, 3, 2, [1, 13]))
    assert report.verdict == "packing"
    assert report.uncovered == 6


def test_geometric_check_overlap_witness():
    report = geometric_check(make_cyclic_splitting(17, 3, 2, [1, 2]))
    assert report.verdict == "overlap"
    assert report.witness is not None
    a, b = report.witness
    assert a != b and a is not None and b is not None


def test_geometric_check_guard():
    # volume 3*33334+1 = 100003 exceeds the enumeration guard
    sp = make_cyclic_splitting(10**6 + 3, 2, 1, range(1, 33335))
    with pytest.raises(ValueError, match="guard"):
        geometric_check(sp)


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


def test_hnf_lower_properties():
    h = hnf_lower([[4, 1], [3, 5]])
    assert h == [[17, 0], [4, 1]]
    # idempotent and sign-normalizing
    assert hnf_lower(h) == h
    assert hnf_lower([[-4, -1], [3, 5]]) == h


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
