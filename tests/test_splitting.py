from __future__ import annotations

from math import gcd

import pytest

from quasicross import (
    FiniteAbelianGroup,
    MultiplierSet,
    QuasiCrossShape,
    Singularity,
    Splitting,
    check_singular_prime_bound,
    classify_singularity,
    from_json,
    image,
    is_tiling,
    make_cyclic_splitting,
    to_json,
    two_one_splitting,
    unit_orbit_canonical,
    verify_packing,
)

import oracles


def z17_example():
    return make_cyclic_splitting(17, 3, 2, [1, 13])


def z16_tiling():
    return make_cyclic_splitting(16, 2, 1, [1, 3, 4, 5, 7])


def test_multiplier_set():
    m = MultiplierSet(3, 2)
    assert m.elements == (-2, -1, 1, 2, 3)
    assert len(m) == 5
    assert 0 not in m and -2 in m and 3 in m and 4 not in m
    with pytest.raises(ValueError):
        MultiplierSet(2, 2)
    with pytest.raises(ValueError):
        MultiplierSet(3, 0)


def test_count_divisible_by():
    assert MultiplierSet(2, 1).count_divisible_by(2) == 1
    assert MultiplierSet(4, 3).count_divisible_by(2) == 3
    assert MultiplierSet(3, 2).count_divisible_by(5) == 0


def test_shape_volume_and_ratio():
    shape = QuasiCrossShape(3, 2, 2)
    assert shape.volume == 11
    assert len(list(shape.cells())) == shape.volume
    with pytest.raises(ValueError):
        QuasiCrossShape(2, 2, 3)


def test_verify_packing_z17():
    assert verify_packing(z17_example()).ok


def test_verify_packing_counterexample_witness():
    bad = Splitting(
        FiniteAbelianGroup((4, 4)),
        MultiplierSet(2, 1),
        ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3)),
    )
    check = verify_packing(bad)
    assert not check.ok
    w = check.collision
    assert (w.m1, w.s1) == (2, (1, 0))
    assert (w.m2, w.s2) == (2, (1, 2))
    assert w.product == (2, 0)
    # oracle agrees there is no packing
    assert not oracles.brute_is_packing((4, 4), 2, 1, bad.splitters)


def test_verify_packing_z4_trivial():
    sp = make_cyclic_splitting(4, 2, 1, [1])
    assert verify_packing(sp).ok
    assert is_tiling(sp)


def test_zero_product_witness():
    sp = make_cyclic_splitting(8, 3, 2, [4])  # -2 * 4 = 0 mod 8
    check = verify_packing(sp)
    assert not check.ok
    assert check.collision.m2 is None
    assert (check.collision.m1, check.collision.s1) == (-2, (4,))
    assert check.collision.product == (0,)


def test_is_tiling():
    assert not is_tiling(z17_example())
    assert is_tiling(make_cyclic_splitting(25, 3, 1, [1, 5, 6, 11, 16, 21]))
    assert is_tiling(z16_tiling())
    assert oracles.brute_is_tiling((16,), 2, 1, [(s,) for s in (1, 3, 4, 5, 7)])


def test_is_tiling_rejects_non_packing():
    with pytest.raises(ValueError):
        is_tiling(make_cyclic_splitting(17, 3, 2, [1, 2]))


def test_classify_singularity():
    assert classify_singularity(z16_tiling()) is Singularity.PURELY_SINGULAR
    assert classify_singularity(z17_example()) is Singularity.NON_SINGULAR
    sp = make_cyclic_splitting(6, 2, 1, [1])
    assert classify_singularity(sp) is Singularity.SINGULAR


def test_singular_prime_bound():
    assert check_singular_prime_bound(z16_tiling())
    assert check_singular_prime_bound(make_cyclic_splitting(4, 2, 1, [1]))
    assert check_singular_prime_bound(two_one_splitting(3))
    with pytest.raises(ValueError):
        check_singular_prime_bound(z17_example())  # not a tiling


def test_unit_scaling_preserves_verdicts():
    for q, splitters, kp, km in [(17, (1, 13), 3, 2), (16, (1, 3, 4, 5, 7), 2, 1)]:
        sp = make_cyclic_splitting(q, kp, km, splitters)
        base_pack = verify_packing(sp).ok
        base_tile = is_tiling(sp) if base_pack else None
        for u in range(1, q):
            if gcd(u, q) != 1:
                continue
            scaled = make_cyclic_splitting(q, kp, km, [(u * s) % q for s in splitters])
            assert verify_packing(scaled).ok == base_pack
            if base_pack:
                assert is_tiling(scaled) == base_tile


def test_unit_orbit_canonical_is_orbit_invariant():
    sp = z16_tiling()
    canon = unit_orbit_canonical(sp).splitter_values()
    for u in (3, 5, 7, 9, 11, 13, 15):
        scaled = make_cyclic_splitting(16, 2, 1, [(u * s) % 16 for s in sp.splitter_values()])
        assert unit_orbit_canonical(scaled).splitter_values() == canon


def test_image_homomorphism():
    sp = z17_example()
    assert image(sp, (0, 0)) == (0,)
    assert image(sp, (0, 2)) == (9,)
    assert image(sp, (4, 1)) == (0,)  # lattice row from the 2-D example
    with pytest.raises(ValueError):
        image(sp, (1, 2, 3))


def test_splitter_distinctness_enforced():
    with pytest.raises(ValueError):
        make_cyclic_splitting(17, 3, 2, [1, 18])  # 18 reduces to 1


def test_json_round_trip():
    sp = z17_example()
    text = to_json(sp)
    assert text == '{"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [[1], [13]]}'
    back = from_json(text)
    assert back == sp
    field_sp = Splitting(
        FiniteAbelianGroup((5, 5)),
        MultiplierSet(3, 1),
        ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)),
    )
    assert from_json(to_json(field_sp)) == field_sp


def test_json_missing_field():
    with pytest.raises(ValueError):
        from_json('{"orders": [17]}')
