from __future__ import annotations

import re
import time
from math import gcd

import pytest

from quasicross import (
    FiniteAbelianGroup,
    MultiplierSet,
    QuasiCrossShape,
    Singularity,
    Splitting,
    classify_singularity,
    from_json,
    image,
    is_tiling,
    make_cyclic_splitting,
    to_json,
    two_one_splitting,
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
    assert oracles.count_divisible_by(2, 1, 2) == 1
    assert oracles.count_divisible_by(4, 3, 2) == 3
    assert oracles.count_divisible_by(3, 2, 5) == 0


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
    assert w.describe() == "2*(1,0) = 2*(1,2) = (2,0)"
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
    assert check.collision.describe() == "-2*4 = 0"


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
    # trial division stops at the root of 7, not at k_plus = 10^12; and at
    # k_plus = 10^6 for the prime 2^61 - 1, far below its root
    start = time.monotonic()
    assert classify_singularity(make_cyclic_splitting(7, 10**12, 1, [1])) is Singularity.PURELY_SINGULAR
    assert time.monotonic() - start < 1
    assert classify_singularity(make_cyclic_splitting(2**61 - 1, 10**6, 1, [1])) is Singularity.NON_SINGULAR


def test_classify_singularity_matches_the_brute_force_primes():
    # trial division of |G| stopped at k_plus decides it, as the primes
    # <= k_plus are exactly those dividing a multiplier; on every group
    # the wide arms have k_plus >= sqrt|G| (45) or k_plus >= |G| (2000,
    # 2500), where the division stops at the root, not at k_plus
    arms = [MultiplierSet(k_plus, k_minus) for k_plus in range(2, 13) for k_minus in range(1, k_plus)]
    arms += [MultiplierSet(k_plus, k_minus) for k_plus, k_minus in [(45, 1), (45, 44), (2000, 1), (2500, 7)]]
    groups = [FiniteAbelianGroup((q,)) for q in range(2, 2001)]
    groups += [FiniteAbelianGroup(orders) for orders in [(2, 2, 2), (4, 6), (3, 9, 5), (7, 14), (11, 11), (6, 10, 15)]]
    for group in groups:
        splitter = (1,) * len(group.orders)
        for m in arms:
            expected = oracles.classify_singularity(group.orders, m.k_plus, m.k_minus)
            assert classify_singularity(Splitting(group, m, (splitter,))).value == expected, (group, m)


def prime_bound(sp):
    arms = sp.multipliers
    return oracles.check_singular_prime_bound(sp.group.orders, arms.k_plus, arms.k_minus, sp.splitters)


def test_singular_prime_bound():
    assert prime_bound(z16_tiling())
    assert prime_bound(make_cyclic_splitting(4, 2, 1, [1]))
    assert prime_bound(two_one_splitting(3))
    with pytest.raises(ValueError, match="perfect"):
        prime_bound(z17_example())  # not a tiling
    with pytest.raises(ValueError, match="purely-singular"):
        prime_bound(make_cyclic_splitting(5, 3, 1, [1]))  # 5 divides no multiplier


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


@pytest.mark.parametrize(
    "splitters,message",
    [
        (((1,), (2.5,)), "element residues must be integers"),
        (((1,), (2, 3)), "element has 2 coordinates, group has 1"),
        (((1,), (18,)), "splitter elements must be distinct"),
    ],
    ids=["float", "wrong-length", "duplicate"],
)
def test_batch_splitter_validation_keeps_its_messages(splitters, message):
    # the splitters are validated in one pass over the batch; a bad
    # splitter after a good one raises the message it raised alone
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Splitting(FiniteAbelianGroup((17,)), MultiplierSet(3, 2), splitters)


def test_batch_reduction_is_the_element_reduction():
    g = FiniteAbelianGroup((4, 6, 5))
    batch = [(5, -1, 12), [9, 13, 0], (-4, 6, -6)]
    assert g.elements_of(batch) == tuple(g.elements_of([e])[0] for e in batch) == (
        (1, 5, 2), (1, 1, 0), (0, 0, 4)
    )
    sp = Splitting(g, MultiplierSet(2, 1), batch)
    assert sp.splitters == g.elements_of(batch)


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
