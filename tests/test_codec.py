from __future__ import annotations

import itertools
import re

import pytest

from quasicross import (
    CodeSpec,
    FiniteAbelianGroup,
    MultiplierSet,
    Splitting,
    SyndromeTable,
    decode,
    encode,
    field_splitting,
    make_code,
    make_cyclic_splitting,
    mixed_splitting,
    syndrome,
    two_one_splitting,
)
from quasicross import codec as codec_mod
from quasicross import splitting as split_mod
from quasicross.splitting import _scan_products

import oracles


def z17_code(levels=17):
    return make_code(make_cyclic_splitting(17, 3, 2, [1, 13]), levels)


def z4_code(levels=4):
    return make_code(make_cyclic_splitting(4, 2, 1, [1]), levels)


def test_build_table_z17():
    table = SyndromeTable(make_cyclic_splitting(17, 3, 2, [1, 13]))
    assert len(table) == 10
    assert table.entries[(9,)] == (1, 2)  # 2 * 13 = 26 = 9 mod 17
    # oracle: same ten products
    expected = oracles.brute_products((17,), 3, 2, [(1,), (13,)])
    assert set(table.entries) == set(expected)


def test_build_table_z4():
    table = SyndromeTable(make_cyclic_splitting(4, 2, 1, [1]))
    assert table.entries == {(1,): (0, 1), (2,): (0, 2), (3,): (0, -1)}


def test_table_is_the_scan_table(monkeypatch):
    scanned = []

    def scan(sp):
        scanned.append(_scan_products(sp))
        return scanned[-1]

    monkeypatch.setattr(codec_mod, "_scan_products", scan)
    sp = two_one_splitting(2)
    table = SyndromeTable(sp)
    [(check, products)] = scanned  # one scan, whose dict the table keeps
    assert check.tiling and table.entries is products
    assert products == {(m * s % 16,): (i, m) for i, s in enumerate((1, 3, 4, 5, 7)) for m in (-1, 1, 2)}


def test_build_table_covers_tiling():
    table = SyndromeTable(make_cyclic_splitting(16, 2, 1, [1, 3, 4, 5, 7]))
    assert len(table) == 15
    assert set(table.entries) == {(x,) for x in range(1, 16)}


def test_build_table_rejects_non_packing():
    with pytest.raises(RuntimeError):
        SyndromeTable(make_cyclic_splitting(17, 3, 2, [1, 2]))


def test_the_table_raises_the_one_non_packing_error_of_splitting():
    # `main` reports it once, as `lattice` and `decode` both raise it
    assert codec_mod.NotAPacking is split_mod.NotAPacking
    with pytest.raises(split_mod.NotAPacking, match=r"^not a packing: collision -2\*1 = -1\*2 = 15$"):
        SyndromeTable(make_cyclic_splitting(17, 3, 2, [1, 2]))


def test_syndrome():
    cs = z17_code()
    assert syndrome(cs, (0, 0)) == (0,)
    assert syndrome(cs, (0, 2)) == (9,)
    assert syndrome(cs, (8, 2)) == (0,)
    assert syndrome(cs, (25, 2)) == (0,)  # out-of-range input still reduces


def test_encode_zero_info():
    assert encode(z17_code(), [0], 0) == (0, 0)


def test_encode_z17_example():
    assert encode(z17_code(), [2], 0) == (8, 2)


def test_encode_z4_with_quotient():
    cs = z4_code(levels=8)
    assert encode(cs, [], 1) == (4,)
    assert encode(cs, [], 0) == (0,)


def test_encode_uses_a_bare_quotient_for_every_pivot():
    cs = make_code(field_splitting(5, 2, 3, 1), 10)  # two pivots
    info = (2, 3, 0, 4)
    assert encode(cs, info, 1) == encode(cs, info, [1, 1])
    assert encode(cs, info, 1) != encode(cs, info, [1, 0])


def test_encode_validates_ranges():
    cs = z17_code()
    with pytest.raises(ValueError):
        encode(cs, [17], 0)
    with pytest.raises(ValueError):
        encode(cs, [2], 1)  # quotient range is [0, 17/17)
    with pytest.raises(ValueError):
        encode(cs, [1, 2], 0)


@pytest.mark.parametrize(
    "info,quotients",
    [([2.7], [0]), ([2.0], [0]), ([2], [0.9]), ([2], 0.0), (["2"], [0]), ([2], "0")],
)
def test_encode_rejects_non_integer_digits(info, quotients):
    # int() used to truncate these: encode(cs, [2.7], [0.9]) gave (8, 2)
    with pytest.raises(ValueError, match="must be integers"):
        encode(z17_code(), info, quotients)


@pytest.mark.parametrize("word", [[8.9, 2.2], [8.0, 2], [8, None], ["8", "2"]])
def test_decode_rejects_non_integer_entries(word):
    # int() used to truncate [8.9, 2.2] to the clean word (8, 2)
    with pytest.raises(ValueError, match="word entries must be integers"):
        decode(z17_code(), word)


@pytest.mark.parametrize("word", [[8.9, 2.2], [8.0, 2], [8, None], ["8", "2"]])
def test_syndrome_rejects_non_integer_entries(word):
    # syndrome(cs, [8.9, 2.2]) used to return the float residue (3.5,)
    with pytest.raises(ValueError, match="word entries must be integers"):
        syndrome(z17_code(), word)


@pytest.mark.parametrize("levels", [17.0, 34.5, "17", None])
def test_make_code_rejects_non_integer_levels(levels):
    # make_code(sp, 17.0) used to keep levels = 17.0
    with pytest.raises(ValueError, match="levels must be integers"):
        make_code(make_cyclic_splitting(17, 3, 2, [1, 13]), levels)


def test_codec_accepts_integer_like_digits():
    class Digit:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    cs = z17_code()
    assert encode(cs, [Digit(2)], Digit(0)) == (8, 2)
    assert encode(cs, (x for x in [2]), [0]) == (8, 2)
    assert decode(cs, [Digit(8), Digit(4)]).codeword == (8, 2)
    assert syndrome(cs, (x for x in [Digit(8), Digit(4)])) == (9,)
    sp = make_cyclic_splitting(17, 3, 2, [1, 13])
    assert make_code(sp, Digit(34)) == make_code(sp, 34)


class Index:
    """An integer-like number that is not an int: it has only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _z3_z9_code():
    # unequal cyclic orders: reducing both syndrome coordinates mod 3 would
    # call the non-codeword (0, 3, 0, 0), with image (0, 3), clean
    group = FiniteAbelianGroup((3, 9))
    return Splitting(group, MultiplierSet(2, 1), ((1, 0), (0, 1), (1, 1), (1, 2))), 9


@pytest.mark.parametrize(
    "args",
    [
        _z3_z9_code(),
        (make_cyclic_splitting(17, 3, 2, [1, 13]), 17.5),
        (make_cyclic_splitting(17, 3, 2, [1, 13]), 0),
        (make_cyclic_splitting(17, 3, 2, [1, 13]), 18),
        (Splitting(FiniteAbelianGroup((4,)), MultiplierSet(2, 1), ((2,),)), 4),
    ],
    ids=["Z3xZ9", "levels-17.5", "levels-0", "levels-18", "no-pivots"],
)
def test_direct_codespec_rejects_what_make_code_rejects(args):
    with pytest.raises(ValueError) as via_make_code:
        make_code(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(str(via_make_code.value))}$"):
        CodeSpec(*args)


@pytest.mark.parametrize("levels", [17, 34, Index(34)])
def test_direct_codespec_equals_make_code(levels):
    sp = make_cyclic_splitting(17, 3, 2, [1, 13])
    cs = CodeSpec(sp, levels)
    assert cs == make_code(sp, levels)
    assert type(cs.levels) is int and cs.pivots == (0,)
    assert cs.solve == make_code(sp, levels).solve


def test_auto_pivots_take_one_elimination(monkeypatch):
    calls = []
    eliminate = codec_mod._unit_pivots

    def counting(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(codec_mod, "_unit_pivots", counting)
    sp = mixed_splitting(5, 1, 3, 1, 3)
    make_code(sp, 5)
    assert calls == [(sp.splitters, 5)]  # was 2: make_code chose the pivots, CodeSpec eliminated again


def test_decode_corrects_single_error():
    cs = z17_code()
    result = decode(cs, (8, 4))
    assert result.codeword == (8, 2)
    assert result.correction == (1, 2)


def test_decode_clean_word():
    cs = z17_code()
    result = decode(cs, (8, 2))
    assert result.codeword == (8, 2)
    assert result.correction is None
    assert not result.uncorrectable


def test_decode_uncorrectable_on_packing_gap():
    cs = z17_code()
    # products are {1,2,3,4,5,8,9,13,15,16}; syndrome 6 is not one of them
    result = decode(cs, (6, 0))
    assert result.uncorrectable
    assert result.codeword is None


def test_make_code_levels_validation():
    sp = make_cyclic_splitting(17, 3, 2, [1, 13])
    with pytest.raises(ValueError):
        make_code(sp, 18)
    assert make_code(sp, 34).quotient_levels == 2


def test_make_code_pivot_validation():
    sp = make_cyclic_splitting(16, 2, 1, [1, 3, 4, 5, 7])
    assert make_code(sp, 16).pivots == (0,)
    # splitter 4 is not a unit mod 16, so the first unit column is the pivot
    assert make_code(make_cyclic_splitting(16, 2, 1, [4, 3, 1]), 16).pivots == (1,)
    with pytest.raises(ValueError, match="^no invertible pivot system found among the splitter columns$"):
        make_code(make_cyclic_splitting(16, 2, 1, [2, 4, 6]), 16)


def test_round_trip_all_single_errors_z16():
    sp = two_one_splitting(2)
    cs = make_code(sp, 16)
    table = SyndromeTable(sp)
    count = 0
    for info in itertools.islice(itertools.product(range(16), repeat=4), 200):
        c = encode(cs, info, 0)
        assert syndrome(cs, c) == (0,)
        for i in range(5):
            for m in (-1, 1, 2):
                word = list(c)
                word[i] += m
                result = decode(cs, word, table)
                assert result.codeword == c
                assert result.correction == (i, m)
                count += 1
    assert count == 200 * 15


def test_round_trip_exhaustive_n1():
    cs = z4_code(levels=8)
    for t in range(2):
        c = encode(cs, [], t)
        for m in (-1, 1, 2):
            result = decode(cs, [c[0] + m])
            assert result.codeword == c
            assert result.correction == (0, m)


def test_decode_translation_invariance():
    # decode(y + c') = decode(y) + c' for any codeword c'
    sp = two_one_splitting(2)
    cs = make_code(sp, 16)
    table = SyndromeTable(sp)
    c1 = encode(cs, (3, 1, 4, 1), 0)
    c2 = encode(cs, (5, 9, 2, 6), 0)
    received = [x + 2 if i == 0 else x for i, x in enumerate(c1)]
    base = decode(cs, received, table)
    shifted = decode(cs, [y + b for y, b in zip(received, c2)], table)
    assert base.correction == shifted.correction == (0, 2)
    assert shifted.codeword == tuple(a + b for a, b in zip(base.codeword, c2))


def test_product_group_code():
    sp = field_splitting(5, 2, 3, 1)
    cs = make_code(sp, 5)
    # identity-like columns (0,1) and (1,0) sit at coordinates 0 and 1
    assert cs.pivots == (0, 1)
    info = (2, 3, 0, 4)
    c = encode(cs, info, (0, 0))
    assert syndrome(cs, c) == (0, 0)
    table = SyndromeTable(sp)
    for i in range(6):
        for m in (-1, 1, 2, 3):
            word = list(c)
            word[i] += m
            result = decode(cs, word, table)
            assert result.codeword == c
            assert result.correction == (i, m)


def test_mixed_group_code_round_trip():
    sp = mixed_splitting(5, 1, 3, 1, 2)
    cs = make_code(sp, 10)
    assert cs.quotient_levels == 2
    c = encode(cs, (7, 3, 9, 1), (1, 0))
    assert syndrome(cs, c) == (0, 0)
    result = decode(cs, [c[0], c[1], c[2] + 3, c[3], c[4], c[5]])
    assert result.codeword == c
    assert result.correction == (2, 3)


def test_code_rejects_mixed_order_groups():
    sp = Splitting(FiniteAbelianGroup((2, 4)), MultiplierSet(2, 1), ((1, 1),))
    with pytest.raises(ValueError):
        make_code(sp, 8)
