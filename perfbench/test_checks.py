"""The benchmark's checkers accept right outputs and reject corrupted ones.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import os
import sys
import unittest
from types import SimpleNamespace as NS

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

# Z_25 with arms (3, 1): the paper's cyclic construction, n = 6.
Z25 = ((25,), 3, 1, [(1,), (5,), (6,), (11,), (16,), (21,)])


class TilingCheck(unittest.TestCase):
    def test_accepts_constructions(self):
        checks.check_tiling(*Z25)
        for ell in (2, 3):
            q = 4**ell
            checks.check_tiling((q,), 2, 1, [(s,) for s in checks.two_one_construction(ell)])

    def test_rejects_collision(self):
        orders, kp, km, splitters = Z25
        corrupted = splitters[:-1] + [(2,)]  # 2*1 = 1*2
        with self.assertRaises(CheckError):
            checks.check_tiling(orders, kp, km, corrupted)

    def test_rejects_packing_that_is_not_a_tiling(self):
        with self.assertRaises(CheckError):
            checks.check_tiling((11,), 2, 1, [(1,), (4,)])


class CanonicalCheck(unittest.TestCase):
    def test_accepts_orbit_minimum(self):
        checks.check_canonical(25, [1, 5, 6, 11, 16, 21])

    def test_rejects_non_minimal_representative(self):
        scaled = sorted(2 * s % 25 for s in (1, 5, 6, 11, 16, 21))  # same orbit, not minimal
        with self.assertRaises(CheckError):
            checks.check_canonical(25, scaled)


class DecodeCheck(unittest.TestCase):
    """A decoded word off by one is caught by the syndrome and by the
    comparison the workloads make against the sent codeword."""

    # 5 + 6 + 11 + 16 + 21 = 59, so x_1 = 16 makes the syndrome 75 = 0 (mod 25).
    CODEWORD = [16, 1, 1, 1, 1, 1]

    def test_syndrome_of_codeword_is_zero(self):
        orders, _, _, splitters = Z25
        self.assertEqual(checks.syndrome(orders, splitters, self.CODEWORD), (0,))

    def test_rejects_word_off_by_one(self):
        orders, _, _, splitters = Z25
        off = list(self.CODEWORD)
        off[3] += 1
        self.assertNotEqual(checks.syndrome(orders, splitters, off), (0,))

    def test_stream_rejects_decoded_word_off_by_one(self):
        orders, kp, km, splitters = Z25
        sp = NS(group=NS(orders=orders), splitters=splitters,
                multipliers=NS(k_plus=kp, k_minus=km))
        codes = [("Z_25", sp, None, None, 25)]
        info = self.CODEWORD[1:]
        sent = tuple(self.CODEWORD)
        received = NS(codeword=sent, correction=(2, 1))
        rnd = workloads.Round(outputs=[(0, info, sent, (2, 1), received)])
        workloads.CodecStream().check(codes, rnd, first=False)
        off = list(sent)
        off[2] += 1
        rnd.outputs = [(0, info, sent, (2, 1), NS(codeword=tuple(off), correction=(2, 1)))]
        with self.assertRaises(CheckError):
            workloads.CodecStream().check(codes, rnd, first=False)

    def test_cli_rejects_decoded_word_off_by_one(self):
        check = workloads.CliSession().decode_check(list(self.CODEWORD), (2, 1))
        check("codeword 16 1 1 1 1 1, corrected (i=3, m=+1)\n")
        with self.assertRaises(CheckError):
            check("codeword 16 1 2 1 1 1, corrected (i=3, m=+1)\n")

    def test_systematic_digits(self):
        checks.check_systematic([3, 4], [9, 3, 4], 1)
        with self.assertRaises(CheckError):
            checks.check_systematic([3, 4], [9, 4, 3], 1)


class KernelBasisCheck(unittest.TestCase):
    def basis(self):
        # Closed form for a cyclic splitting with s_1 = 1: row 0 is q e_1,
        # row i is e_i - s_i e_1.
        _, _, _, splitters = Z25
        n = len(splitters)
        rows = [[25] + [0] * (n - 1)]
        for i in range(1, n):
            row = [0] * n
            row[0], row[i] = -splitters[i][0] % 25, 1
            rows.append(row)
        return rows

    def test_accepts_kernel_basis(self):
        orders, _, _, splitters = Z25
        checks.check_kernel_basis(orders, splitters, self.basis())

    def test_rejects_row_outside_kernel(self):
        orders, _, _, splitters = Z25
        rows = self.basis()
        rows[2][0] += 1
        with self.assertRaises(CheckError):
            checks.check_kernel_basis(orders, splitters, rows)

    def test_rejects_sublattice(self):
        orders, _, _, splitters = Z25
        rows = self.basis()
        rows[1] = [2 * x for x in rows[1]]  # still in the kernel, index 2
        with self.assertRaises(CheckError):
            checks.check_kernel_basis(orders, splitters, rows)


class RuleChecks(unittest.TestCase):
    def test_dimension_inequality(self):
        # (3, 2) at n = 2: (2*3*3 - 4)/5 = 14/5 > 2.
        self.assertTrue(checks.dimension_ruled_out(3, 2, 2))
        self.assertFalse(checks.dimension_ruled_out(3, 1, 6))

    def test_two_one_orders(self):
        self.assertFalse(checks.instance_ruled_out(2, 1, 16))
        self.assertFalse(checks.instance_ruled_out(2, 1, 64))
        self.assertTrue(checks.instance_ruled_out(2, 1, 100))

    def test_exhaustive_search(self):
        self.assertEqual(checks.exhaustive_classes(16, 2, 1), {(1, 3, 4, 5, 7)})
        self.assertEqual(len(checks.exhaustive_classes(25, 3, 1)), 4)
        self.assertEqual(checks.exhaustive_classes(25, 2, 1), set())


class PlotCheck(unittest.TestCase):
    def test_lattice_point_count(self):
        # x + 4y = 0 (mod 11) with |x|, |y| < 5: (0,0), +-(-4,1), +-(3,2), +-(-1,3).
        checks.check_lattice_points_2d(11, 1, 4, 5, 7)
        with self.assertRaises(CheckError):
            checks.check_lattice_points_2d(11, 1, 4, 5, 8)


if __name__ == "__main__":
    unittest.main()
