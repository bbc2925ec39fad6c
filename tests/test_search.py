from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasicross import (
    SearchTimeout,
    classify_singularity,
    geometric_check,
    instance_feasibility,
    is_tiling,
    search_tilings,
    survey,
    survey_csv,
    survey_summary,
    verify_packing,
)
from quasicross import search as search_mod
from quasicross.cli import build_parser, main
from quasicross.groups import prime_factors
from quasicross.search import survey_instances
from quasicross.splitting import MultiplierSet, Singularity

import oracles
from capped import cli_in_512_mib


def test_search_21_q16_single_orbit():
    found = search_tilings(2, 1, 16)
    assert len(found) == 1
    assert found[0].splitter_values() == (1, 3, 4, 5, 7)
    raw = search_tilings(2, 1, 16, dedupe=False)
    assert len(raw) == 8  # the full unit-scaling orbit
    canonical = {oracles.orbit_min(16, sp.splitter_values()) for sp in raw}
    assert canonical == {(1, 3, 4, 5, 7)}


@pytest.mark.parametrize(
    "k_plus,k_minus,q,dedupe,classes",
    [(2, 1, 64, True, 64), (2, 1, 16, False, 8), (3, 1, 25, True, 4), (2, 1, 7, True, 0)],
)
def test_search_scans_each_result_once(scans, k_plus, k_minus, q, dedupe, classes):
    found = search_tilings(k_plus, k_minus, q, dedupe=dedupe)
    assert len(found) == classes
    assert scans == found


def test_search_21_q7_empty():
    assert search_tilings(2, 1, 7) == []


def test_search_non_divisible_order_is_empty():
    assert search_tilings(2, 1, 9) == []


def test_search_31_q25_contains_known_class():
    found = search_tilings(3, 1, 25)
    classes = [sp.splitter_values() for sp in found]
    assert (1, 5, 6, 11, 16, 21) in classes
    assert classes == sorted(classes)
    for sp in found:
        assert verify_packing(sp).ok
        assert is_tiling(sp)
        assert oracles.brute_is_tiling((25,), 3, 1, sp.splitters)


def test_search_n1_trivial():
    found = search_tilings(3, 2, 6)
    assert [sp.splitter_values() for sp in found] == [(1,)]


def test_search_21_exhaustive_orders_up_to_100():
    # counting n = 1: arms (2, 1) tile Z_q only for q in {4, 16, 64}
    tiled = {
        q for q in range(2, 101) if search_tilings(2, 1, q, find_all=False)
    }
    assert tiled == {4, 16, 64}


def test_search_first_only():
    found = search_tilings(2, 1, 64, find_all=False)
    assert len(found) == 1
    assert is_tiling(found[0])


@st.composite
def instances(draw, k_max=6, q_max=60):
    """Arms up to k_max and an order q <= q_max, mostly one that
    k_plus + k_minus divides q - 1 for."""
    k_plus = draw(st.integers(2, k_max))
    k_minus = draw(st.integers(1, k_plus - 1))
    span = k_plus + k_minus
    divisible = st.integers(1, (q_max - 1) // span).map(lambda n: n * span + 1)
    q = draw(st.one_of(st.integers(2, q_max), divisible))
    return k_plus, k_minus, q


def assert_matches_reference(k_plus, k_minus, q):
    # the reference fixes no splitter, branches on the smallest uncovered
    # residue and ignores the gcd classes; every output must equal what it implies
    raw = oracles.reference_search(k_plus, k_minus, q)
    values = lambda found: [sp.splitter_values() for sp in found]
    classes = values(search_tilings(k_plus, k_minus, q))
    assert classes == sorted({oracles.orbit_min(q, sol) for sol in raw})
    assert values(search_tilings(k_plus, k_minus, q, dedupe=False)) == sorted(raw)
    first = values(search_tilings(k_plus, k_minus, q, find_all=False))
    assert len(first) == min(1, len(classes)) and set(first) <= set(classes)


@settings(max_examples=300, deadline=None)
@given(instances())
def test_search_matches_the_smallest_residue_reference(instance):
    assert_matches_reference(*instance)


def big_part(q, k_plus):
    """u: q with every prime factor up to k_plus divided out."""
    for p in range(2, k_plus + 1):
        while q % p == 0:
            q //= p
    return q


@pytest.mark.parametrize("k_plus", range(2, 11))
def test_each_block_lies_in_one_gcd_class(k_plus):
    # the largest multiplier set for k_plus; every grid arm pair's is a subset
    ms = oracles.multiplier_list(k_plus, k_plus - 1)
    for q in range(2, 201):
        u = big_part(q, k_plus)
        for s in range(1, q):
            assert {gcd(m * s % q, u) for m in ms} == {gcd(s, u)}


def size_test(q, u, k_plus, k_minus):
    """The search's size test on q's one factorisation."""
    powers = prime_factors(q, search_mod.TRIAL_LIMIT)
    return search_mod._size_test(q, u, powers, MultiplierSet(k_plus, k_minus))


@pytest.mark.parametrize("k_plus", range(2, 11))
def test_class_sizes_match_a_count(k_plus):
    # |C_d| = (q/u) * phi(u/d), less 1 for d = u, against a count of each
    # residue's gcd with u, and the size test's verdict against whether
    # span divides every counted class, for every arm pair
    for q in range(2, 201):
        u = big_part(q, k_plus)
        counted = Counter(gcd(r, u) for r in range(1, q))
        for d in range(1, u + 1):
            if u % d == 0:
                phi = sum(1 for r in range(1, u // d + 1) if gcd(r, u // d) == 1)
                assert counted[d] == q // u * phi - (d == u)
        for k_minus in range(1, k_plus):
            span = k_plus + k_minus
            assert size_test(q, u, k_plus, k_minus) == all(size % span == 0 for size in counted.values())


@pytest.mark.parametrize("k_plus", [2, 3, 5, 10, 100, 30000])
def test_class_sizes_factor_every_order_below_the_square_of_the_trial_limit(k_plus):
    # trial division stops at 28285, so every q < 28285^2 is factored
    # exactly: the factorisation and the size test's verdict against a
    # sieve's factorisation of each q and the class sizes it gives
    smallest = oracles.smallest_prime_factors(60000)
    spans = sorted({k_plus + 1, k_plus + k_plus // 2, 2 * k_plus - 1})  # k_minus 1, k_plus/2, k_plus - 1
    for q in range(2, 60001):
        powers, n = Counter(), q
        while n > 1:
            powers[smallest[n]] += 1
            n //= smallest[n]
        assert prime_factors(q, search_mod.TRIAL_LIMIT) == {p: p**a for p, a in powers.items()}
        phi = {1: 1}  # each divisor e of u -> phi(e)
        for p, a in powers.items():
            if p > k_plus:
                phi = {e * p**i: f * (p**i - p ** (i - 1) if i else 1) for e, f in phi.items() for i in range(a + 1)}
        u = max(phi)
        sizes = [q // u * f - (e == 1) for e, f in phi.items()]
        for span in spans:
            assert size_test(q, u, k_plus, span - k_plus) == all(size % span == 0 for size in sizes)


@pytest.mark.parametrize("k_plus", range(2, 11))
def test_class_masks_match_a_gcd_loop(k_plus):
    # the closed form, by inclusion-exclusion over the masks of multiples,
    # against each residue's gcd with u
    for q in range(2, 301):
        u = big_part(q, k_plus)
        divisors = [d for d in range(1, u + 1) if u % d == 0]
        expected = {d: sum(1 << r for r in range(1, q) if gcd(r, u) == d) for d in divisors}
        assert search_mod._class_masks(q, u) == expected


@pytest.mark.parametrize("k_plus", range(2, 7))
def test_cover_blocks_match_the_brute_product_sets(k_plus):
    # every arm pair with this k_plus and every q <= 90, singular q included
    for k_minus in range(1, k_plus):
        multipliers = MultiplierSet(k_plus, k_minus)
        for q in range(2, 91):
            blocks = oracles.product_sets(k_plus, k_minus, q)
            # the order rule: the products are distinct and nonzero iff ord(s) > span
            assert set(blocks) == {s for s in range(1, q) if q // gcd(s, q) > k_plus + k_minus}
            expected = [0] * q
            for s, prods in blocks.items():
                for p in prods:
                    expected[p] |= 1 << s
            clock_checks = []
            assert search_mod._cover_blocks(q, multipliers, lambda: clock_checks.append(q)) == expected
            assert len(clock_checks) == k_plus  # once per multiplier pass


@pytest.mark.parametrize("k_plus", range(2, 11))
def test_layer_witness_matches_a_count_of_each_class(k_plus):
    # L_P and |M_P| in closed form against every class of every layer
    # counted residue by residue, each P up to the first that fails
    for k_minus in range(1, k_plus):
        multipliers = MultiplierSet(k_plus, k_minus)
        for q in range(2, 301):
            assert search_mod._layer_witness(prime_factors(q), multipliers) == oracles.layer_witness(q, k_plus, k_minus)


def decided_by(witness, k_max, q_max):
    """The grid instances that pass the size test and have a `witness`
    (`_layer_witness` or `_cyclotomic_witness`): those that rule decides."""
    decided = []
    for k_plus, k_minus, q in survey_instances(k_max, q_max):
        if size_test(q, big_part(q, k_plus), k_plus, k_minus):
            if witness(prime_factors(q), MultiplierSet(k_plus, k_minus)):
                decided.append((k_plus, k_minus, q))
    return decided


def test_no_instance_the_layer_rule_decides_has_a_tiling(monkeypatch):
    decided = decided_by(search_mod._layer_witness, 10, 1000)
    assert len(decided) == 217
    monkeypatch.setattr(search_mod, "_layer_witness", lambda *args: None)
    assert [key for key in decided if search_tilings(*key, find_all=False)] == []


def test_the_layer_rule_decides_54_grid_instances_before_the_set_up(monkeypatch):
    decided = decided_by(search_mod._layer_witness, 10, 100)
    assert len(decided) == 54
    assert {(4, 1, 16), (3, 2, 81), (5, 2, 50), (10, 9, 96)} <= set(decided)
    cyclotomic = decided_by(search_mod._cyclotomic_witness, 10, 100)
    assert len(cyclotomic) == 167 and not set(cyclotomic) & set(decided)
    ruled = {*decided, *cyclotomic}
    built, cover_blocks = [], search_mod._cover_blocks

    def counted(q, multipliers, check_clock):
        built.append((multipliers.k_plus, multipliers.k_minus, q))
        return cover_blocks(q, multipliers, check_clock)

    monkeypatch.setattr(search_mod, "_cover_blocks", counted)
    rows = survey(10, 100, prune_with_bounds=False)
    assert len(built) == 39 and not set(built) & ruled
    assert all(not row.tilings for row in rows if (row.k_plus, row.k_minus, row.q) in ruled)


@pytest.mark.parametrize("k_plus", range(2, 11))
def test_cyclotomic_witness_matches_a_discrete_log_table(k_plus):
    # every q <= 300, singular q included, where both give None
    for k_minus in range(1, k_plus):
        multipliers = MultiplierSet(k_plus, k_minus)
        for q in range(2, 301):
            assert search_mod._cyclotomic_witness(prime_factors(q), multipliers) == oracles.cyclotomic_witness(q, k_plus, k_minus)


@pytest.mark.parametrize("k_plus,k_minus", [(3, 1), (5, 3), (9, 7)])
def test_cyclotomic_witness_matches_a_discrete_log_table_on_wide_2_parts(k_plus, k_minus):
    # 16 | p - 1, so r = 2 gives 4 or more levels, each tested for
    # invariance under zeta = -1
    multipliers, smallest = MultiplierSet(k_plus, k_minus), oracles.smallest_prime_factors(3000)
    for p in range(17, 3000, 16):
        if smallest[p] == p:
            assert search_mod._cyclotomic_witness({p: p}, multipliers) == oracles.cyclotomic_witness(p, k_plus, k_minus)


@pytest.mark.parametrize("k_plus,k_minus", [(3, 1), (7, 1)])
def test_cyclotomic_witness_matches_a_discrete_log_table_on_12_levels(k_plus, k_minus):
    # 12289 - 1 = 3 * 2^12: the values m^3 are squared level after level;
    # (7,1) is balanced at one level of the 12, (3,1) at none
    expected = oracles.cyclotomic_witness(12289, k_plus, k_minus)
    assert search_mod._cyclotomic_witness({12289: 12289}, MultiplierSet(k_plus, k_minus)) == expected


def test_no_instance_the_cyclotomic_rule_decides_has_a_tiling(monkeypatch):
    decided = decided_by(search_mod._cyclotomic_witness, 10, 1000)
    assert len(decided) == 1525 and not set(decided) & set(decided_by(search_mod._layer_witness, 10, 1000))
    monkeypatch.setattr(search_mod, "_cyclotomic_witness", lambda *args: None)
    assert [key for key in decided if search_tilings(*key, find_all=False)] == []


@pytest.mark.parametrize("k_plus,k_minus,q", [(4, 2, 181), (3, 1, 577), (4, 2, 973), (3, 1, 745)])
def test_tiled_nonsingular_instances_pass_the_cyclotomic_rule(k_plus, k_minus, q):
    assert search_mod._cyclotomic_witness(prime_factors(q), MultiplierSet(k_plus, k_minus)) is None
    assert search_tilings(k_plus, k_minus, q, find_all=False)


def test_the_cyclotomic_rule_decides_a_prime_near_the_cover_mask_budget():
    # 28057 is prime, 4 | 28056 and its masks, about 98 MB, pass the
    # budget, but the rule decides it before any is built: this search
    # once took about a minute and 156 MiB
    assert search_mod._cyclotomic_witness(prime_factors(28057), MultiplierSet(3, 1)) == (28057, 1)
    start = time.monotonic()
    proc = cli_in_512_mib("search", "--kplus", "3", "--kminus", "1", "--q", "28057")
    assert time.monotonic() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 canonical tiling(s)\n", b"")


@st.composite
def residue_sets(draw):
    """q <= 60 and a subset of Z_q that holds 1, as every set the search
    canonicalises does."""
    q = draw(st.integers(2, 60))
    return q, tuple(sorted({1, *draw(st.lists(st.integers(0, q - 1), unique=True))}))


@settings(max_examples=300, deadline=None)
@given(residue_sets())
@example((12, (0, 1, 2, 3, 9)))
@example((2, (1,)))
def test_orbit_min_matches_the_scan_over_every_unit(instance):
    q, values = instance
    assert search_mod._orbit_min(q, [values], lambda: None) == [oracles.orbit_min(q, values)]


# every raw splitter set that holds 1
WITH_ONE_2_1 = {q: [values for values in oracles.reference_search(2, 1, q) if 1 in values] for q in (16, 64)}


@st.composite
def orbit_lists(draw):
    """q and a shuffled list of sorted sets that hold 1 and repeat members
    of their orbits: random sets, or raw splitter sets of (2,1,16) or
    (2,1,64), each with some of their unit multiples that hold 1."""
    q = draw(st.sampled_from(sorted(WITH_ONE_2_1)) | st.integers(2, 40))
    if q in WITH_ONE_2_1:
        pool = st.sampled_from(WITH_ONE_2_1[q])
    else:
        pool = st.lists(st.integers(0, q - 1), unique=True).map(lambda values: {1, *values})
    seeds = draw(st.lists(pool, max_size=6))
    inverses = [
        (seed, pow(draw(st.sampled_from([s for s in seed if gcd(s, q) == 1])), -1, q))
        for seed in seeds for _ in range(draw(st.integers(0, 2)))
    ]
    repeats = [[u * s % q for s in seed] for seed, u in inverses]
    return q, draw(st.permutations([tuple(sorted(s)) for s in seeds + repeats]))


@settings(max_examples=200, deadline=None)
@given(orbit_lists())
@example((16, WITH_ONE_2_1[16]))
@example((64, WITH_ONE_2_1[64]))
def test_orbit_min_gives_one_minimum_per_orbit_in_first_met_order(instance):
    q, sets = instance
    expected = list(dict.fromkeys(oracles.orbit_min(q, values) for values in sets))
    assert search_mod._orbit_min(q, sets, lambda: None) == expected


def test_orbit_min_builds_each_orbit_once(monkeypatch):
    # the search's solutions all hold 1, and so does every member built for
    # them, so each later member of an orbit is skipped
    scaled_from = Counter()
    scaled = search_mod._scaled
    monkeypatch.setattr(
        search_mod, "_scaled", lambda q, u, values: scaled_from.update([values]) or scaled(q, u, values)
    )
    minima = search_mod._orbit_min(64, WITH_ONE_2_1[64], lambda: None)
    assert len(minima) == len(set(minima)) == 64
    assert len(scaled_from) == 64  # one set of each orbit is scaled


def test_orbit_min_keeps_no_copy_of_the_members_it_builds():
    # it once kept every member of every orbit, a fresh tuple each, so its
    # peak outgrew the sets it was given: (3,1,577) peaked at 1,287 MiB
    sets = WITH_ONE_2_1[64]
    given_bytes = sum(map(sys.getsizeof, sets))  # 1,024 tuples of 21 entries
    tracemalloc.start()
    try:
        search_mod._orbit_min(64, sets, lambda: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sets) == 1024
    assert peak < given_bytes * 3 // 4


# singular instances (a prime of q at most k_plus), where many choice
# orders reach one covered set and the search skips the dead ones
SINGULAR = [(2, 1, q) for q in range(4, 65, 4)] + [(4, 1, 16), (3, 2, 16)]


@pytest.mark.parametrize("k_plus,k_minus,q", SINGULAR)
def test_search_matches_the_reference_on_singular_instances(k_plus, k_minus, q):
    assert_matches_reference(k_plus, k_minus, q)


@pytest.mark.parametrize("k_plus,k_minus,q", [(4, 1, 16), (3, 2, 16)])
def test_search_without_the_layer_rule_matches_the_reference(monkeypatch, k_plus, k_minus, q):
    # the layer rule decides these two before the set-up; with it patched
    # out, the memo and the DFS still meet singular instances with no tiling
    assert search_mod._layer_witness(prime_factors(q), MultiplierSet(k_plus, k_minus)) is not None
    monkeypatch.setattr(search_mod, "_layer_witness", lambda *args: None)
    assert_matches_reference(k_plus, k_minus, q)


@pytest.mark.parametrize("k_plus,k_minus,q", [(3, 1, 25), (4, 2, 49), (5, 1, 49), (2, 1, 76), (2, 1, 100)])
def test_search_matches_the_reference_across_classes(k_plus, k_minus, q):
    masks = search_mod._class_masks(q, big_part(q, k_plus))
    assert sum(1 for mask in masks.values() if mask) >= 2
    assert_matches_reference(k_plus, k_minus, q)


# pruned-survey instances with 100 < q <= 200 that the smallest-residue
# search (`oracles.reference_search`) does not decide within 30 s
UNDECIDED_AT_30S = [(3, 1, 181), (3, 1, 193), (3, 1, 197), (4, 2, 199), (3, 1, 185), (3, 2, 171)]


@pytest.mark.parametrize("k_plus,k_minus,q", UNDECIDED_AT_30S)
def test_search_decides_former_timeouts_without_a_tiling(k_plus, k_minus, q):
    assert search_tilings(k_plus, k_minus, q, time_limit=30) == []


# singular instances with no tiling that once took from 5 s to a minute
# each, walking every choice order of the same dead covered sets
@pytest.mark.parametrize(
    "k_plus,k_minus,q,find_all",
    [(2, 1, 148, True), (2, 1, 172, True), (2, 1, 196, True), (2, 1, 172, False), (3, 2, 246, False)],
)
def test_search_decides_singular_instances_without_a_tiling(k_plus, k_minus, q, find_all):
    assert search_tilings(k_plus, k_minus, q, find_all=find_all, time_limit=5) == []


def test_search_31_q173_is_the_fourth_power_residues():
    # the one class is the orbit of the fourth powers mod 173
    found = search_tilings(3, 1, 173, time_limit=30)
    fourth_powers = {pow(x, 4, 173) for x in range(1, 173)}
    assert [sp.splitter_values() for sp in found] == [oracles.orbit_min(173, fourth_powers)]


@pytest.mark.parametrize("k_plus,k_minus,q,holding_1", [(2, 1, 64, 1024), (3, 1, 25, 4), (3, 1, 125, 16)])
def test_find_all_refuses_past_its_budget_from_the_exact_count(monkeypatch, k_plus, k_minus, q, holding_1):
    # (3,1,25) has two gcd classes and (3,1,125) three, so their counts are products
    assert sum(1 in values for values in oracles.reference_search(k_plus, k_minus, q)) == holding_1
    classes = len(search_tilings(k_plus, k_minus, q))
    monkeypatch.setattr(search_mod, "FIND_ALL_MAX_TILINGS", holding_1 - 1)
    with pytest.raises(ValueError) as refused:
        search_tilings(k_plus, k_minus, q)
    assert str(refused.value) == (
        f"search ({k_plus},{k_minus}) over Z_{q} has {holding_1} tilings that hold 1, "
        f"more than the {holding_1 - 1} a find-all lists"
    )
    assert len(search_tilings(k_plus, k_minus, q, find_all=False)) == 1
    monkeypatch.setattr(search_mod, "FIND_ALL_MAX_TILINGS", holding_1)
    assert len(search_tilings(k_plus, k_minus, q)) == classes
    # without dedupe it lists every raw tiling, |U_M| per one that holds 1
    raw = holding_1 * sum(gcd(m, q) == 1 for m in oracles.multiplier_list(k_plus, k_minus))
    with pytest.raises(ValueError) as refused:
        search_tilings(k_plus, k_minus, q, dedupe=False)
    assert str(refused.value) == (
        f"search ({k_plus},{k_minus}) over Z_{q} has {raw} raw tilings, "
        f"more than the {holding_1} a find-all lists"
    )
    monkeypatch.setattr(search_mod, "FIND_ALL_MAX_TILINGS", raw)
    assert len(search_tilings(k_plus, k_minus, q, dedupe=False)) == raw


def test_find_all_leaves_no_cycle_holding_its_lists():
    # the recursive dfs refers to itself; unless the search breaks that
    # cycle, each find-all's memo and tables wait for the cyclic GC
    search_tilings(2, 1, 64)  # fills the module caches first
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(10):
            search_tilings(2, 1, 64)
        held, _ = tracemalloc.get_traced_memory()
        left_in_cycles = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 1 << 20
    assert left_in_cycles == 0


def test_time_limit_holds_while_orbits_are_canonicalised(monkeypatch):
    # the find-all of (3,1,577) spends about 90% of its time in `_orbit_min`,
    # which once ran to the end however far past the deadline it was; the
    # raw listing scales each set that holds 1 and checks the deadline per set
    now = [0.0]
    monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(monotonic=lambda: now[0]))
    for dedupe, step in ((True, "_orbit_min"), (False, "_scaled")):
        run = getattr(search_mod, step)

        def late(*args, run=run):
            now[0] = 2.0  # the limit runs out as the first orbit or set is scaled
            return run(*args)

        monkeypatch.setattr(search_mod, step, late)
        now[0] = 0.0
        with pytest.raises(SearchTimeout, match=r"search \(2,1\) over Z_64 exceeded 1s"):
            search_tilings(2, 1, 64, dedupe=dedupe, time_limit=1)


def test_search_timeout():
    with pytest.raises(SearchTimeout):
        search_tilings(2, 1, 100, time_limit=1e-9)


SURVEY_3_30 = ["survey", "--kmax", "3", "--qmax", "30"]
NAN_LIMIT = "time limit must be a number of seconds, got nan"


def unrecognized(jobs: str) -> str:
    """argparse's stderr for `survey --jobs <jobs>`: the survey runs in one
    process and takes no worker count."""
    return f"{build_parser().format_usage()}quasicross: error: unrecognized arguments: --jobs {jobs}\n"


@pytest.mark.parametrize(
    "argv,error",
    [
        (["search", "--kplus", "2", "--kminus", "1", "--q", "64", "--time-limit", "nan"], NAN_LIMIT),
        ([*SURVEY_3_30, "--time-limit", "nan"], NAN_LIMIT),
        (["search", "--kplus", "2", "--kminus", "1", "--q", "16", "--time-limit", "-1"],
         "time limit must be a number of seconds, got -1.0"),
        ([*SURVEY_3_30, "--time-limit", "-1"], "time limit must be a number of seconds, got -1.0"),
        ([*SURVEY_3_30, "--time-limit=-inf"], "time limit must be a number of seconds, got -inf"),
        ([*SURVEY_3_30, "--jobs", "0"], None),
        ([*SURVEY_3_30, "--jobs", "-4"], None),
        ([*SURVEY_3_30, "--jobs", "2"], None),
        (["survey", "--kmax", "1"], "no instance with n >= 2 has k_plus <= 1 and q <= 100"),
        (["survey", "--kmax", "3", "--qmax", "-5"], "no instance with n >= 2 has k_plus <= 3 and q <= -5"),
        (["survey", "--kmax", "3", "--qmax", "6"], "no instance with n >= 2 has k_plus <= 3 and q <= 6"),
    ],
    ids=["search-nan", "survey-nan", "search-negative", "survey-negative", "survey-minus-inf",
         "survey-jobs-0", "survey-jobs-minus-4", "survey-jobs-2", "survey-kmax-1", "survey-qmax-minus-5",
         "survey-qmax-6"],
)
def test_nan_time_limit_and_jobs_below_1_exit_2_before_any_search(capsys, monkeypatch, argv, error):
    # every comparison with nan is false, so a nan limit never ran out, a
    # negative one ran out in the first search after logging the ruled-out
    # rows before it, and an empty grid printed a bare CSV header; --jobs
    # (error None) is an unrecognized argument, refused by argparse
    def searched(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(search_mod, "_cover_blocks", searched)
    monkeypatch.setattr(search_mod, "instance_feasibility", searched)
    if error is None:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        code, stderr = exit_.value.code, unrecognized(argv[-1])
    else:
        code, stderr = main(argv), f"error: {error}\n"
    assert (code, capsys.readouterr()) == (2, ("", stderr))


@pytest.mark.parametrize("jobs", [0, 2, -4])
def test_survey_takes_jobs_1_only_and_refuses_others_before_any_search(monkeypatch, jobs):
    monkeypatch.setattr(search_mod, "_cover_blocks", lambda *args: pytest.fail("searched"))
    with pytest.raises(ValueError, match=f"the survey runs in one process: jobs must be 1, got {jobs}"):
        survey(k_max=3, q_max=30, jobs=jobs)


def search_in_512_mib(*flags: str) -> subprocess.CompletedProcess:
    """`search --kplus 2 --kminus 1` with `flags`, under a 512 MiB cap, so
    that a regression cannot take the machine's memory."""
    return cli_in_512_mib("search", "--kplus", "2", "--kminus", "1", *flags)


def test_search_rules_out_a_huge_order_before_allocating():
    # q = 10^8 = 2^8 * 5^8: the residues r with gcd(r, 5^8) = 5^7 number
    # 2^8 * phi(5) = 1024, not a multiple of 3, so no O(q) set-up runs
    proc = search_in_512_mib("--q", "100000000", "--time-limit", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 canonical tiling(s)\n", b"")


def test_search_decides_an_order_with_a_huge_prime_factor_without_factoring_it():
    # q = 2 * (2^61 - 1): trial division stops at 28285, the smallest order
    # past the cover-mask budget, and the cofactor u = 2^61 - 1, taken as
    # one prime, leaves C_u with q/u - 1 = 1 residue, not a multiple of 3;
    # dividing out 2^61 - 1 once ran for longer than any time limit
    q = 2 * (2**61 - 1)
    start = time.monotonic()
    proc = search_in_512_mib("--q", str(q))
    assert time.monotonic() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 canonical tiling(s)\n", b"")
    # with k_plus >= 28285 the primes of 2^61 - 1 might be arms, so the
    # cofactor passes the size test and the budget refuses q
    assert prime_factors(q, search_mod.TRIAL_LIMIT) == {2: 2, 2**61 - 1: 2**61 - 1}
    assert not size_test(q, 2**61 - 1, 2, 1) and size_test(q, 2**61 - 1, 30000, 1)
    with pytest.raises(ValueError, match="bytes of cover masks"):
        search_tilings(30000, 1, q)


def test_search_time_limit_holds_during_set_up():
    # 28276 = 4 * 7069: 3 divides its class sizes and neither rule decides
    # it, so its masks, about 100 MB, are built, and that takes longer than
    # the limit (the cyclotomic rule decides 28279, the prime used before)
    assert search_mod._cyclotomic_witness(prime_factors(28276), MultiplierSet(2, 1)) is None
    assert search_mod._layer_witness(prime_factors(28276), MultiplierSet(2, 1)) is None
    proc = search_in_512_mib("--q", "28276", "--time-limit", "0.01")
    err = b"error: search (2,1) over Z_28276 exceeded 0.01s\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)


def test_search_refuses_an_order_whose_cover_masks_pass_the_budget():
    # 64033 is prime and 3 | 64032, so the size test passes; its masks would
    # take about 500 MB, and with no time limit they once filled the
    # address space before the search exited with "out of memory"
    start = time.monotonic()
    proc = search_in_512_mib("--q", "64033")
    assert time.monotonic() - start < 1
    err = b"error: search over Z_64033 needs about q^2/8 bytes of cover masks, more than the budget of 100000000\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)
    assert 64033**2 // 8 > search_mod.COVER_MASKS_MAX_BYTES >= 28276**2 // 8
    # the cyclotomic rule decides 64033, but runs after the budget test, as
    # the layer rule does, so every order past the budget is refused alike
    assert search_mod._cyclotomic_witness(prime_factors(64033), MultiplierSet(2, 1)) == (64033, 1)


def test_the_cover_mask_budget_is_checked_before_the_layer_rule():
    # P = {2}: |M_P| = |{-1, 1, 3}| = 3 does not divide phi(2^16), so the
    # rule decides (4,1,65536), but its masks pass the budget, and every
    # order past it is refused alike
    assert search_mod._layer_witness(prime_factors(65536), MultiplierSet(4, 1)) == ((2,), 32768, 3)
    proc = cli_in_512_mib("search", "--kplus", "4", "--kminus", "1", "--q", "65536")
    err = b"error: search over Z_65536 needs about q^2/8 bytes of cover masks, more than the budget of 100000000\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)


def test_the_budget_refusal_of_a_2228_digit_order_names_the_budget():
    # q^2/8 has 4455 digits, past str()'s 4300-digit limit, so the refusal
    # names the budget instead of printing it
    q = 4**3700
    proc = search_in_512_mib("--q", str(q))
    err = f"error: search over Z_{q} needs about q^2/8 bytes of cover masks, more than the budget of 100000000\n"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", err)


@pytest.mark.parametrize("k_plus,k_minus,q", [(10, 2, 73), (4, 1, 16), (2, 1, 100)])
def test_search_factors_q_once(monkeypatch, k_plus, k_minus, q):
    # the cyclotomic rule decides (10,2,73), the layer rule (4,1,16) and the
    # size test (2,1,100): each reads the one factorisation of q
    calls, factor = [], search_mod.prime_factors

    def counted(n, *limit):
        calls.append(n)
        return factor(n, *limit)

    monkeypatch.setattr(search_mod, "prime_factors", counted)
    assert search_tilings(k_plus, k_minus, q) == []
    assert calls.count(q) == 1


def test_arms_past_sys_maxsize_are_decided(capsys):
    # span = 10^19 + 1 does not fit an index-sized integer, so len() of the
    # multipliers could not return it; the size test needs span | 7 - 1
    k_plus = 10**19
    assert k_plus > sys.maxsize
    assert search_tilings(k_plus, 1, 7) == []
    argv = ["--kplus", str(k_plus), "--kminus", "1", "--q", "7"]
    assert main(["search", *argv]) == 0
    assert capsys.readouterr() == ("0 canonical tiling(s)\n", "")
    assert main(["bounds", *argv]) == 0
    assert capsys.readouterr() == (f"ruled out: divisibility ({k_plus + 1} does not divide 7-1)\n", "")


def test_search_refuses_a_huge_find_all_from_its_count():
    # (2,1,256) has 2^42 tilings that hold 1; listing them once ended in
    # MemoryError, and counting them lists none
    start = time.monotonic()
    proc = search_in_512_mib("--q", "256")
    assert time.monotonic() - start < 1
    err = b"error: search (2,1) over Z_256 has 4398046511104 tilings that hold 1, more than the 1000000 a find-all lists\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)
    first = search_in_512_mib("--q", "256", "--first")
    assert (first.returncode, first.stderr) == (0, b"")
    assert first.stdout.startswith(b"1 canonical tiling(s)\n1 3 4 5 7 ")


def test_search_raw_is_refused_from_what_it_lists():
    # (3,1,577) has 262,144 tilings that hold 1, within the budget, but
    # lists 4 times as many raw ones; listing them once ran out of memory
    start = time.monotonic()
    proc = cli_in_512_mib("search", "--kplus", "3", "--kminus", "1", "--q", "577", "--raw")
    assert time.monotonic() - start < 1
    err = b"error: search (3,1) over Z_577 has 1048576 raw tilings, more than the 1000000 a find-all lists\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)


def test_raw_tilings_number_those_that_hold_1_times_the_unit_multipliers():
    # the units of Z_q are the blocks U_M*s over the unit splitters s, U_M
    # the multipliers prime to q, so each orbit has |U_M| members per
    # member that holds 1: the product the raw budget is checked on
    tiled = [key for key in survey_instances(10, 100) if search_tilings(*key, find_all=False)]
    assert len(tiled) == 5
    for k_plus, k_minus, q in tiled:
        raw = search_tilings(k_plus, k_minus, q, dedupe=False)
        holding = sum(1 in sp.splitter_values() for sp in raw)
        units = sum(gcd(m, q) == 1 for m in oracles.multiplier_list(k_plus, k_minus))
        assert len(raw) == holding * units


def test_raw_tilings_are_every_class_scaled_by_every_unit():
    # the raw listing scales each set that holds 1 by the inverses of U_M
    # alone; it must equal every unit of Z_q applied to every class
    tiled = [key for key in survey_instances(10, 300) if search_tilings(*key, find_all=False)]
    tiled.remove((2, 1, 256))  # 2^43 raw tilings, refused from the count
    assert len(tiled) == 22
    for k_plus, k_minus, q in tiled:
        units = [u for u in range(1, q) if gcd(u, q) == 1]
        classes = [sp.splitter_values() for sp in search_tilings(k_plus, k_minus, q)]
        expected = sorted({tuple(sorted(u * s % q for s in c)) for c in classes for u in units})
        raw = search_tilings(k_plus, k_minus, q, dedupe=False)
        assert [sp.splitter_values() for sp in raw] == expected, (k_plus, k_minus, q)


def test_raw_search_lists_without_scaling_by_all_of_z_q(monkeypatch):
    # (4,2,2401) lists 1296 raw tilings, its 216 sets that hold 1 each
    # scaled by the 6 units of M; scaling them by all 2058 units of
    # Z_2401 once took about 30 s
    scaled, calls = search_mod._scaled, []
    monkeypatch.setattr(search_mod, "_scaled", lambda *args: calls.append(args) or scaled(*args))
    assert len(search_tilings(4, 2, 2401, dedupe=False)) == 1296
    assert len(calls) == 216 * 6
    proc = cli_in_512_mib("search", "--kplus", "4", "--kminus", "2", "--q", "2401", "--raw")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"1296 raw splitter set(s)\n")


def test_survey_walks_a_huge_grid_lazily():
    # --qmax 10^8 has about 78 million instances; listing them first ran
    # out of memory, and the walk now reaches (2,1,256) and its refusal
    start = time.monotonic()
    proc = cli_in_512_mib("survey", "--kmax", "3", "--qmax", "100000000")
    assert time.monotonic() - start < 2
    err = b"error: search (2,1) over Z_256 has 4398046511104 tilings that hold 1, more than the 1000000 a find-all lists\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)


def test_search_past_the_default_recursion_limit_finds_a_tiling():
    # (2,1,4096) covers 4095 residues with 1365 splitters, one dfs frame
    # each: deeper than the interpreter's default recursion limit of 1000
    limit = sys.getrecursionlimit()
    proc = search_in_512_mib("--q", "4096", "--first", "--time-limit", "30")
    assert (proc.returncode, proc.stderr) == (0, b"")
    head, values, *rest = proc.stdout.decode().splitlines()
    assert (head, rest) == ("1 canonical tiling(s)", [])
    splitters = [(int(s),) for s in values.split()]
    assert len(splitters) == 1365
    assert oracles.brute_is_tiling((4096,), 2, 1, splitters)
    assert len(search_tilings(2, 1, 4096, find_all=False)) == 1
    assert sys.getrecursionlimit() == limit  # restored after the search


def test_search_memory_error_exits_2_without_a_traceback(capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(search_mod, "_cover_blocks", out_of_memory)
    assert main(["search", "--kplus", "2", "--kminus", "1", "--q", "16"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_search_results_satisfy_group_theorems():
    # consecutive arms force gcd(k_plus, q) > 1 on any perfect splitting
    for q in (16, 64):
        for sp in search_tilings(2, 1, q):
            assert gcd(2, q) != 1
            assert classify_singularity(sp) is Singularity.PURELY_SINGULAR
            assert oracles.check_singular_prime_bound((q,), 2, 1, sp.splitters)
            assert geometric_check(sp).verdict == "tiling"


def test_survey_instances_grid():
    grid = list(survey_instances(3, 30))
    assert (2, 1, 7) in grid
    assert (2, 1, 4) not in grid  # n = 1
    assert (3, 2, 11) in grid
    assert all((q - 1) % (kp + km) == 0 for kp, km, q in grid)
    assert all((q - 1) // (kp + km) >= 2 for kp, km, q in grid)


def test_survey_instances_match_a_brute_force_filter():
    for k_max in range(-2, 14):
        for q_max in range(-5, 160):
            brute = [
                (k_plus, k_minus, q)
                for k_plus in range(2, k_max + 1)
                for k_minus in range(1, k_plus)
                for q in range(2, q_max + 1)
                if (q - 1) % (k_plus + k_minus) == 0 and (q - 1) // (k_plus + k_minus) >= 2
            ]
            assert list(survey_instances(k_max, q_max)) == brute, (k_max, q_max)


def test_survey_with_a_huge_kmax_walks_only_the_arm_pairs_qmax_allows():
    # 3 instances; a generator that walked every arm pair up to k_max
    # would run for hours
    proc = subprocess.run(
        [sys.executable, "-m", "quasicross", "survey", "--kmax", "100000", "--qmax", "10"],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=str(Path(search_mod.__file__).parents[1])),
    )
    assert proc.returncode == 0
    assert [line.split(",")[:3] for line in proc.stdout.splitlines()[1:]] == [
        ["2", "1", "7"], ["2", "1", "10"], ["3", "1", "9"]
    ]


def test_small_survey_finds_only_known_tilings():
    rows = survey(k_max=3, q_max=50, prune_with_bounds=False)
    hits = {(r.k_plus, r.k_minus, r.q): r.tilings for r in rows if r.tilings}
    assert set(hits) == {(2, 1, 16), (3, 1, 25)}
    assert hits[(2, 1, 16)] == ((1, 3, 4, 5, 7),)
    for row in rows:
        assert row.searched
        if row.tilings:
            assert not row.ruled_out


def test_survey_prune_skips_ruled_out():
    rows = survey(k_max=2, q_max=50, prune_with_bounds=True)
    for row in rows:
        if row.ruled_out:
            assert not row.searched and row.tilings == ()
        else:
            assert row.searched


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_survey_rows_read_their_feasibility_report(prune):
    for row in survey(10, 100, prune_with_bounds=prune):
        report = instance_feasibility(row.k_plus, row.k_minus, row.q)
        triggered = tuple(rule.name for rule in report.triggered())
        assert (row.n, row.ruled_out, row.triggered) == (report.n, report.ruled_out, triggered)


def test_survey_pruned_and_full_agree_on_tilings():
    pruned = survey(k_max=3, q_max=50, prune_with_bounds=True)
    full = survey(k_max=3, q_max=50, prune_with_bounds=False)
    hits = lambda rows: {(r.k_plus, r.k_minus, r.q): r.tilings for r in rows if r.tilings}
    assert hits(pruned) == hits(full)


def test_survey_progress_resume(tmp_path):
    log = tmp_path / "progress.jsonl"
    first = survey(k_max=2, q_max=30, progress_path=str(log))
    assert log.exists()
    resumed = survey(k_max=2, q_max=30, progress_path=str(log))
    assert [r.q for r in first] == [r.q for r in resumed]
    # a wider rerun reuses the logged instances and only adds new ones
    wider = survey(k_max=2, q_max=40, progress_path=str(log))
    assert len(wider) > len(first)


def test_survey_csv_format():
    rows = survey(k_max=2, q_max=20, prune_with_bounds=False)
    text = survey_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "k_plus,k_minus,q,n,tilings_found,canonical_splitter_json"
    q16 = next(line for line in lines if line.startswith("2,1,16"))
    assert '"[[1, 3, 4, 5, 7]]"' in q16
    summary = survey_summary(rows)
    assert "rules consistent" in summary


# SHA-256 of the progress log of an uninterrupted survey(k_max=4,
# q_max=40) with the clock frozen (every elapsed 0.0), recorded with
# the rows serialised field by field before the log was streamed
GOLDEN_LOG = {
    False: "d437f1065f6fd63fb7377cc86e1f34e3c57910700e88d48d0e9d44c34c2595b1",
    True: "fbe132c5668427c44e774547a6881f34f583c37e17522705e5dc8284e4fc8d44",
}


def strip(rows):
    """Rows without the wall-clock field, which differs between runs."""
    return [dataclasses.replace(r, elapsed=0.0) for r in rows]


def logged(path):
    """Every line of a progress log, parsed; a torn line fails here."""
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b""
    return [search_mod.SurveyRow.from_json_dict(json.loads(line)) for line in lines[:-1]]


@pytest.mark.parametrize("prune", [False, True])
def test_survey_log_bytes_unchanged(monkeypatch, tmp_path, prune):
    monkeypatch.setattr(search_mod, "time", types.SimpleNamespace(monotonic=lambda: 0.0))
    log = tmp_path / "progress.jsonl"
    rows = survey(k_max=4, q_max=40, prune_with_bounds=prune, progress_path=str(log))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == GOLDEN_LOG[prune]
    assert logged(log) == rows


def test_survey_timeout_keeps_finished_rows(tmp_path):
    # pruned, the grid opens with three ruled-out rows that need no
    # search; a 1 ns limit then stops the first search, (2,1,16)
    fresh = strip(survey(k_max=2, q_max=70))
    log = tmp_path / "progress.jsonl"
    with pytest.raises(SearchTimeout):
        survey(k_max=2, q_max=70, time_limit=1e-9, progress_path=str(log))
    kept = strip(logged(log))
    assert 3 <= len(kept) < len(fresh)
    assert kept == fresh[: len(kept)]
    resumed = survey(k_max=2, q_max=70, progress_path=str(log))
    assert strip(resumed) == fresh
    assert strip(logged(log)) == fresh


def test_survey_interrupt_keeps_finished_rows(monkeypatch, tmp_path):
    fresh = strip(survey(k_max=3, q_max=40, prune_with_bounds=False))
    log = tmp_path / "progress.jsonl"
    run = search_mod.search_tilings
    calls = []

    def interrupted(*args, **kwargs):
        # each finished row is on disk before the next search starts;
        # the tenth search is interrupted and logs nothing
        assert len(log.read_bytes().splitlines()) == len(calls) - (len(calls) >= 10)
        calls.append(args)
        if len(calls) == 10:
            raise KeyboardInterrupt
        return run(*args, **kwargs)

    monkeypatch.setattr(search_mod, "search_tilings", interrupted)
    with pytest.raises(KeyboardInterrupt):
        survey(k_max=3, q_max=40, prune_with_bounds=False, progress_path=str(log))
    assert strip(logged(log)) == fresh[:9]
    resumed = survey(k_max=3, q_max=40, prune_with_bounds=False, progress_path=str(log))
    assert len(calls) == 10 + len(fresh) - 9  # only the unlogged instances run again
    assert strip(resumed) == fresh


def test_survey_times_each_search_without_its_feasibility_report(monkeypatch):
    # a row's elapsed starts after the rules have reported and stops when
    # the search returns, so a slow report does not show in it
    report = search_mod.instance_feasibility
    monkeypatch.setattr(search_mod, "instance_feasibility", lambda *key: time.sleep(0.05) or report(*key))
    searched = [row for row in survey(k_max=3, q_max=40) if row.searched]
    assert searched
    assert all(row.elapsed < 0.05 for row in searched)


def test_survey_drops_torn_last_line(tmp_path):
    log = tmp_path / "progress.jsonl"
    fresh = strip(survey(k_max=2, q_max=40, progress_path=str(log)))
    data = log.read_bytes()
    last = data[data.rfind(b"\n", 0, -1) + 1 :]
    log.write_bytes(data[: -len(last) // 2])  # a kill in the middle of the last write
    resumed = survey(k_max=2, q_max=40, progress_path=str(log))
    assert strip(resumed) == fresh
    assert strip(logged(log)) == fresh


ROW_2_1_16 = '{"k_plus": 2, "k_minus": 1, "q": 16, "n": 5, "ruled_out": false, "triggered": [], "searched": true, "tilings": [[1, 3, 4, 5, 7]], "elapsed": 0.0}'


@pytest.mark.parametrize(
    "bad",
    [b"{not json", b"{}", b"[1, 2]", b'{"k_plus": 2}']
    # a float or a bool in the key or a tiling used to be taken as it came:
    # `"q": 16.0` matched the grid instance (2,1,16) and printed as 16.0
    + [pytest.param(ROW_2_1_16.replace(old, new).encode(), id=name) for name, old, new in [
        ("float-q", '"q": 16', '"q": 16.0'),
        ("float-n", '"n": 5', '"n": 5.0'),
        ("bool-k_minus", '"k_minus": 1', '"k_minus": true'),
        ("float-tiling", "[[1, 3", "[[1.5, 3"),
        ("bool-tiling", "[[1, 3", "[[true, 3"),
        # these used to pass, or to end `survey` in a TypeError traceback
        ("string-elapsed", '"elapsed": 0.0', '"elapsed": "x"'),
        ("bool-elapsed", '"elapsed": 0.0', '"elapsed": true'),
        ("negative-elapsed", '"elapsed": 0.0', '"elapsed": -1.0'),
        ("nan-elapsed", '"elapsed": 0.0', '"elapsed": NaN'),
        ("infinite-elapsed", '"elapsed": 0.0', '"elapsed": Infinity'),
        ("string-searched", '"searched": true', '"searched": "no"'),
        ("list-ruled_out", '"ruled_out": false', '"ruled_out": [1]'),
        ("int-ruled_out", '"ruled_out": false', '"ruled_out": 0'),
        ("string-triggered", '"triggered": []', '"triggered": "two-power-order"'),
        ("int-in-triggered", '"triggered": []', '"triggered": [1]'),
    ]],
)
@pytest.mark.parametrize("position", [0, 3, -1])
def test_survey_rejects_malformed_complete_line(capsys, tmp_path, bad, position):
    log = tmp_path / "progress.jsonl"
    survey(k_max=2, q_max=40, progress_path=str(log))
    lines = log.read_bytes().splitlines(keepends=True)
    lines.insert(position if position >= 0 else len(lines), bad + b"\n")
    log.write_bytes(b"".join(lines))
    before = log.read_bytes()
    line = position + 1 if position >= 0 else len(lines)
    with pytest.raises(ValueError, match=f"progress.jsonl, line {line}: not a survey row"):
        survey(k_max=2, q_max=40, progress_path=str(log))
    code = main(["survey", "--kmax", "2", "--qmax", "40", "--progress", str(log)])
    assert code == 2
    assert "not a survey row" in capsys.readouterr().err
    assert log.read_bytes() == before


def test_survey_skips_blank_log_lines(monkeypatch, tmp_path):
    log = tmp_path / "progress.jsonl"
    fresh = survey(k_max=2, q_max=40, progress_path=str(log))
    lines = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(b"".join(lines[:2] + [b"\n", b"  \n"] + lines[2:]))

    def searched(*args):
        raise AssertionError(f"searched {args}")

    monkeypatch.setattr(search_mod, "instance_feasibility", searched)  # every row is logged
    assert survey(k_max=2, q_max=40, progress_path=str(log)) == fresh


def test_survey_summary_reports_a_conflict():
    row = search_mod.SurveyRow(2, 1, 16, 5, True, ("two-power-order",), True, ((1, 3, 4, 5, 7),), 0.5)
    summary = survey_summary([row, dataclasses.replace(row, q=64, n=21)])
    assert "  CONFLICT: 2 ruled-out instances have tilings\n" in summary
    assert "rules consistent" not in summary


def held_survey(tmp_path, argv, **popen):
    """A `survey` child process that holds row 32, (2,1,100), before its
    search (see `held_survey.py`), and the path prefix of its flag files."""
    env = dict(os.environ, PYTHONPATH=str(Path(search_mod.__file__).parents[1]))
    flag = str(tmp_path / "hold")
    driver = str(Path(__file__).with_name("held_survey.py"))
    return subprocess.Popen([sys.executable, driver, "2,1,100", flag, *argv], env=env, **popen), flag


def wait_until_held(proc, log, flag):
    # rows 1-31 are logged before row 32, (2,1,100), is held
    deadline = time.monotonic() + 60
    while proc.poll() is None and time.monotonic() < deadline:
        if os.path.exists(flag + ".held") and log.exists() and log.read_bytes().count(b"\n") >= 31:
            break
        time.sleep(0.002)


def test_survey_killed_process_resumes(tmp_path):
    # a real kill: no exception handler or file close runs, so only rows
    # already flushed survive, and the kill may tear the line being written
    log = tmp_path / "progress.jsonl"
    argv = ["survey", "--kmax", "3", "--qmax", "100", "--no-prune"]
    proc, flag = held_survey(
        tmp_path, [*argv, "--progress", str(log)], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        wait_until_held(proc, log, flag)
        assert proc.poll() is None, "the survey ended before it could be killed"
    finally:
        proc.kill()  # SIGKILL
        proc.wait(timeout=60)
    assert log.read_bytes().count(b"\n") >= 31
    resumed = survey(k_max=3, q_max=100, prune_with_bounds=False, progress_path=str(log))
    assert strip(resumed) == strip(survey(k_max=3, q_max=100, prune_with_bounds=False))
    assert strip(logged(log)) == strip(resumed)


def test_survey_interrupted_by_sigint_exits_130_and_resumes(tmp_path):
    # SIGINT as `timeout -s INT` sends it: to the survey process, then to
    # its whole process group, so the process is signalled twice
    log = tmp_path / "progress.jsonl"
    argv = ["survey", "--kmax", "3", "--qmax", "100", "--no-prune"]
    proc, flag = held_survey(
        tmp_path, [*argv, "--progress", str(log)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        wait_until_held(proc, log, flag)
        assert proc.poll() is None, "the survey ended before it could be interrupted"
        os.kill(proc.pid, signal.SIGINT)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
    assert proc.returncode == 130
    assert err == b"interrupted\n"
    kept = log.read_bytes().count(b"\n")
    assert 31 <= kept < len(list(survey_instances(3, 100)))
    resumed = tmp_path / "resumed.csv"
    assert main([*argv, "--progress", str(log), "--csv", str(resumed)]) == 0
    assert resumed.read_text() == survey_csv(survey(k_max=3, q_max=100, prune_with_bounds=False))


def test_survey_returns_only_its_grid_from_a_wider_log(tmp_path):
    log = tmp_path / "progress.jsonl"
    wide = survey(k_max=3, q_max=40, progress_path=str(log))
    narrow = survey(k_max=2, q_max=30, progress_path=str(log))
    assert [(r.k_plus, r.k_minus, r.q) for r in narrow] == list(survey_instances(2, 30))
    assert narrow == [r for r in wide if (r.k_plus, r.k_minus, r.q) in set(survey_instances(2, 30))]
    assert len(logged(log)) == len(wide)


def test_unpruned_rerun_searches_what_a_pruned_log_skipped(tmp_path):
    log = tmp_path / "progress.jsonl"
    pruned = survey(k_max=3, q_max=40, progress_path=str(log))
    assert not all(r.searched for r in pruned)
    rerun = survey(k_max=3, q_max=40, prune_with_bounds=False, progress_path=str(log))
    assert strip(rerun) == strip(survey(k_max=3, q_max=40, prune_with_bounds=False))
    # a pruned run reuses every row, searched or not, and appends nothing
    lines = len(logged(log))
    assert strip(survey(k_max=3, q_max=40, progress_path=str(log))) == strip(rerun)
    assert len(logged(log)) == lines
