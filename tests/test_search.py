from __future__ import annotations

from math import gcd

import pytest

from quasicross import (
    SearchTimeout,
    check_singular_prime_bound,
    classify_singularity,
    geometric_check,
    is_tiling,
    search_tilings,
    survey,
    survey_csv,
    survey_summary,
    unit_orbit_canonical,
    verify_packing,
)
from quasicross.search import survey_instances
from quasicross.splitting import Singularity

import oracles


def test_search_21_q16_single_orbit():
    found = search_tilings(2, 1, 16)
    assert len(found) == 1
    assert found[0].splitter_values() == (1, 3, 4, 5, 7)
    raw = search_tilings(2, 1, 16, dedupe=False)
    assert len(raw) == 8  # the full unit-scaling orbit
    canonical = {unit_orbit_canonical(sp).splitter_values() for sp in raw}
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


def test_search_timeout():
    with pytest.raises(SearchTimeout):
        search_tilings(2, 1, 100, time_limit=1e-9)


def test_search_results_satisfy_group_theorems():
    # consecutive arms force gcd(k_plus, q) > 1 on any perfect splitting
    for q in (16, 64):
        for sp in search_tilings(2, 1, q):
            assert gcd(2, q) != 1
            assert classify_singularity(sp) is Singularity.PURELY_SINGULAR
            assert check_singular_prime_bound(sp)
            assert geometric_check(sp).verdict == "tiling"


def test_survey_instances_grid():
    grid = list(survey_instances(3, 30))
    assert (2, 1, 7) in grid
    assert (2, 1, 4) not in grid  # n = 1
    assert (3, 2, 11) in grid
    assert all((q - 1) % (kp + km) == 0 for kp, km, q in grid)
    assert all((q - 1) // (kp + km) >= 2 for kp, km, q in grid)


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


def test_survey_pruned_and_full_agree_on_tilings():
    pruned = survey(k_max=3, q_max=50, prune_with_bounds=True)
    full = survey(k_max=3, q_max=50, prune_with_bounds=False)
    hits = lambda rows: {(r.k_plus, r.k_minus, r.q): r.tilings for r in rows if r.tilings}
    assert hits(pruned) == hits(full)


def test_survey_parallel_matches_serial():
    serial = survey(k_max=3, q_max=40)
    parallel = survey(k_max=3, q_max=40, jobs=2)
    strip = lambda rows: [
        (r.k_plus, r.k_minus, r.q, r.n, r.ruled_out, r.searched, r.tilings) for r in rows
    ]
    assert strip(serial) == strip(parallel)


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
