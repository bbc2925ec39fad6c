from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import types
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from quasicross import search as search_mod
from quasicross.cli import main
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


@pytest.mark.parametrize("k_plus", range(2, 11))
def test_class_sizes_match_a_count(k_plus):
    for q in range(2, 201):
        u = big_part(q, k_plus)
        counted = Counter(gcd(r, u) for r in range(1, q))
        assert search_mod._class_sizes(q, k_plus) == (
            u, {d: counted[d] for d in range(1, u + 1) if u % d == 0}
        )


@pytest.mark.parametrize("k_plus,k_minus,q", [(3, 1, 25), (4, 2, 49), (5, 1, 49), (2, 1, 76), (2, 1, 100)])
def test_search_matches_the_reference_across_classes(k_plus, k_minus, q):
    _, sizes = search_mod._class_sizes(q, k_plus)
    assert sum(1 for size in sizes.values() if size) >= 2
    assert_matches_reference(k_plus, k_minus, q)


# pruned-survey instances with 100 < q <= 200 that the smallest-residue
# search (`oracles.reference_search`) does not decide within 30 s
UNDECIDED_AT_30S = [(3, 1, 181), (3, 1, 193), (3, 1, 197), (4, 2, 199), (3, 1, 185), (3, 2, 171)]


@pytest.mark.parametrize("k_plus,k_minus,q", UNDECIDED_AT_30S)
def test_search_decides_former_timeouts_without_a_tiling(k_plus, k_minus, q):
    assert search_tilings(k_plus, k_minus, q, time_limit=30) == []


def test_search_31_q173_is_the_fourth_power_residues():
    # the one class is the orbit of the fourth powers mod 173
    found = search_tilings(3, 1, 173, time_limit=30)
    fourth_powers = {pow(x, 4, 173) for x in range(1, 173)}
    assert [sp.splitter_values() for sp in found] == [oracles.orbit_min(173, fourth_powers)]


def test_search_timeout():
    with pytest.raises(SearchTimeout):
        search_tilings(2, 1, 100, time_limit=1e-9)


def search_in_512_mib(*flags: str) -> subprocess.CompletedProcess:
    """`search --kplus 2 --kminus 1` with `flags`, run in a child whose
    address space is capped at 512 MiB, so that a regression cannot take
    the machine's memory."""
    import resource

    limit = 512 << 20
    env = dict(os.environ, PYTHONPATH=str(Path(search_mod.__file__).parents[1]))
    argv = ["search", "--kplus", "2", "--kminus", "1", *flags]
    return subprocess.run(
        [sys.executable, "-m", "quasicross", *argv], env=env, capture_output=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_search_rules_out_a_huge_order_before_allocating():
    # q = 10^8 = 2^8 * 5^8: the residues r with gcd(r, 5^8) = 5^7 number
    # 2^8 * phi(5) = 1024, not a multiple of 3, so no O(q) set-up runs
    proc = search_in_512_mib("--q", "100000000", "--time-limit", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 canonical tiling(s)\n", b"")


def test_search_time_limit_holds_during_set_up():
    # 64033 is prime and 3 | 64032, so the size test passes and the set-up
    # would build about 500 MiB of masks before the first DFS node
    proc = search_in_512_mib("--q", "64033", "--time-limit", "0.1")
    err = b"error: search (2,1) over Z_64033 exceeded 0.1s\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)


def test_search_out_of_memory_exits_2_without_a_traceback():
    proc = search_in_512_mib("--q", "64033")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: out of memory\n")


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


def test_survey_log_same_rows_in_parallel(tmp_path):
    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    survey(k_max=3, q_max=40, prune_with_bounds=False, progress_path=str(serial))
    survey(k_max=3, q_max=40, prune_with_bounds=False, jobs=2, progress_path=str(parallel))
    assert strip(logged(parallel)) == strip(logged(serial))


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_timeout_keeps_finished_rows(tmp_path, jobs):
    # pruned, the grid opens with three ruled-out rows that need no
    # search; a 1 ns limit then stops the first search, (2,1,16)
    fresh = strip(survey(k_max=2, q_max=70))
    log = tmp_path / "progress.jsonl"
    with pytest.raises(SearchTimeout):
        survey(k_max=2, q_max=70, jobs=jobs, time_limit=1e-9, progress_path=str(log))
    kept = strip(logged(log))
    assert 3 <= len(kept) < len(fresh)
    assert kept == fresh[: len(kept)]
    resumed = survey(k_max=2, q_max=70, jobs=jobs, progress_path=str(log))
    assert strip(resumed) == fresh
    assert strip(logged(log)) == fresh


def test_survey_interrupt_keeps_finished_rows(monkeypatch, tmp_path):
    fresh = strip(survey(k_max=3, q_max=40, prune_with_bounds=False))
    log = tmp_path / "progress.jsonl"
    run = search_mod._run_instance
    calls = []

    def interrupted(args):
        # each finished row is on disk before the next instance starts;
        # the tenth call is interrupted and logs nothing
        assert len(log.read_bytes().splitlines()) == len(calls) - (len(calls) >= 10)
        calls.append(args)
        if len(calls) == 10:
            raise KeyboardInterrupt
        return run(args)

    monkeypatch.setattr(search_mod, "_run_instance", interrupted)
    with pytest.raises(KeyboardInterrupt):
        survey(k_max=3, q_max=40, prune_with_bounds=False, progress_path=str(log))
    assert strip(logged(log)) == fresh[:9]
    resumed = survey(k_max=3, q_max=40, prune_with_bounds=False, progress_path=str(log))
    assert len(calls) == 10 + len(fresh) - 9  # only the unlogged instances run again
    assert strip(resumed) == fresh


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_survey_interrupted_by_sigint_exits_130_and_resumes(tmp_path, jobs):
    # SIGINT as `timeout -s INT` sends it: to the survey process, then to
    # its whole process group, workers included
    log = tmp_path / "progress.jsonl"
    argv = ["survey", "--kmax", "3", "--qmax", "100", "--no-prune", "--jobs", jobs]
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
