from __future__ import annotations

import argparse
import io
import json
import os
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasicross import cyclic_splitting, from_json, to_json, make_cyclic_splitting
from quasicross import lattice as lattice_mod
from quasicross import search as search_mod
from quasicross import splitting as split_mod
from quasicross.cli import build_parser, main

from capped import cli_in_512_mib


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def z17_json(tmp_path):
    path = tmp_path / "z17.json"
    path.write_text(to_json(make_cyclic_splitting(17, 3, 2, [1, 13])), encoding="utf-8")
    return str(path)


def test_construct_cyclic(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "cyclic", "--p", "5", "--ell", "2", "--kplus", "3", "--kminus", "1"
    )
    assert code == 0
    sp = from_json(out)
    assert sp.splitter_values() == (1, 5, 6, 11, 16, 21)


def test_construct_two_one(capsys):
    code, out, _ = run_cli(capsys, "construct", "two-one", "--ell", "2")
    assert code == 0
    assert from_json(out).splitter_values() == (1, 3, 4, 5, 7)


def test_construct_field(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "field", "--p", "5", "--ell", "2", "--kplus", "3", "--kminus", "1"
    )
    assert code == 0
    assert from_json(out).splitters == ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4))


def test_construct_balance(capsys):
    code, out, err = run_cli(capsys, "construct", "balance", "--beta", "1/2", "--index", "1")
    assert code == 0
    assert "p=7" in err
    assert from_json(out).group.orders == (7,)


def test_construct_rejects_composite_p(capsys):
    code, _, err = run_cli(
        capsys, "construct", "cyclic", "--p", "4", "--ell", "1", "--kplus", "2", "--kminus", "1"
    )
    assert code == 2
    assert "prime" in err


def test_verify_packing_report(capsys, z17_json):
    code, out, _ = run_cli(capsys, "verify", z17_json)
    assert code == 0
    assert "packing, density 11/17, period (17, 17)" in out


def test_verify_tiling_report(capsys, tmp_path):
    path = tmp_path / "c1.json"
    path.write_text(
        json.dumps(
            {"orders": [25], "k_plus": 3, "k_minus": 1,
             "splitters": [[1], [5], [6], [11], [16], [21]]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "tiling, density 1, period (25, 5, 25, 25, 25, 25)" in out


def test_verify_collision_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [[1], [2]]}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "collision" in out


def test_verify_json_format(capsys, z17_json):
    code, out, _ = run_cli(capsys, "verify", z17_json, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "packing"
    assert payload["density"] == "11/17"
    assert payload["det"] == 17


def test_lattice_json_output(capsys, z17_json):
    code, out, _ = run_cli(capsys, "lattice", z17_json)
    assert code == 0
    assert json.loads(out) == {"basis": [[17, 0], [4, 1]]}


def test_lattice_on_a_non_packing_exits_1(capsys, tmp_path):
    path = tmp_path / "z7.json"
    path.write_text(to_json(make_cyclic_splitting(7, 2, 1, [1, 2])), encoding="utf-8")
    err = "not a packing: collision 2*1 = 1*2 = 2\n"
    assert run_cli(capsys, "lattice", str(path)) == (1, "", err)


def test_lattice_of_z390625_is_refused_before_its_text(tmp_path):
    # n = 97,656: the dense basis would have been about 28.6 GB of text
    path = tmp_path / "z390625.json"
    path.write_text(to_json(cyclic_splitting(5, 8, 3, 1)), encoding="utf-8")
    proc = cli_in_512_mib("lattice", str(path))
    err = f"error: the lattice JSON needs {97656**2} entries, more than {lattice_mod.LATTICE_JSON_MAX_ENTRIES}\n"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", err)


@pytest.mark.parametrize(
    "count,code,err",
    [(5000, 1, "not a packing: collision 2*1 = 1*2 = 2\n"),
     (5001, 2, "error: the lattice JSON needs 25010001 entries, more than 25000000\n")],
    ids=["5000-collision", "5001-refused"],
)
def test_lattice_refuses_from_the_splitter_count_before_the_scan(capsys, monkeypatch, tmp_path, count, code, err):
    # n = |splitters| decides the refusal, so past 5,000 splitters even a
    # non-packing exits 2 before its collision's exit 1, and makes no product
    path = tmp_path / "np.json"
    data = {"orders": [100003], "k_plus": 2, "k_minus": 1, "splitters": [[s] for s in range(1, count + 1)]}
    path.write_text(json.dumps(data), encoding="utf-8")
    scans, scan = [], split_mod._scan_products
    monkeypatch.setattr(split_mod, "_scan_products", lambda sp: scans.append(sp) or scan(sp))
    assert run_cli(capsys, "lattice", str(path)) == (code, "", err)
    assert len(scans) == (code == 1)


@pytest.mark.parametrize(
    "count,err",
    [(5000, "error: each splitter must be a list of integers\n"),
     (5001, "error: the lattice JSON needs 25010001 entries, more than 25000000\n")],
    ids=["5000-malformed", "5001-refused"],
)
def test_lattice_refuses_from_the_json_list_length_before_validating(capsys, tmp_path, count, err):
    # a float in the last splitter: past 5,000 splitters the list's length
    # decides, and no entry is validated
    path = tmp_path / "float.json"
    splitters = [[s] for s in range(1, count)] + [[count + 0.5]]
    path.write_text(json.dumps({"orders": [100003], "k_plus": 2, "k_minus": 1, "splitters": splitters}), encoding="utf-8")
    assert run_cli(capsys, "lattice", str(path)) == (2, "", err)


NON_PACKING = json.dumps({"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [[1], [2]]})


def test_decode_of_a_non_packing_exits_1_after_one_scan(capsys, monkeypatch, tmp_path):
    # the syndrome table's RuntimeError reached `main` as an internal fault, exit 3
    from quasicross import codec

    path = tmp_path / "np.json"
    path.write_text(NON_PACKING, encoding="utf-8")
    scans = []
    monkeypatch.setattr(codec, "_scan_products", lambda sp: scans.append(sp) or split_mod._scan_products(sp))
    argv = ("decode", "--code", str(path), "--levels", "17", "--word", "1", "2")
    assert run_cli(capsys, *argv) == (1, "", "not a packing: collision -2*1 = -1*2 = 15\n")
    assert len(scans) == 1


def test_bounds_ruled_out(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kplus", "3", "--kminus", "2", "--n", "2")
    assert code == 0
    assert "ruled out: dimension (14/5 vs n = 2)" in out


def test_bounds_group_rules(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--kplus", "2", "--kminus", "1", "--q", "10", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ruled_out"]
    assert any(r["name"] == "two-power-order" and r["ruled_out"] for r in payload["rules"])


def test_bounds_requires_n_or_q(capsys):
    code, _, err = run_cli(capsys, "bounds", "--kplus", "3", "--kminus", "2")
    assert code == 2


def test_search_cli(capsys):
    code, out, _ = run_cli(capsys, "search", "--kplus", "2", "--kminus", "1", "--q", "16")
    assert code == 0
    assert out.splitlines()[0] == "1 canonical tiling(s)"
    assert out.splitlines()[1] == "1 3 4 5 7"


def test_search_cli_json(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--kplus", "2", "--kminus", "1", "--q", "7", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == []


def test_survey_cli(capsys, tmp_path):
    csv_path = tmp_path / "survey.csv"
    code, _, err = run_cli(
        capsys, "survey", "--kmax", "2", "--qmax", "30", "--csv", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "k_plus,k_minus,q,n,tilings_found,canonical_splitter_json"
    assert any(line.startswith("2,1,16,5,1") for line in lines)
    assert "instances" in err


def test_encode_cli(capsys, z17_json):
    code, out, _ = run_cli(
        capsys, "encode", "--code", z17_json, "--levels", "17", "--info", "2", "--t", "0"
    )
    assert code == 0
    assert out.strip() == "8 2"


def test_decode_cli_corrected(capsys, z17_json):
    code, out, _ = run_cli(
        capsys, "decode", "--code", z17_json, "--levels", "17", "--word", "8", "4"
    )
    assert code == 0
    assert out.strip() == "codeword 8 2, corrected (i=2, m=+2)"


def test_decode_cli_clean(capsys, z17_json):
    code, out, _ = run_cli(
        capsys, "decode", "--code", z17_json, "--levels", "17", "--word", "8", "2"
    )
    assert code == 0
    assert out.strip() == "codeword 8 2, no error"


def test_decode_cli_uncorrectable(capsys, z17_json):
    code, out, _ = run_cli(
        capsys, "decode", "--code", z17_json, "--levels", "17", "--word", "6", "0"
    )
    assert code == 1
    assert out.strip() == "uncorrectable"


def test_plot_cli(capsys, tmp_path, z17_json):
    out_path = tmp_path / "packing.svg"
    code, _, _ = run_cli(
        capsys, "plot", "--splitting", z17_json, "--window", "8", "--out", str(out_path)
    )
    assert code == 0
    svg = out_path.read_text(encoding="utf-8")
    assert svg.startswith('<?xml version="1.0"')
    assert "</svg>" in svg


def test_plot_cli_lattice_input(capsys, tmp_path):
    lat_path = tmp_path / "lat.json"
    lat_path.write_text('{"basis": [[4, 1], [3, 5]]}', encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "plot", "--lattice", str(lat_path), "--kplus", "3", "--kminus", "2",
        "--window", "6"
    )
    assert code == 0
    assert "<svg" in out


def test_cli_deterministic_output(capsys, z17_json):
    _, out1, _ = run_cli(capsys, "plot", "--splitting", z17_json, "--window", "8")
    _, out2, _ = run_cli(capsys, "plot", "--splitting", z17_json, "--window", "8")
    assert out1 == out2
    _, sv1, _ = run_cli(capsys, "survey", "--kmax", "2", "--qmax", "20")
    _, sv2, _ = run_cli(capsys, "survey", "--kmax", "2", "--qmax", "20")
    assert sv1 == sv2


def test_main_calls_share_one_parser_and_keep_its_defaults(capsys, tmp_path, z17_json):
    # Z_4 with S = {1} has no free coordinate, so `encode` takes the
    # default `--info` list; a command that mutated it would change the
    # next call through the shared parser
    z4 = tmp_path / "z4.json"
    z4.write_text(to_json(make_cyclic_splitting(4, 2, 1, [1])), encoding="utf-8")
    bare = ("encode", "--code", str(z4), "--levels", "4", "--t", "0")
    with_info = ("encode", "--code", z17_json, "--levels", "17", "--info", "2", "--t", "0")
    build_parser()
    before = build_parser.cache_info()
    outputs = [run_cli(capsys, *argv) for argv in (bare, with_info, bare, with_info)]
    after = build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 4)
    assert outputs[0] == outputs[2] == (0, "0\n", "")
    assert outputs[1] == outputs[3] == (0, "8 2\n", "")
    assert build_parser().parse_args(list(bare)).info == []


def test_json_round_trip_through_cli(capsys):
    _, out, _ = run_cli(capsys, "construct", "mixed", "--p", "5", "--ell", "1",
                        "--kplus", "3", "--kminus", "1", "--k", "2")
    sp = from_json(out)
    assert sp.group.orders == (5, 5)
    assert sp.n == 6


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/path.json")
    assert code == 2
    assert "error" in err


MALFORMED_SPLITTINGS = {
    "top_level_list": "[17, 3, 2]",
    "orders_not_list": '{"orders": 17, "k_plus": 3, "k_minus": 2, "splitters": [[1], [13]]}',
    "splitters_not_list": '{"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": 5}',
    "splitter_not_list": '{"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [1, 13]}',
    "float_arm": '{"orders": [17], "k_plus": 3.7, "k_minus": 2, "splitters": [[1], [13]]}',
    "bool_arm": '{"orders": [17], "k_plus": 3, "k_minus": true, "splitters": [[1], [13]]}',
    "float_order": '{"orders": [17.0], "k_plus": 3, "k_minus": 2, "splitters": [[1], [13]]}',
    "float_splitter": '{"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [[1], [13.5]]}',
    "bool_splitter": '{"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [[true], [13]]}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPLITTINGS))
def test_verify_malformed_splitting_exit_2(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_SPLITTINGS[name], encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


MALFORMED_LATTICES = {
    "top_level_list": "[[4, 1], [3, 5]]",
    "basis_not_list": '{"basis": 5}',
    "row_not_list": '{"basis": [4, [3, 5]]}',
    "float_entry": '{"basis": [[4.5, 1], [3, 5]]}',
    "bool_entry": '{"basis": [[4, true], [3, 5]]}',
    "not_square": '{"basis": [[4, 1, 0], [3, 5, 0]]}',
    "singular": '{"basis": [[1, 2], [2, 4]]}',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LATTICES))
def test_plot_malformed_lattice_exit_2(capsys, tmp_path, name):
    path = tmp_path / "lat.json"
    path.write_text(MALFORMED_LATTICES[name], encoding="utf-8")
    code, out, err = run_cli(
        capsys, "plot", "--lattice", str(path), "--kplus", "3", "--kminus", "2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,error",
    [
        (["construct", "balance"], "construct balance needs --beta, a fraction like 2/3"),
        (["construct", "balance", "--beta", "2/x"], "--beta expects a fraction like 2/3, got '2/x'"),
        (["construct", "balance", "--beta", "2"], "--beta expects a fraction like 2/3, got '2'"),
        (["construct", "balance", "--beta", "1/2/3"], "--beta expects a fraction like 2/3, got '1/2/3'"),
        (["plot"], "plot needs --splitting, or --lattice with --kplus/--kminus"),
        (["encode", "--code", "CODE", "--levels", "17", "--info", "2", "--t", "0", "0"], "need 1 quotient digits"),
        (["construct", "cyclic"], "construct cyclic needs --p"),
        (["construct", "field", "--p", "5"], "construct field needs --kplus"),
        (["construct", "mixed", "--p", "5", "--kplus", "3"], "construct mixed needs --kminus"),
        (["bounds", "--kplus", "3", "--kminus", "1", "--n", "2", "--q", "21"],
         "bounds takes --n (shape bounds) or --q (group rules), not both"),
        (["plot", "--splitting", "CODE", "--window", "-5"], "window must be >= 0, got -5"),
        (["plot", "--splitting", "CODE", "--lattice", "missing.json"],
         "plot takes --splitting or --lattice, not both"),
        (["plot", "--lattice", "LATTICE", "--kplus", "0", "--kminus", "0"],
         "need 0 < k_minus < k_plus, got (0, 0)"),
        (["plot", "--splitting", "CODE", "--kplus", "7", "--kminus", "5"],
         "plot --splitting takes its arms from the file, not --kplus/--kminus"),
        (["plot", "--splitting", "CODE", "--window", "20000"],
         "window 20000 would draw about 1035345883 cells, more than 1000000"),
    ],
    ids=["balance-without-beta", "beta-not-a-number", "beta-without-slash", "beta-two-slashes",
         "plot-without-input", "encode-two-t-digits", "cyclic-without-p", "field-without-kplus",
         "mixed-without-kminus", "bounds-n-and-q", "plot-negative-window", "plot-splitting-and-lattice",
         "plot-zero-arms", "plot-splitting-with-arms", "plot-over-budget"],
)
def test_missing_or_extra_input_exits_2_with_one_error_line(capsys, tmp_path, z17_json, argv, error):
    # `construct balance` without --beta used to end in an AttributeError
    # traceback; the other kinds blamed a malformed value for a missing
    # flag, `bounds` dropped --n when --q was given, `plot` drew a negative
    # window as an inverted viewBox, dropped --lattice beside --splitting
    # and called zero arms missing; `plot --splitting` also ignored --kplus
    # and --kminus, and allocated any window it was given before failing
    lattice = tmp_path / "lat.json"
    lattice.write_text('{"basis": [[4, 1], [3, 5]]}', encoding="utf-8")
    files = {"CODE": z17_json, "LATTICE": str(lattice)}
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [["verify", "HUGE"], ["lattice", "HUGE"], ["decode", "--code", "HUGE", "--levels", "4000000007", "--word", "1"]],
    ids=["verify", "lattice", "decode"],
)
def test_huge_arms_are_refused_before_the_scan_allocates(capsys, tmp_path, argv):
    # 10^9 products: the scan used to build them all and then run out of memory
    huge = tmp_path / "huge.json"
    huge.write_text('{"orders": [4000000007], "k_plus": 1000000000, "k_minus": 1, "splitters": [[1]]}')
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *[str(huge) if a == "HUGE" else a for a in argv])
    assert time.perf_counter() - start < 1.0
    limit = split_mod.SCAN_MAX_PRODUCTS
    assert (code, out, err) == (2, "", f"error: the product scan needs 1000000001 products, more than {limit}\n")


OVERSIZED = {
    "cyclic": (["cyclic", "--p", "5", "--ell", "12", "--kplus", "3", "--kminus", "1"], 5**12 - 1),
    "field": (["field", "--p", "5", "--ell", "12", "--kplus", "3", "--kminus", "1"], 5**12 - 1),
    "two-one": (["two-one", "--ell", "12"], 4**12 - 1),
    "mixed": (["mixed", "--p", "5", "--ell", "6", "--kplus", "3", "--kminus", "1", "--k", "2"], 5**12 - 1),
}


@pytest.mark.parametrize("kind", sorted(OVERSIZED))
def test_oversized_constructions_are_refused_before_they_allocate(kind):
    # each built its splitters before the scan refused them, and under a
    # 1 GB cap ran out of memory first; a tiling has |G| - 1 products
    argv, products = OVERSIZED[kind]
    start = time.monotonic()
    proc = cli_in_512_mib("construct", *argv)
    assert time.monotonic() - start < 10
    err = f"error: the product scan needs {products} products, more than {split_mod.SCAN_MAX_PRODUCTS}\n"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", err)


HUGE_EXPONENTS = {
    "cyclic": (["cyclic", "--p", "5", "--ell", str(10**7), "--kplus", "3", "--kminus", "1"], 5),
    "field": (["field", "--p", "5", "--ell", str(10**7), "--kplus", "3", "--kminus", "1"], 5),
    "two-one": (["two-one", "--ell", str(10**7)], 4),
    "mixed": (["mixed", "--p", "5", "--ell", "1", "--kplus", "3", "--kminus", "1", "--k", str(10**7)], 5),
}


@pytest.mark.parametrize("kind", sorted(HUGE_EXPONENTS))
def test_huge_exponents_are_refused_before_the_power(capsys, kind):
    # the count was raised in full: an exponent of 10^5 ended in the int
    # printing limit's error, and one of 10^7 took seconds to refuse
    argv, base = HUGE_EXPONENTS[kind]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", *argv)
    assert time.perf_counter() - start < 1.0
    limit = split_mod.SCAN_MAX_PRODUCTS
    assert (code, out, err) == (2, "", f"error: the product scan needs at least {base}^{10**7 - 1} products, more than {limit}\n")


M61 = 2**61 - 1  # a Mersenne prime


@pytest.mark.parametrize(
    "argv,err",
    [(["balance", "--beta", "1/2", "--index", "400000"],
      "no 400000 primes = 1 (mod 3) have p - 1 <= 500000, the product scan's limit"),
     (["cyclic", "--p", str(M61), "--ell", "1", "--kplus", str(M61 - 2), "--kminus", "1"],
      f"the product scan needs {M61 - 1} products, more than 500000")],
    ids=["balance-past-the-scan", "cyclic-huge-p"],
)
def test_constructions_past_the_scan_are_refused_before_their_primes(argv, err):
    # balance once tested every p = 1 (mod 3) up to 10^7, about 48 s to
    # index 400000, and cyclic ran trial division on 2^61 - 1 for minutes
    start = time.monotonic()
    proc = cli_in_512_mib("construct", *argv)
    assert time.monotonic() - start < 2
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", f"error: {err}\n")


def test_verify_classifies_singularity_without_factoring_the_order(tmp_path):
    # |G| = 2 * (2^61 - 1): trial division of its odd part took minutes,
    # while 2..k_plus divided out leave 2^61 - 1, neither |G| nor 1
    path = tmp_path / "z2m61.json"
    path.write_text(to_json(make_cyclic_splitting(2 * M61, 2, 1, [1])), encoding="utf-8")
    start = time.monotonic()
    proc = cli_in_512_mib("verify", str(path))
    assert time.monotonic() - start < 2
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().splitlines()[1] == f"group Z{2 * M61}, det {2 * M61}, singular"


def test_scan_limit_admits_the_largest_constructions():
    # the (3,1) tiling of Z_390625 makes 390,624 products and is verified as it is built
    assert cyclic_splitting(5, 8, 3, 1).n * 4 == 390_624 <= split_mod.SCAN_MAX_PRODUCTS


def test_plot_budget_refuses_before_drawing(capsys, monkeypatch, tmp_path):
    from quasicross import lattice

    # the benchmark's plot: --window 12 on a 2-D packing of Z_11 draws about
    # 25^2 * 7 / 11 = 397 cells, far below the budget
    z11 = tmp_path / "z11.json"
    z11.write_text(to_json(make_cyclic_splitting(11, 2, 1, [1, 4])), encoding="utf-8")
    assert 397 * 1000 < lattice.RENDER_2D_MAX_CELLS
    assert run_cli(capsys, "plot", "--splitting", str(z11))[0] == 0
    monkeypatch.setattr(lattice, "RENDER_2D_MAX_CELLS", 396)
    code, out, err = run_cli(capsys, "plot", "--splitting", str(z11))
    assert (code, out, err) == (2, "", "error: window 12 would draw about 397 cells, more than 396\n")
    monkeypatch.setattr(lattice, "RENDER_2D_MAX_CELLS", 397)
    assert run_cli(capsys, "plot", "--splitting", str(z11))[0] == 0


def test_verify_runs_the_geometric_check_past_volume_100000(capsys, tmp_path):
    # Z_390625: n = 97,656 splitters, cross volume 390,625; the check has no
    # volume guard of its own, as the scan's product limit already bounds it
    code, out, _ = run_cli(capsys, "construct", "cyclic", "--p", "5", "--ell", "8", "--kplus", "3", "--kminus", "1")
    assert code == 0
    path = tmp_path / "z390625.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "geometric check: tiling, 0 uncovered coset(s)"
    code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["geometric"] == "tiling"


def test_interrupt_exits_130_and_restores_the_sigint_handler(capsys, monkeypatch):
    before = signal.getsignal(signal.SIGINT)

    def interrupted(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGINT)
        return []

    monkeypatch.setattr(search_mod, "survey", interrupted)
    code, out, err = run_cli(capsys, "survey", "--kmax", "2", "--qmax", "20")
    assert (code, out, err) == (130, "", "interrupted\n")
    assert signal.getsignal(signal.SIGINT) is before
    assert run_cli(capsys, "bounds", "--kplus", "2", "--kminus", "1", "--q", "16")[0] == 0
    assert signal.getsignal(signal.SIGINT) is before


# --- fuzzed input files ---------------------------------------------------

# small integers, and integers past 2**63, which fail before anything is
# allocated; arms between about 10**7 and 2**63 would allocate first
fuzz_ints = st.one_of(
    st.integers(-3, 30), st.integers(2**63, 2**100), st.integers(-(2**100), -(2**63))
)
fuzz_json = st.recursive(
    st.one_of(st.none(), st.booleans(), fuzz_ints, st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=10,
)


@st.composite
def documents(draw, fields):
    """An object with the reader's fields, each drawn from its own strategy,
    or half the time with one of them any JSON value."""
    doc = {key: draw(strategy) for key, strategy in fields.items()}
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(fields)))] = draw(fuzz_json)
    return doc


@st.composite
def splitting_docs(draw):
    rank = draw(st.integers(1, 2))
    int_rows = st.lists(fuzz_ints, min_size=rank, max_size=rank)
    return draw(documents({
        "orders": int_rows,
        "k_plus": fuzz_ints,
        "k_minus": fuzz_ints,
        "splitters": st.lists(int_rows, min_size=1, max_size=5),
    }))


short_rows = st.lists(fuzz_ints, max_size=3)
lattice_docs = documents({"basis": st.lists(short_rows, max_size=3)})
row_ints = st.one_of(st.sampled_from([1, 2, 7, 10, 16]), fuzz_ints)
row_docs = documents({
    "k_plus": row_ints,
    "k_minus": row_ints,
    "q": row_ints,
    "n": row_ints,
    "ruled_out": st.booleans(),
    "triggered": st.lists(st.text(max_size=4), max_size=2),
    "searched": st.booleans(),
    "tilings": st.lists(short_rows, max_size=2),
    "elapsed": st.floats(),
})


def one_value(docs):
    return st.one_of(docs, fuzz_json).map(json.dumps)


def log_lines(docs):
    return st.lists(st.one_of(docs, fuzz_json), min_size=1, max_size=3).map(
        lambda values: "".join(json.dumps(v) + "\n" for v in values)
    )


BIG_ARMS = json.dumps({"orders": [17], "k_plus": 10**30, "k_minus": 2, "splitters": [[1], [13]]})

# each CLI reader of a JSON file: its argv, with FILE for the path, and
# the text it reads
READERS = {
    "verify": (["verify", "FILE"], one_value(splitting_docs())),
    "lattice": (["lattice", "FILE"], one_value(splitting_docs())),
    "encode": (["encode", "--code", "FILE", "--levels", "34", "--info", "1", "--t", "0"],
               one_value(splitting_docs())),
    "decode": (["decode", "--code", "FILE", "--levels", "34", "--word", "1", "2"],
               one_value(splitting_docs())),
    "plot": (["plot", "--lattice", "FILE", "--kplus", "3", "--kminus", "2"], one_value(lattice_docs)),
    "survey": (["survey", "--kmax", "2", "--qmax", "20", "--progress", "FILE"], log_lines(row_docs)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_fuzzed_input_files_exit_0_1_or_2_without_a_traceback(tmp_path_factory, reader):
    argv, texts = READERS[reader]
    path = tmp_path_factory.mktemp(reader) / "input.json"
    argv = [str(path) if a == "FILE" else a for a in argv]

    @settings(max_examples=60, deadline=None)
    @given(texts)
    @example(BIG_ARMS)
    @example(NON_PACKING)
    def check(text):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    check()


def test_verify_of_arms_past_2_63_exits_2(capsys, tmp_path):
    # building the multiplier tuple raised OverflowError out of `main`; the
    # scan's product limit now refuses these arms before the tuple is built
    path = tmp_path / "big.json"
    path.write_text(BIG_ARMS, encoding="utf-8")
    products = 2 * (10**30 + 2)
    assert run_cli(capsys, "verify", str(path)) == (
        2, "", f"error: the product scan needs {products} products, more than {split_mod.SCAN_MAX_PRODUCTS}\n"
    )


# argv for the dispatch in `main`: help, missing, extra, unknown and
# malformed arguments, choices, abbreviations and `--`, through the command's
# own parser or the top level's
DISPATCH = [
    [], ["-h"], ["frobnicate"], ["frobnicate", "--q", "4"], ["--bogus", "verify", "a.json"],
    ["--", "verify", "a.json"], ["verify", "-h"], ["verify", "a.json", "--help", "--bogus"], ["verify"],
    ["verify", "a.json", "b.json"], ["verify", "a.json", "--bogus"], ["verify", "a.json", "-x", "--bogus", "c"],
    ["verify", "a.json", "--format", "xml"], ["verify", "a.json", "--form", "json"],
    ["verify", "--", "a.json"], ["verify", "a.json", "--"], ["construct", "nope"],
    ["construct", "cyclic", "--p", "5", "--ell", "2", "--kplus", "3", "--kminus", "1"],
    ["bounds", "--kplus", "2"], ["bounds", "--kplus", "2", "--kminus", "1", "--q=16", "--format", "json"],
    ["decode", "--code", "c.json", "--levels", "x", "--word", "1"],
    ["decode", "--code", "c.json", "--levels", "17", "--word", "1", "two"],
    ["decode", "--code", "c.json", "--levels", "17", "--word", "-1", "2"],
    ["decode", "--code", "c.json", "--levels", "17", "--word"],
    ["encode", "--code", "c.json", "--levels", "17", "--info", "--t", "0"],
    ["survey", "--kmax", "1.5"], ["survey", "--kmax", "2", "--kmax", "3", "--no-prune", "--csv", "o.csv"],
    ["search", "--kplus", "2", "--kminus", "1", "--q", "16", "--first", "--raw", "--time-limit", "1"],
    ["plot", "--window", "3", "stray"],
]


def parse_outcome(parse, argv):
    """What a parse of argv shows: its Namespace less `command`, or the
    SystemExit code, and the stdout and stderr it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            args = exc.code
    if isinstance(args, argparse.Namespace):
        args = {k: v for k, v in vars(args).items() if k != "command"}
    return args, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", DISPATCH, ids=[" ".join(a) or "none" for a in DISPATCH])
def test_main_parses_as_the_top_level_parser_does(monkeypatch, argv):
    # `main` hands argv[1:] to the command's own parser; each command
    # records its Namespace here instead of running
    seen = []
    for command in build_parser().commands.values():
        monkeypatch.setitem(command._defaults, "func", lambda args: seen.append(args) or 0)

    def through_main(argv):
        assert main(argv) == 0
        return seen.pop()

    assert parse_outcome(through_main, argv) == parse_outcome(build_parser().parse_args, argv)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["quasicross", "bounds", "--kplus", "2", "--kminus", "1", "--q", "16"])
    assert main() == 0
    assert capsys.readouterr() == ("not ruled out\n", "")
