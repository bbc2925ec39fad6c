"""The benchmark's workloads.

Each workload is a closed loop: one caller, one process, no threads.  A
run sets the workload up, then repeats whole rounds of the same
operations; a round draws its inputs from the run's seeded generator, so
every run attempts the same operations in the same proportions whatever
the seed.  `round` returns (seconds, start, end) of each operation and
the outputs; `check` tests those outputs against `checks`, outside the
timed part.  `calibration` names the loop of `speed` whose slowdown on a
busy machine tracks the workload's own.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod

import checks
import speed
from checks import CheckError


def import_fresh():
    """Import `quasicross` from scratch (from its bytecode cache when
    present), so that every set-up pays the import again."""
    for name in [m for m in sys.modules if m == "quasicross" or m.startswith("quasicross.")]:
        del sys.modules[name]
    importlib.import_module("quasicross")
    return importlib.import_module("quasicross.cli")


def module(name: str):
    return sys.modules[f"quasicross.{name}"]


@dataclass
class Round:
    """What one round did.  `ops` holds (seconds, start, end) of each
    completed operation, `timed` the same for every stretch of time spent
    inside the program, failed operations included; `outputs` are kept
    for checking."""

    ops: list[tuple[float, float, float]] = field(default_factory=list)
    timed: list[tuple[float, float, float]] = field(default_factory=list)
    failed: int = 0
    outputs: list = field(default_factory=list)


def grid_instances(k_max: int, q_max: int) -> set[tuple[int, int, int]]:
    """(k+, k-, q) with 0 < k- < k+ <= k_max, q <= q_max and an integer
    dimension n = (q-1)/(k+ + k-) >= 2."""
    return {
        (kp, km, q)
        for kp in range(2, k_max + 1)
        for km in range(1, kp)
        for q in range(2 * (kp + km) + 1, q_max + 1)
        if (q - 1) % (kp + km) == 0
    }


def feasible_error(rng, word, k_plus: int, k_minus: int, levels: int) -> tuple[int, int]:
    """A coordinate and a magnitude in [-k-, k+] \\ {0} that keep the
    cell inside [0, levels): errors never push a level off the scale."""
    i = rng.randrange(len(word))
    options = [m for m in checks.multipliers(k_plus, k_minus) if 0 <= word[i] + m < levels]
    return i, rng.choice(options)


# --- survey_grid --------------------------------------------------------------


class SurveyGrid:
    """The unpruned survey k+ <= 10, q <= 100 through `search.survey`,
    serially.  One operation is one grid instance; its latency is the
    per-instance time the survey reports in `SurveyRow.elapsed`."""

    name = "survey_grid"
    calibration = staticmethod(speed.nested_calls)
    trace_rounds = 1
    K_MAX, Q_MAX = 10, 100
    EXHAUSTIVE_Q_MAX = 64  # independent search is cheap up to here

    def setup(self, workdir: str):
        import_fresh()
        return None

    def round(self, state, rng) -> Round:
        search = module("search")
        start = time.perf_counter()
        rows = search.survey(self.K_MAX, self.Q_MAX, jobs=1, prune_with_bounds=False)
        end = time.perf_counter()
        # Instances run one after another in the order returned; place
        # each in time by the cumulative reported time, scaled to the call.
        scale = (end - start) / max(sum(r.elapsed for r in rows), 1e-9)
        ops, t = [], start
        for r in rows:
            ops.append((r.elapsed, t, t + r.elapsed * scale))
            t = ops[-1][2]
        return Round(ops, [(end - start, start, end)], 0, rows)

    def check(self, state, rnd: Round, first: bool) -> None:
        rows = {(r.k_plus, r.k_minus, r.q): r for r in rnd.outputs}
        grid = grid_instances(self.K_MAX, self.Q_MAX)
        if len(rnd.outputs) != len(grid) or set(rows) != grid:
            raise CheckError(f"survey reports {len(rnd.outputs)} instances, grid has {len(grid)}")
        if first:
            self.classes = {}
        for key, row in rows.items():
            kp, km, q = key
            if row.n != (q - 1) // (kp + km) or not row.searched:
                raise CheckError(f"instance {key}: wrong n or not searched")
            ruled_out = checks.instance_ruled_out(kp, km, q)
            if row.ruled_out != ruled_out:
                raise CheckError(f"instance {key}: ruled_out={row.ruled_out}, rules give {ruled_out}")
            found = set(map(tuple, row.tilings))
            if len(found) != len(row.tilings):
                raise CheckError(f"instance {key}: a class is reported twice")
            if found and (ruled_out or checks.dimension_ruled_out(kp, km, row.n)):
                raise CheckError(f"instance {key} is ruled out but has tilings")
            if not first:
                if found != self.classes[key]:
                    raise CheckError(f"instance {key}: tilings differ between rounds")
                continue
            for values in found:
                checks.check_tiling((q,), kp, km, [(s,) for s in values])
                checks.check_canonical(q, values)
            if q <= self.EXHAUSTIVE_Q_MAX and found != checks.exhaustive_classes(q, kp, km):
                raise CheckError(f"instance {key}: classes differ from the exhaustive search")
            self.classes[key] = found
        tiled_21 = {q for (kp, km, q), c in self.classes.items() if (kp, km) == (2, 1) and c}
        if tiled_21 != {16, 64}:
            raise CheckError(f"(2,1) tilings found at q in {sorted(tiled_21)}, expected 16 and 64")
        known = [(3, 1, 5, 2), (4, 2, 7, 2), (5, 1, 7, 2)]
        built = [((kp, km, p**ell), checks.cyclic_construction(p, ell)) for kp, km, p, ell in known]
        built += [((2, 1, 4**ell), checks.two_one_construction(ell)) for ell in (2, 3)]
        for (kp, km, q), values in built:
            checks.check_tiling((q,), kp, km, [(s,) for s in values])
            if checks.unit_orbit_min(q, values) not in self.classes[(kp, km, q)]:
                raise CheckError(f"construction over Z_{q} with arms ({kp},{km}) is in no reported class")


# --- codec_stream -------------------------------------------------------------


class CodecStream:
    """Words round-tripped through one code of each family, each table
    built once in set-up.  One operation is one word: encode, at most
    one limited-magnitude error, decode; its latency is the encode and
    decode time, the error injection between them is not timed."""

    name = "codec_stream"
    calibration = staticmethod(speed.fill_dict)
    trace_rounds = 20
    # (label, constructor, arguments, levels, words per round).  Costs
    # rise down the list; the shares (10/20/40/30%) put the median in
    # the middle of the Z_625 words and the 90th percentile two thirds
    # into the Z_1024 words, away from any boundary between codes.
    CODES = (
        ("GF(5^3)", "field_splitting", (5, 3, 3, 1), 5, 2),
        ("Z_7^3", "mixed_splitting", (7, 1, 4, 2, 3), 7, 4),
        ("Z_625", "cyclic_splitting", (5, 4, 3, 1), 625, 8),
        ("Z_1024", "two_one_splitting", (5,), 1024, 6),
    )
    CLEAN_EVERY = 5  # every fifth word crosses the channel without error

    def setup(self, workdir: str):
        import_fresh()
        cons, codec = module("constructions"), module("codec")
        codes = []
        for label, ctor, params, levels, _ in self.CODES:
            sp = getattr(cons, ctor)(*params)
            codes.append((label, sp, codec.make_code(sp, levels), codec.SyndromeTable(sp), levels))
        return codes

    def order(self) -> list[int]:
        """Code indices of one round, round-robin over the codes."""
        left = [spec[4] for spec in self.CODES]
        out = []
        while any(left):
            for idx in range(len(left)):
                if left[idx]:
                    out.append(idx)
                    left[idx] -= 1
        return out

    def round(self, codes, rng) -> Round:
        codec = module("codec")
        rnd = Round()
        for j, idx in enumerate(self.order()):
            _, sp, cs, table, levels = codes[idx]
            info = [rng.randrange(levels) for _ in range(cs.n - len(cs.pivots))]
            start = time.perf_counter()
            codeword = codec.encode(cs, info)
            elapsed = time.perf_counter() - start
            word = list(codeword)
            error = None
            if j % self.CLEAN_EVERY:
                mult = sp.multipliers
                error = feasible_error(rng, word, mult.k_plus, mult.k_minus, levels)
                word[error[0]] += error[1]
            mid = time.perf_counter()
            decoded = codec.decode(cs, word, table)
            end = time.perf_counter()
            op = (elapsed + end - mid, start, end)
            rnd.ops.append(op)
            rnd.timed.append(op)
            rnd.outputs.append((idx, info, codeword, error, decoded))
        return rnd

    def check(self, codes, rnd: Round, first: bool) -> None:
        if first:
            for label, sp, *_ in codes:
                checks.check_tiling(sp.group.orders, sp.multipliers.k_plus,
                                    sp.multipliers.k_minus, sp.splitters)
        for idx, info, codeword, error, decoded in rnd.outputs:
            label, sp, _, _, levels = codes[idx]
            orders = sp.group.orders
            if checks.syndrome(orders, sp.splitters, codeword) != (0,) * len(orders):
                raise CheckError(f"{label}: encoder output has a nonzero syndrome")
            if any(not 0 <= x < levels for x in codeword):
                raise CheckError(f"{label}: encoder output leaves [0, {levels})")
            checks.check_systematic(info, codeword, len(orders))
            if decoded.codeword != codeword or decoded.correction != error:
                word = "the sent word" if decoded.codeword == codeword else "another word"
                raise CheckError(
                    f"{label}: decoded to {word} with correction {decoded.correction}, "
                    f"injected {error}"
                )


# --- cli_session --------------------------------------------------------------


@dataclass
class Op:
    """One command of the session: its argv, the exit code it must give,
    and a check of its standard output.  A `malformed` op that does not
    exit with `expect` is counted as failed instead of failing the run."""

    argv: list[str]
    expect: int = 0
    check: object = None
    malformed: bool = False


def call_cli(cli, argv) -> tuple[object, tuple[float, float, float], str, str]:
    """Run `cli.main(argv)` with its output captured: exit code (or the
    exception that escaped), (seconds, start, end), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped exception is a failed command
            rc = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
    return rc, (end - start, start, end), out.getvalue(), err.getvalue()


def random_codeword(entry: dict, levels: int, rng) -> list[int]:
    """A uniform codeword built without the encoder: random digits, then
    the coordinates whose splitters are unit vectors e_j absorb the
    syndrome (every construction of the ladder has them)."""
    orders, splitters = entry["orders"], entry["splitters"]
    v = orders[0]
    word = [rng.randrange(levels) for _ in splitters]
    syn = checks.syndrome(orders, splitters, word)
    for j in range(len(orders)):
        unit = [int(i == j) for i in range(len(orders))]
        i = splitters.index(unit)
        word[i] -= syn[j]
        if word[i] < 0:
            word[i] += v
    return word


def parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


class CliSession:
    """A fixed script of in-process `cli.main` calls over a ladder of
    constructions up to Z_1024, plus negative cases.  One operation is
    one command; its latency covers argument parsing, the work and the
    output, as a user of the command sees it."""

    name = "cli_session"
    calibration = staticmethod(speed.fill_dict)
    trace_rounds = 1
    # (name, construct kind, flags).  Z_15625 is left out: its `verify`
    # runs an O(n^3) determinant on n = 3906 and takes minutes.  The six
    # codes of order 343 (n = 57) make the class of commands the 90th
    # percentile falls in: `verify` at 20-35 ms, between the few large
    # `verify` runs above and the many small commands below.
    LADDER = (
        ("z25", "cyclic", {"p": 5, "ell": 2, "kplus": 3, "kminus": 1}),
        ("z125", "cyclic", {"p": 5, "ell": 3, "kplus": 3, "kminus": 1}),
        ("z625", "cyclic", {"p": 5, "ell": 4, "kplus": 3, "kminus": 1}),
        ("z49", "cyclic", {"p": 7, "ell": 2, "kplus": 4, "kminus": 2}),
        ("z343", "cyclic", {"p": 7, "ell": 3, "kplus": 5, "kminus": 1}),
        ("z343b", "cyclic", {"p": 7, "ell": 3, "kplus": 4, "kminus": 2}),
        ("z121", "cyclic", {"p": 11, "ell": 2, "kplus": 6, "kminus": 4}),
        ("z16", "two-one", {"ell": 2}),
        ("z64", "two-one", {"ell": 3}),
        ("z256", "two-one", {"ell": 4}),
        ("z1024", "two-one", {"ell": 5}),
        ("gf25", "field", {"p": 5, "ell": 2, "kplus": 3, "kminus": 1}),
        ("gf125", "field", {"p": 5, "ell": 3, "kplus": 3, "kminus": 1}),
        ("gf49", "field", {"p": 7, "ell": 2, "kplus": 5, "kminus": 1}),
        ("gf343", "field", {"p": 7, "ell": 3, "kplus": 4, "kminus": 2}),
        ("gf343b", "field", {"p": 7, "ell": 3, "kplus": 5, "kminus": 1}),
        ("z5x2", "mixed", {"p": 5, "ell": 1, "kplus": 3, "kminus": 1, "k": 2}),
        ("z5x3", "mixed", {"p": 5, "ell": 1, "kplus": 3, "kminus": 1, "k": 3}),
        ("z7x3", "mixed", {"p": 7, "ell": 1, "kplus": 4, "kminus": 2, "k": 3}),
        ("z7x3b", "mixed", {"p": 7, "ell": 1, "kplus": 5, "kminus": 1, "k": 3}),
        ("z25x2", "mixed", {"p": 5, "ell": 2, "kplus": 3, "kminus": 1, "k": 2}),
        ("beta2_3", "balance", {"beta": "2/3", "index": 1}),
        ("beta1_3", "balance", {"beta": "1/3", "index": 5}),
    )
    BOUNDS = (  # (k+, k-, flag, value, json output)
        (3, 2, "n", 2, False), (3, 1, "n", 6, True), (6, 4, "n", 12, True),
        (10, 9, "n", 30, False), (2, 1, "q", 16, True), (2, 1, "q", 100, True),
        (4, 3, "q", 99, False), (5, 1, "q", 49, True),
    )
    SEARCHES = (  # (k+, k-, q, extra flags)
        (2, 1, 16, []), (3, 1, 25, []), (4, 2, 49, []), (5, 1, 49, ["--format", "json"]),
        (2, 1, 40, []), (3, 2, 41, []), (2, 1, 16, ["--first"]),
    )
    PACKING = {"orders": [11], "k_plus": 2, "k_minus": 1, "splitters": [[1], [4]]}
    NON_PACKING = {"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [[1], [2]]}
    # Malformed splitting files: each should exit 2.
    MALFORMED = {
        "splitters_int": '{"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": 5}',
        "splitters_flat": '{"orders": [17], "k_plus": 3, "k_minus": 2, "splitters": [1, 13]}',
        "top_level_list": "[17, 3, 2]",
        "float_arm": '{"orders": [17], "k_plus": 3.7, "k_minus": 2, "splitters": [[1], [13]]}',
    }

    def build(self, kind: str, flags: dict):
        cons = module("constructions")
        if kind == "balance":
            a, b = map(int, flags["beta"].split("/"))
            return cons.balance_family(a, b, flags["index"]).splitting
        if kind == "two-one":
            return cons.two_one_splitting(flags["ell"])
        args = (flags["p"], flags["ell"], flags["kplus"], flags["kminus"])
        if kind == "mixed":
            return cons.mixed_splitting(*args, flags["k"])
        return getattr(cons, f"{kind}_splitting")(*args)

    def setup(self, workdir: str):
        cli = import_fresh()
        split = module("splitting")
        files = {}

        def put(name: str, text: str) -> str:
            path = os.path.join(workdir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files[name] = path
            return text

        ladder = {}
        for name, kind, flags in self.LADDER:
            ladder[name] = json.loads(put(name, split.to_json(self.build(kind, flags))))
        put("packing", json.dumps(self.PACKING))
        put("non_packing", json.dumps(self.NON_PACKING))
        for name, text in self.MALFORMED.items():
            put(name, text)
        return {"cli": cli, "files": files, "ladder": ladder}

    # -- the script --

    def script(self, state, rng) -> list[Op]:
        files, ladder = state["files"], state["ladder"]
        ops = []
        for name, kind, flags in self.LADDER:
            argv = ["construct", kind] + [x for k, v in flags.items() for x in (f"--{k}", str(v))]
            ops.append(Op(argv, 0, self.construct_check(kind, flags)))
        for name, entry in ladder.items():
            ops.append(Op(["verify", files[name]], 0, self.verify_check(entry, False)))
            ops.append(Op(["verify", files[name], "--format", "json"], 0, self.verify_check(entry, True)))
            ops.append(Op(["lattice", files[name]], 0, self.lattice_check(entry)))
        ops.append(Op(["verify", files["packing"]], 0, self.verify_check(self.PACKING, False)))
        for kp, km, flag, value, as_json in self.BOUNDS:
            argv = ["bounds", "--kplus", str(kp), "--kminus", str(km), f"--{flag}", str(value)]
            argv += ["--format", "json"] if as_json else []
            ops.append(Op(argv, 0, self.bounds_check(kp, km, flag, value, as_json)))
        for kp, km, q, extra in self.SEARCHES:
            argv = ["search", "--kplus", str(kp), "--kminus", str(km), "--q", str(q)] + extra
            ops.append(Op(argv, 0, self.search_check(kp, km, q, extra)))
        ops.append(Op(["plot", "--splitting", files["packing"], "--window", "12"], 0,
                      self.plot_check(12)))
        for name, entry in ladder.items():
            levels, k = entry["orders"][0], len(entry["orders"])
            info = [rng.randrange(levels) for _ in range(len(entry["splitters"]) - k)]
            argv = ["encode", "--code", files[name], "--levels", str(levels), "--info"]
            ops.append(Op(argv + [str(x) for x in info], 0, self.encode_check(entry, info)))
        for name, entry in ladder.items():
            levels = entry["orders"][0]
            base = ["decode", "--code", files[name], "--levels", str(levels), "--word"]
            codeword = random_codeword(entry, levels, rng)
            i, m = feasible_error(rng, codeword, entry["k_plus"], entry["k_minus"], levels)
            word = list(codeword)
            word[i] += m
            ops.append(Op(base + [str(x) for x in word], 0, self.decode_check(codeword, (i, m))))
            clean = random_codeword(entry, levels, rng)
            ops.append(Op(base + [str(x) for x in clean] + ["--format", "json"], 0,
                          self.decode_check(clean, None)))
        ops.append(Op(["verify", files["non_packing"]], 1, self.non_packing_check))
        ops.append(Op(["lattice", files["non_packing"]], 1))
        word = self.uncorrectable_word(rng)
        ops.append(Op(["decode", "--code", files["packing"], "--levels", "11", "--word"]
                      + [str(x) for x in word], 1, self.uncorrectable_check(word)))
        for name in self.MALFORMED:
            ops.append(Op(["verify", files[name]], 2, None, malformed=True))
        return ops

    def round(self, state, rng) -> Round:
        cli = state["cli"]
        rnd = Round()
        for op in self.script(state, rng):
            rc, span, out, err = call_cli(cli, op.argv)
            rnd.timed.append(span)
            if op.malformed and rc != op.expect:
                rnd.failed += 1
            else:
                rnd.ops.append(span)
            rnd.outputs.append((op, rc, out, err))
        return rnd

    def check(self, state, rnd: Round, first: bool) -> None:
        if first:
            for entry in state["ladder"].values():
                checks.check_tiling(entry["orders"], entry["k_plus"], entry["k_minus"],
                                    entry["splitters"])
        for op, rc, out, err in rnd.outputs:
            if op.malformed:
                continue
            if rc != op.expect:
                raise CheckError(f"{' '.join(op.argv)[:80]}: exit {rc}, expected {op.expect}: {err}")
            if op.check is not None:
                try:
                    op.check(out)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    raise CheckError(f"{' '.join(op.argv)[:80]}: unreadable output: {exc}") from exc

    def verify_ok(self, rnd: Round) -> int:
        """How many `verify` commands of the round exited 0."""
        return sum(1 for op, rc, _, _ in rnd.outputs if op.argv[0] == "verify" and rc == 0)

    # -- output checks, each built from the inputs alone --

    def construct_check(self, kind: str, flags: dict):
        def check(out: str) -> None:
            data = json.loads(out)
            orders, kp, km = data["orders"], data["k_plus"], data["k_minus"]
            if kind == "balance":
                a, b = map(int, flags["beta"].split("/"))
                p = checks.balance_prime(a, b, flags["index"])
                t = (p - 1) // (a + b)
                expect = ([p], t * b, t * a)
            elif kind == "two-one":
                expect = ([4 ** flags["ell"]], 2, 1)
            else:
                q = flags["p"] ** flags["ell"] if kind != "field" else flags["p"]
                copies = flags["ell"] if kind == "field" else flags.get("k", 1)
                expect = ([q] * copies, flags["kplus"], flags["kminus"])
            if (orders, kp, km) != expect:
                raise CheckError(f"construct {kind}: group/arms {(orders, kp, km)}, expected {expect}")
            checks.check_tiling(orders, kp, km, data["splitters"])
        return check

    def verify_check(self, entry: dict, as_json: bool):
        orders, kp, km, splitters = entry["orders"], entry["k_plus"], entry["k_minus"], entry["splitters"]
        tiling = prod(orders) == len(splitters) * (kp + km) + 1
        density = Fraction(len(splitters) * (kp + km) + 1, prod(orders))
        expect = {
            "verdict": "tiling" if tiling else "packing",
            "density": str(density),
            "det": prod(orders),
            "period": [checks.element_order(orders, s) for s in splitters],
            "singularity": checks.singularity(prod(orders), kp, km),
        }

        def check(out: str) -> None:
            if as_json:
                data = json.loads(out)
                got = {key: data[key] for key in expect}
                geometric = data["geometric"]
            else:
                lines = out.splitlines()
                head = re.fullmatch(r"(\w+), density (\S+), period \(([\d, ]+)\)", lines[0])
                group = re.fullmatch(r"group .*, det (\d+), (\S+)", lines[1])
                got = {
                    "verdict": head[1], "density": head[2], "det": int(group[1]),
                    "period": [int(x) for x in head[3].split(",")], "singularity": group[2],
                }
                geo = [ln for ln in lines if ln.startswith("geometric check: ")]
                geometric = geo[0].split(": ")[1].split(",")[0] if geo else None
            if got != expect:
                diff = {k: (got[k], expect[k]) for k in expect if got[k] != expect[k]}
                raise CheckError(f"verify: (reported, expected) differ: {str(diff)[:200]}")
            if geometric not in (None, expect["verdict"]):
                raise CheckError(f"verify: geometric check says {geometric}")
        return check

    def lattice_check(self, entry: dict):
        def check(out: str) -> None:
            checks.check_kernel_basis(entry["orders"], entry["splitters"], json.loads(out)["basis"])
        return check

    def bounds_check(self, kp: int, km: int, flag: str, value: int, as_json: bool):
        if flag == "n":
            expect = checks.dimension_ruled_out(kp, km, value) or km > value - 1
        else:
            expect = checks.instance_ruled_out(kp, km, value)

        def check(out: str) -> None:
            got = json.loads(out)["ruled_out"] if as_json else out.startswith("ruled out")
            if got != expect:
                raise CheckError(f"bounds ({kp},{km}) {flag}={value}: ruled out {got}, expected {expect}")
        return check

    def search_check(self, kp: int, km: int, q: int, extra: list[str]):
        def check(out: str) -> None:
            if "json" in extra:
                found = [tuple(s[0] for s in d["splitters"]) for d in json.loads(out)]
            else:
                lines = out.splitlines()
                found = [tuple(parse_ints(ln)) for ln in lines[1:]]
                if lines[0] != f"{len(found)} canonical tiling(s)":
                    raise CheckError(f"search: header {lines[0]!r} for {len(found)} lines")
            for values in found:
                checks.check_tiling((q,), kp, km, [(s,) for s in values])
                checks.check_canonical(q, values)
            expect = checks.exhaustive_classes(q, kp, km)
            if "--first" in extra:
                ok = len(found) == min(1, len(expect)) and set(found) <= expect
            else:
                ok = len(found) == len(expect) and set(found) == expect
            if not ok:
                raise CheckError(f"search ({kp},{km}) Z_{q}: {len(found)} classes, expected {len(expect)}")
        return check

    def plot_check(self, window: int):
        q, (s1, s2) = self.PACKING["orders"][0], [s[0] for s in self.PACKING["splitters"]]

        def check(out: str) -> None:
            if not out.startswith("<?xml") or not out.rstrip().endswith("</svg>"):
                raise CheckError("plot: output is not an SVG document")
            if "#e05252" in out:
                raise CheckError("plot: a packing is drawn with overlapping cells")
            checks.check_lattice_points_2d(q, s1, s2, window, out.count("<circle"))
        return check

    def encode_check(self, entry: dict, info: list[int]):
        orders, levels = entry["orders"], entry["orders"][0]

        def check(out: str) -> None:
            word = parse_ints(out)
            if checks.syndrome(orders, entry["splitters"], word) != (0,) * len(orders):
                raise CheckError("encode: codeword has a nonzero syndrome")
            if any(not 0 <= x < levels for x in word):
                raise CheckError(f"encode: codeword leaves [0, {levels})")
            checks.check_systematic(info, word, len(orders))
        return check

    def decode_check(self, codeword: list[int], error):
        def check(out: str) -> None:
            if error is None:
                data = json.loads(out)
                got, correction = data["codeword"], data.get("coordinate")
            else:
                head = re.fullmatch(r"codeword ([\d ]+), corrected \(i=(\d+), m=([+-]\d+)\)", out.strip())
                got, correction = parse_ints(head[1]), (int(head[2]) - 1, int(head[3]))
            if got != codeword or correction != error:
                raise CheckError(f"decode: correction {correction}, injected {error}, "
                                 f"codeword {'right' if got == codeword else 'wrong'}")
        return check

    def non_packing_check(self, out: str) -> None:
        d = self.NON_PACKING
        if checks.is_packing(d["orders"], d["k_plus"], d["k_minus"], d["splitters"]):
            raise CheckError("verify: the non-packing input is a packing")
        if not out.startswith("not a packing"):
            raise CheckError(f"verify: {out[:60]!r} for a non-packing")

    def uncorrectable_word(self, rng) -> list[int]:
        """A word on the 2-D packing whose syndrome no single error explains."""
        d = self.PACKING
        q, (s1, s2) = d["orders"][0], [s[0] for s in d["splitters"]]
        claimed = checks.products(d["orders"], d["k_plus"], d["k_minus"], d["splitters"])
        free = [r for r in range(1, q) if (r,) not in claimed]
        x2 = rng.randrange(q)
        x1 = (rng.choice(free) - x2 * s2) * pow(s1, -1, q) % q
        return [x1, x2]

    def uncorrectable_check(self, word: list[int]):
        def check(out: str) -> None:
            d = self.PACKING
            syn = checks.syndrome(d["orders"], d["splitters"], word)
            if syn in checks.products(d["orders"], d["k_plus"], d["k_minus"], d["splitters"]):
                raise CheckError("decode: the uncorrectable word has a claimed syndrome")
            if out.strip() != "uncorrectable":
                raise CheckError(f"decode: {out[:60]!r} for an uncorrectable word")
        return check


WORKLOADS = {w.name: w for w in (SurveyGrid, CodecStream, CliSession)}
