"""Command-line front end.

Subcommands: construct, verify, lattice, search, survey, bounds, encode,
decode, plot.  Exit codes: 0 success, 1 negative verification result
(non-packing input, uncorrectable word), 2 usage or precondition error
(a time limit or the memory exceeded included), 3 internal fault,
130 interrupted (Ctrl-C), 141 stdout closed by its reader.  Every
subcommand is deterministic given identical flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import codec as codec_mod
from . import constructions as cons
from . import lattice as lattice_mod
from . import search as search_mod
from . import splitting as split_mod

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a write to a closed pipe


def _read_splitting(path: str) -> split_mod.Splitting:
    with open(path, "r", encoding="utf-8") as fh:
        return split_mod.from_json(fh.read())


def _emit(args, text_lines: list[str], payload: dict | list) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


# the constructor of each kind and the flags it takes, in order
_CONSTRUCTIONS = {
    "cyclic": (cons.cyclic_splitting, ("p", "ell", "kplus", "kminus")),
    "field": (cons.field_splitting, ("p", "ell", "kplus", "kminus")),
    "two-one": (cons.two_one_splitting, ("ell",)),
    "mixed": (cons.mixed_splitting, ("p", "ell", "kplus", "kminus", "k")),
}


def _cmd_construct(args) -> int:
    if args.kind == "balance":
        a, b = _parse_ratio(args.beta)
        member = cons.balance_family(a, b, args.index)
        sp = member.splitting
        print(
            f"p={member.prime} k_plus={member.k_plus} k_minus={member.k_minus}",
            file=sys.stderr,
        )
    else:
        build, flags = _CONSTRUCTIONS[args.kind]
        values = [getattr(args, flag) for flag in flags]
        if None in values:
            raise ValueError(f"construct {args.kind} needs --{flags[values.index(None)]}")
        sp = build(*values)
    print(split_mod.to_json(sp))
    return EXIT_OK


def _parse_ratio(text: str | None) -> tuple[int, int]:
    if text is None:
        raise ValueError("construct balance needs --beta, a fraction like 2/3")
    try:
        a, b = text.split("/")
        return int(a), int(b)
    except ValueError as exc:
        raise ValueError(f"--beta expects a fraction like 2/3, got {text!r}") from exc


def _cmd_verify(args) -> int:
    sp = _read_splitting(args.splitting)
    check = split_mod.verify_packing(sp)
    if not check.ok:
        _emit(
            args,
            [f"not a packing: collision {check.collision.describe()}"],
            {"verdict": "not-a-packing", "collision": check.collision.describe()},
        )
        return EXIT_NEGATIVE
    lat = lattice_mod.lattice_from_splitting(sp)
    det = lattice_mod.determinant(lat)
    density = Fraction(sp.shape.volume, det)  # at most 1: the scan proved a packing
    periods = lattice_mod.period(sp)
    geo = lattice_mod.geometric_check(sp, lat)
    verdict = "tiling" if check.tiling else "packing"
    sing = split_mod.classify_singularity(sp).value
    index = sp.group.order // det
    lines = [
        f"{verdict}, density {density}, period ({', '.join(str(t) for t in periods)})",
        f"group {sp.group}, det {det}, {sing}",
    ]
    if index != 1:
        lines.append(f"splitters generate an index-{index} subgroup")
    lines.append(f"geometric check: {geo.verdict}, {geo.uncovered} uncovered coset(s)")
    payload = {
        "verdict": verdict,
        "density": str(density),
        "det": det,
        "period": list(periods),
        "singularity": sing,
        "subgroup_index": index,
        "geometric": geo.verdict,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    with open(args.splitting, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and isinstance(data.get("splitters"), list):
        lattice_mod.check_json_size(len(data["splitters"]))  # before any entry is validated or scanned
    sp = split_mod.from_json_dict(data)
    check = split_mod.verify_packing(sp)
    if not check.ok:
        raise split_mod.NotAPacking(check.collision)
    lat = lattice_mod.lattice_from_splitting(sp)
    print(lattice_mod.lattice_to_json(lat))
    return EXIT_OK


def _cmd_search(args) -> int:
    found = search_mod.search_tilings(
        args.kplus,
        args.kminus,
        args.q,
        find_all=not args.first,
        dedupe=not args.raw,
        time_limit=args.time_limit,
    )
    kind = "raw splitter set(s)" if args.raw else "canonical tiling(s)"
    lines = [f"{len(found)} {kind}", *(" ".join(map(str, sp.splitter_values())) for sp in found)]
    _emit(args, lines, [split_mod.to_json_dict(sp) for sp in found])
    return EXIT_OK


def _cmd_survey(args) -> int:
    rows = search_mod.survey(
        k_max=args.kmax,
        q_max=args.qmax,
        prune_with_bounds=not args.no_prune,
        time_limit=args.time_limit,
        progress_path=args.progress,
    )
    csv_text = search_mod.survey_csv(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    sys.stderr.write(search_mod.survey_summary(rows))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.q is not None and args.n is not None:
        raise ValueError("bounds takes --n (shape bounds) or --q (group rules), not both")
    if args.q is not None:
        report = bounds_mod.instance_feasibility(args.kplus, args.kminus, args.q)
    elif args.n is not None:
        report = bounds_mod.shape_feasibility(args.kplus, args.kminus, args.n)
    else:
        raise ValueError("bounds needs --n (shape bounds) or --q (group rules)")
    if report.ruled_out:
        reasons = "; ".join(f"{r.name} ({r.detail})" for r in report.triggered())
        lines = [f"ruled out: {reasons}"]
    else:
        lines = ["not ruled out"]
    payload = {
        "ruled_out": report.ruled_out,
        "rules": [
            {"name": r.name, "ruled_out": r.ruled_out, "detail": r.detail}
            for r in report.rules
        ],
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_encode(args) -> int:
    cs = codec_mod.make_code(_read_splitting(args.code), args.levels)
    word = codec_mod.encode(cs, args.info, args.t if args.t is not None else 0)
    print(" ".join(str(x) for x in word))
    return EXIT_OK


def _cmd_decode(args) -> int:
    cs = codec_mod.make_code(_read_splitting(args.code), args.levels)
    result = codec_mod.decode(cs, args.word)
    if result.uncorrectable:
        _emit(args, ["uncorrectable"], {"status": "uncorrectable"})
        return EXIT_NEGATIVE
    word = " ".join(str(x) for x in result.codeword)
    line, payload = f"codeword {word}, no error", {"status": "clean", "codeword": list(result.codeword)}
    if result.correction is not None:
        i, m = result.correction
        line = f"codeword {word}, corrected (i={i + 1}, m={m:+d})"
        payload.update(status="corrected", coordinate=i + 1, magnitude=m)
    _emit(args, [line], payload)
    return EXIT_OK


def _cmd_plot(args) -> int:
    if args.splitting and args.lattice:
        raise ValueError("plot takes --splitting or --lattice, not both")
    if args.splitting:
        if (args.kplus, args.kminus) != (None, None):
            raise ValueError("plot --splitting takes its arms from the file, not --kplus/--kminus")
        sp = _read_splitting(args.splitting)
        lat = lattice_mod.lattice_from_splitting(sp)
        shape = sp.shape
    else:
        if None in (args.lattice, args.kplus, args.kminus):
            raise ValueError("plot needs --splitting, or --lattice with --kplus/--kminus")
        with open(args.lattice, "r", encoding="utf-8") as fh:
            lat = lattice_mod.lattice_from_json(fh.read())
        shape = split_mod.QuasiCrossShape(args.kplus, args.kminus, lat.n)
    svg = lattice_mod.render_2d(lat, shape, args.window)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


@functools.cache  # built on the first call; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasicross",
        description="Construct, verify, search, and use perfect quasi-cross "
        "lattice tilings as single-error codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="emit a splitting as JSON")
    p_con.add_argument("kind", choices=[*_CONSTRUCTIONS, "balance"])
    p_con.add_argument("--p", type=int, help="prime base")
    p_con.add_argument("--ell", type=int, default=1, help="power / degree")
    p_con.add_argument("--kplus", type=int, help="positive arm length")
    p_con.add_argument("--kminus", type=int, help="negative arm length")
    p_con.add_argument("--k", type=int, default=1, help="matrix-extension copies")
    p_con.add_argument("--beta", help="arm ratio a/b for the balance family")
    p_con.add_argument("--index", type=int, default=1, help="1-based family index")
    p_con.set_defaults(func=_cmd_construct)

    p_ver = sub.add_parser("verify", help="verify a splitting JSON file")
    p_ver.add_argument("splitting", help="path to splitting JSON")
    p_ver.add_argument("--format", choices=["text", "json"], default="text")
    p_ver.set_defaults(func=_cmd_verify)

    p_lat = sub.add_parser("lattice", help="emit the kernel lattice of a splitting")
    p_lat.add_argument("splitting", help="path to splitting JSON")
    p_lat.set_defaults(func=_cmd_lattice)

    p_sea = sub.add_parser("search", help="exhaustive tiling search over Z_q")
    p_sea.add_argument("--kplus", type=int, required=True)
    p_sea.add_argument("--kminus", type=int, required=True)
    p_sea.add_argument("--q", type=int, required=True)
    p_sea.add_argument("--first", action="store_true", help="stop at the first tiling")
    p_sea.add_argument("--raw", action="store_true", help="list every splitter set (no orbit dedup)")
    p_sea.add_argument("--time-limit", type=float, default=None)
    p_sea.add_argument("--format", choices=["text", "json"], default="text")
    p_sea.set_defaults(func=_cmd_search)

    p_sur = sub.add_parser("survey", help="search the whole (k_plus,k_minus,q) grid")
    p_sur.add_argument("--kmax", type=int, default=10)
    p_sur.add_argument("--qmax", type=int, default=100)
    p_sur.add_argument("--csv", help="write the CSV here instead of stdout")
    p_sur.add_argument("--progress", help="JSONL progress log (resumable)")
    p_sur.add_argument("--no-prune", action="store_true", help="search ruled-out instances too")
    p_sur.add_argument("--time-limit", type=float, default=None, help="per-instance seconds")
    p_sur.set_defaults(func=_cmd_survey)

    p_bnd = sub.add_parser("bounds", help="evaluate feasibility rules")
    p_bnd.add_argument("--kplus", type=int, required=True)
    p_bnd.add_argument("--kminus", type=int, required=True)
    p_bnd.add_argument("--n", type=int, help="dimension (shape bounds)")
    p_bnd.add_argument("--q", type=int, help="group order (group rules + shape bounds)")
    p_bnd.add_argument("--format", choices=["text", "json"], default="text")
    p_bnd.set_defaults(func=_cmd_bounds)

    p_enc = sub.add_parser("encode", help="systematic encode")
    p_enc.add_argument("--code", required=True, help="splitting JSON path")
    p_enc.add_argument("--levels", type=int, required=True)
    p_enc.add_argument("--info", type=int, nargs="*", default=[], help="free-coordinate digits")
    p_enc.add_argument("--t", type=int, nargs="*", default=None, help="pivot quotient digits")
    p_enc.set_defaults(func=_cmd_encode)

    p_dec = sub.add_parser("decode", help="syndrome decode")
    p_dec.add_argument("--code", required=True, help="splitting JSON path")
    p_dec.add_argument("--levels", type=int, required=True)
    p_dec.add_argument("--word", type=int, nargs="+", required=True)
    p_dec.add_argument("--format", choices=["text", "json"], default="text")
    p_dec.set_defaults(func=_cmd_decode)

    p_plt = sub.add_parser("plot", help="render a 2-D packing as SVG")
    p_plt.add_argument("--splitting", help="splitting JSON path")
    p_plt.add_argument("--lattice", help="lattice JSON path (needs --kplus/--kminus)")
    p_plt.add_argument("--kplus", type=int)
    p_plt.add_argument("--kminus", type=int)
    p_plt.add_argument("--window", type=int, default=12)
    p_plt.add_argument("--out", help="output SVG path (default stdout)")
    p_plt.set_defaults(func=_cmd_plot)

    parser.commands = sub.choices  # name -> its subparser, for `main`
    return parser


def _interrupt(signum, frame):
    # the first Ctrl-C unwinds; later ones are ignored, as `timeout -s INT`
    # signals the child and then its group, and a second KeyboardInterrupt
    # could land during the unwind and escape `main` as a traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no command, -h or an unknown one: the top level reports it
        args = parser.parse_args(argv)
    else:  # the top level would hand argv[1:] to this parser, after a pass of its own
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    previous = signal.signal(signal.SIGINT, _interrupt)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except split_mod.NotAPacking as exc:
        print(exc, file=sys.stderr)
        return EXIT_NEGATIVE
    except BrokenPipeError:  # the reader is gone: write nothing more, not even at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (ValueError, OverflowError, OSError, search_mod.SearchTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGINT, previous)


if __name__ == "__main__":
    sys.exit(main())
