"""Benchmark of quasicross: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload survey_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

Run from the repository root; the package is imported from `src/`,
nothing is installed.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the same
object, with details, is written under `perfbench/out/`.  The exit code
is 0 when every output checked out, 1 when one did not, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 15
DEFAULT_SEED = 20110211

sys.path.insert(0, str(HERE))

from checks import CheckError  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Totals:
    """Rounds merged: (seconds, start, end) triples flattened into arrays,
    so the benchmark's own memory barely grows with the number of ops."""

    def __init__(self):
        self.ops = array("d")
        self.timed = array("d")
        self.failed = 0
        self.last = None  # the last round, for counters read after the run

    def add(self, rnd: workloads.Round) -> None:
        self.ops.extend(x for op in rnd.ops for x in op)
        self.timed.extend(x for span in rnd.timed for x in span)
        self.failed += rnd.failed
        self.last = rnd

    @property
    def completed(self) -> int:
        return len(self.ops) // 3

    @staticmethod
    def triples(values: array):
        return zip(values[0::3], values[1::3], values[2::3])


def run_rounds(workload, state, seed: int, total: Totals, seconds: float | None,
               rounds: int | None) -> int:
    """Whole rounds into `total` until `seconds` have passed (or exactly
    `rounds`), each checked as it ends; returns the number of rounds."""
    rng = random.Random(seed)
    start = time.perf_counter()
    done = 0
    while done == 0 or (
        done < rounds if rounds is not None else time.perf_counter() - start < seconds
    ):
        rnd = workload.round(state, rng)
        total.add(rnd)
        workload.check(state, rnd, first=done == 0)
        done += 1
    return done


def end_to_end(setups, total: Totals, scale, peak_mib: float) -> dict:
    """The end-to-end metrics from (seconds, start, end) records, each
    timing passed through `scale`."""
    latencies = [scale(*op) for op in Totals.triples(total.ops)]
    return {
        "setup_s": (statistics.median(scale(*s) for s in setups), "s"),
        "ops_per_s": (total.completed / sum(scale(*t) for t in Totals.triples(total.timed)), "1/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }


def measure(workload, seed: int, seconds: float, workdir: str, total: Totals):
    """Set-up SETUP_REPS times, then whole rounds for `seconds`, with the
    machine's speed sampled throughout; timings are reported at the
    reference speed, and as measured in the details."""
    with speed.SpeedSampler(workload.calibration) as sampler:
        setups = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            state = workload.setup(workdir)
            end = time.perf_counter()
            setups.append((end - start, start, end))
        rounds = run_rounds(workload, state, seed, total, seconds, None)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the analysis
    metrics = end_to_end(setups, total, sampler.scaled, peak_mib)
    raw = end_to_end(setups, total, lambda seconds, t0, t1: seconds, peak_mib)
    detail = {
        "rounds": rounds,
        "completed": total.completed,
        "as_measured": {name: value for name, (value, _) in raw.items()},
        "speed_samples": len(sampler.seconds),
        "calibration_median_s": statistics.median(sampler.seconds),
    }
    return metrics, detail


def traced(workload, seed: int, workdir: str, total: Totals):
    """One untraced pass of `trace_rounds` rounds, then set-up and the
    same rounds again under cProfile; the ratio of the two is the
    tracing overhead."""
    state = workload.setup(workdir)
    plain = Totals()
    run_rounds(workload, state, seed, plain, None, workload.trace_rounds)
    profile = cProfile.Profile()
    profile.enable()
    try:
        state = workload.setup(workdir)
        rounds = run_rounds(workload, state, seed, total, None, workload.trace_rounds)
    finally:
        profile.disable()
    prof = layers.LayerProfile(profile, str(SRC / "quasicross"))
    verify_ok = workload.verify_ok(total.last) * rounds if hasattr(workload, "verify_ok") else 0
    values, missing = layers.layer_metrics(prof, verify_ok)
    traced_s, plain_s = (sum(r.timed[0::3]) for r in (total, plain))
    values["trace.overhead"] = traced_s / plain_s
    metrics = {name: (value, layers.unit_of(name)) for name, value in values.items()}
    for name in missing:
        print(f"trace: {name} not reported, its hook is missing", file=sys.stderr)
    detail = {"rounds": rounds, "traced_s": traced_s, "untraced_s": plain_s,
              "missing_hooks": prof.missing, "missing_metrics": missing}
    return metrics, detail


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    total = Totals()
    try:
        if args.trace:
            metrics, detail = traced(workload, args.seed, str(workdir), total)
        else:
            metrics, detail = measure(workload, args.seed, args.seconds, str(workdir), total)
        correct = True
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        metrics, detail, correct = {}, {"error": str(exc)}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": total.completed + total.failed,
        "failed": total.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=sys.version.split()[0], cpus=os.cpu_count(),
                  detail=detail)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, then one table by workload."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *workloads.WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quasicross" / "__init__.py").is_file():
        print(f"error: no quasicross package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
