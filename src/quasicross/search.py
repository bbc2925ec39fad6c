"""Exhaustive search for perfect splittings of cyclic groups, and the
full parameter survey.

The search is an exact-cover backtracking over Z_q: every chosen
splitter s must cover the block {m*s : m in M} of so-far-uncovered
nonzero residues, and the branch variable is always the smallest
uncovered residue (it has to be covered by something, so its candidate
list is complete).  Coverage is tracked in a single bitmask, which keeps
the full survey (arms up to 10, orders up to 100) in the seconds range.

Searching cyclic groups suffices for nonexistence results: any group
split by M yields a splitting of the cyclic group of the same order.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from io import StringIO
from math import gcd

from .bounds import instance_feasibility
from .splitting import (
    MultiplierSet,
    Splitting,
    make_cyclic_splitting,
    verify_packing,
)


class SearchTimeout(Exception):
    """Raised when a single search instance exceeds its time budget."""


def _cover_blocks(q: int, multipliers: MultiplierSet):
    """Per-splitter coverage bitmasks and, per residue, the candidate
    splitters whose block contains it.  Splitters whose products collide
    or hit zero are dropped up front."""
    span = len(multipliers)
    blocks: dict[int, int] = {}
    candidates: list[list[int]] = [[] for _ in range(q)]
    for s in range(1, q):
        prods = {(m * s) % q for m in multipliers}
        if 0 in prods or len(prods) != span:
            continue
        mask = 0
        for p in prods:
            mask |= 1 << p
        blocks[s] = mask
        for p in prods:
            candidates[p].append(s)
    return blocks, candidates


def _orbit_min(q: int, values: tuple[int, ...]) -> tuple[int, ...]:
    best = None
    for u in range(1, q):
        if gcd(u, q) != 1:
            continue
        cand = tuple(sorted((u * s) % q for s in values))
        if best is None or cand < best:
            best = cand
    return best


def unit_orbit_canonical(sp: Splitting) -> Splitting:
    """Canonical representative of a cyclic splitting under unit scaling:
    the lexicographically smallest sorted splitter tuple over all unit
    multiples.  Two splittings are unit-equivalent iff their canonical
    forms coincide."""
    if not sp.group.is_cyclic_form:
        raise ValueError("unit_orbit_canonical is defined for cyclic groups only")
    q = sp.group.orders[0]
    best = _orbit_min(q, sp.splitter_values())
    return make_cyclic_splitting(q, sp.multipliers.k_plus, sp.multipliers.k_minus, best)


def search_tilings(
    k_plus: int,
    k_minus: int,
    q: int,
    find_all: bool = True,
    dedupe: bool = True,
    time_limit: float | None = None,
) -> list[Splitting]:
    """All perfect splittings of Z_q with arms (k_plus, k_minus).

    With dedupe (default) one representative per unit-scaling orbit is
    returned, each the lexicographically smallest member of its orbit
    (so it contains 1 and is sorted); without it, every raw splitter set
    is returned, which exposes full orbit sizes.  find_all=False stops
    at the first solution.  Returns [] when k_plus+k_minus does not
    divide q-1 (no tiling can exist by counting).
    """
    multipliers = MultiplierSet(k_plus, k_minus)
    span = len(multipliers)
    if q < 2:
        raise ValueError("group order must be >= 2")
    if (q - 1) % span != 0:
        return []
    blocks, candidates = _cover_blocks(q, multipliers)
    full = (1 << q) - 2  # residues 1..q-1
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    solutions: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def dfs(covered: int) -> bool:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout(
                f"search ({k_plus},{k_minus}) over Z_{q} exceeded {time_limit}s"
            )
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            return not find_all
        rem = (~covered) & full
        e = (rem & -rem).bit_length() - 1
        for s in candidates[e]:
            b = blocks[s]
            if b & covered:
                continue
            chosen.append(s)
            stop = dfs(covered | b)
            chosen.pop()
            if stop:
                return True
        return False

    dfs(0)
    if dedupe:
        canonical = sorted({_orbit_min(q, sol) for sol in solutions})
    else:
        canonical = sorted(solutions)
    out = []
    for values in canonical:
        sp = make_cyclic_splitting(q, k_plus, k_minus, values)
        # one scan; a packing of Z_q tiles iff its crosses fill Z_q
        if not verify_packing(sp).ok or q != sp.shape.volume:
            raise RuntimeError(f"search returned an invalid splitting {values} over Z_{q}")
        out.append(sp)
    return out


@dataclass(frozen=True)
class SurveyRow:
    k_plus: int
    k_minus: int
    q: int
    n: int
    ruled_out: bool
    triggered: tuple[str, ...]
    searched: bool
    tilings: tuple[tuple[int, ...], ...]
    elapsed: float

    @staticmethod
    def from_json_dict(d: dict) -> "SurveyRow":
        """Inverse of `dataclasses.asdict`, once JSON has made its tuples lists."""
        d = {**d, "triggered": tuple(d["triggered"]), "tilings": tuple(map(tuple, d["tilings"]))}
        return SurveyRow(**d)


def survey_instances(k_max: int, q_max: int):
    """The (k_plus, k_minus, q) grid with 0 < k_minus < k_plus <= k_max,
    q <= q_max, restricted to instances with integer dimension n >= 2
    (n = 1 tiles trivially for every arm pair and is reported separately
    by the CLI, not searched)."""
    for k_plus in range(2, k_max + 1):
        for k_minus in range(1, k_plus):
            span = k_plus + k_minus
            for q in range(2 * span + 1, q_max + 1, span):
                yield k_plus, k_minus, q


def _run_instance(args) -> SurveyRow:
    k_plus, k_minus, q, prune, time_limit = args
    n = (q - 1) // (k_plus + k_minus)
    report = instance_feasibility(k_plus, k_minus, q)
    triggered = tuple(r.name for r in report.triggered())
    start = time.monotonic()
    if prune and report.ruled_out:
        return SurveyRow(k_plus, k_minus, q, n, True, triggered, False, (), 0.0)
    found = search_tilings(k_plus, k_minus, q, time_limit=time_limit)
    elapsed = time.monotonic() - start
    tilings = tuple(sp.splitter_values() for sp in found)
    return SurveyRow(
        k_plus, k_minus, q, n, report.ruled_out, triggered, True, tilings, elapsed
    )


def _read_log(path: str) -> dict[tuple[int, int, int], SurveyRow]:
    """The rows of a progress log by instance.  A torn last line, left by
    a kill during a write, is cut off so that appended rows stay valid
    JSON lines; any other malformed line raises ValueError."""
    try:
        with open(path, "r+b") as fh:
            data = fh.read()
            data = data[: data.rfind(b"\n") + 1]
            fh.truncate(len(data))
    except FileNotFoundError:
        return {}
    done = {}
    for number, line in enumerate(data.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = SurveyRow.from_json_dict(json.loads(line))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}, line {number}: not a survey row ({exc})") from None
        done[row.k_plus, row.k_minus, row.q] = row
    return done


def survey(
    k_max: int = 10,
    q_max: int = 100,
    jobs: int = 1,
    prune_with_bounds: bool = True,
    time_limit: float | None = None,
    progress_path: str | None = None,
) -> list[SurveyRow]:
    """Search every instance of the grid and report where tilings exist.

    With prune_with_bounds, instances the feasibility rules rule out are
    skipped (marked unsearched); disable it to search everything, which
    turns the rule set and the search into independent cross-checks of
    each other.  A progress file (JSON lines) makes interrupted runs
    resumable: each row is appended and flushed as soon as it and every
    row before it in grid order are done, and a rerun searches only the
    instances the log lacks.  Logged rows are reused as-is, so keep one
    log per mode.
    """
    grid = list(survey_instances(k_max, q_max))
    done = _read_log(progress_path) if progress_path else {}
    todo = [(*key, prune_with_bounds, time_limit) for key in grid if key not in done]
    with ExitStack() as stack:
        log = stack.enter_context(open(progress_path, "a", encoding="utf-8")) if progress_path else None
        if jobs > 1 and len(todo) > 1:
            # imported here: the process-pool machinery costs every other
            # user of the package about 2.5 MiB and 20 ms of import
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=jobs)
            # however the loop ends, queued instances are dropped, not run
            stack.callback(pool.shutdown, cancel_futures=True)
            rows = pool.map(_run_instance, todo)
        else:
            rows = map(_run_instance, todo)
        for row in rows:
            done[row.k_plus, row.k_minus, row.q] = row
            if log:
                log.write(json.dumps(asdict(row)) + "\n")
                log.flush()
    return [done[key] for key in grid]


def survey_csv(rows: list[SurveyRow]) -> str:
    """CSV with one line per instance:
    k_plus,k_minus,q,n,tilings_found,canonical_splitter_json"""
    import csv

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["k_plus", "k_minus", "q", "n", "tilings_found", "canonical_splitter_json"]
    )
    for row in rows:
        writer.writerow(
            [
                row.k_plus,
                row.k_minus,
                row.q,
                row.n,
                len(row.tilings),
                json.dumps([list(t) for t in row.tilings]),
            ]
        )
    return buf.getvalue()


def survey_summary(rows: list[SurveyRow]) -> str:
    """Human-readable digest: where tilings exist, and consistency between
    the feasibility rules and the search."""
    lines = []
    hits = [r for r in rows if r.tilings]
    total_elapsed = sum(r.elapsed for r in rows)
    lines.append(
        f"{len(rows)} instances, {sum(1 for r in rows if r.searched)} searched, "
        f"{len(hits)} with tilings, {total_elapsed:.1f}s total search time"
    )
    lines.append(
        "  n=1 omitted: every arm pair tiles Z_{k_plus+k_minus+1} trivially with S={1}"
    )
    for r in hits:
        lines.append(
            f"  ({r.k_plus},{r.k_minus}) q={r.q} n={r.n}: "
            f"{len(r.tilings)} canonical class(es), e.g. S={list(r.tilings[0])}"
        )
    conflicts = [r for r in rows if r.tilings and r.ruled_out]
    if conflicts:
        lines.append(f"  CONFLICT: {len(conflicts)} ruled-out instances have tilings")
    else:
        lines.append("  no instance is both ruled out and tiled (rules consistent)")
    return "\n".join(lines) + "\n"
