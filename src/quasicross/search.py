"""Exhaustive search for perfect splittings of cyclic groups, and the
full parameter survey.

The search is an exact-cover backtracking over Z_q: every chosen
splitter s must cover the block {m*s : m in M} of so-far-uncovered
nonzero residues.  The covered residues and the still-live splitters
(blocks disjoint from the covered set) are each one bitmask.

* The gcd classes (Hickerson, "Splittings of finite groups", 1983).
  Let u be the part of q made of its primes above k_plus, and
  C_d = {r in [1, q) : gcd(r, u) = d} for d | u.  No multiplier has a
  prime above k_plus, so each is a unit mod u and gcd(m*s, u) =
  gcd(s, u): every block lies in one class.  So the tilings of Z_q are
  exactly the unions of one cover of each class, and each class is
  searched on its own.  By CRT, r <-> (r mod q/u, r mod u), so |C_d| =
  (q/u) * phi(u/d), less 1 for d = u (zero is excluded).  A tiling needs
  k_plus + k_minus to divide every |C_d|, a test made before any O(q)
  set-up; with u = q it is k_plus + k_minus | p - 1 for each prime p | q.
* 1 is fixed in S.  The splitter whose block covers 1 is a unit s, and
  s^-1 * S is a tiling that contains 1, so every unit-scaling orbit has
  members holding 1 and the search enumerates only those.  The rest of
  an orbit is rebuilt by scaling, never searched for.
* The branch variable is the uncovered residue with the fewest live
  candidates (blocks still disjoint from the covered set): Knuth's
  most-constrained-first rule from "Dancing Links".  A residue with no
  live candidate ends the branch at once, and since every residue must
  be covered, branching on any one of them loses no solution.

Unproven: that any group split by M yields a splitting of the cyclic
group of the same order, which would make searching cyclic groups
enough for nonexistence results in every abelian group.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from functools import cache, reduce
from io import StringIO
from itertools import chain, product
from math import gcd
from operator import or_

from .bounds import instance_feasibility
from .groups import cyclic_group, prime_factors
from .splitting import (
    MultiplierSet,
    Splitting,
    json_int_list,
    make_cyclic_splitting,
    verify_packing,
)


class SearchTimeout(Exception):
    """Raised when a single search instance exceeds its time budget."""


def _cover_blocks(q: int, multipliers: MultiplierSet, check_clock):
    """Per-splitter coverage bitmasks over the residues and, per residue,
    the bitmask of the splitters whose block contains it.  Splitters whose
    products collide or hit zero are dropped up front.  The masks take
    O(q^2) bits, so the deadline is checked once per splitter."""
    span = len(multipliers)
    blocks: dict[int, int] = {}
    holders = [0] * q
    for s in range(1, q):
        check_clock()
        prods = {(m * s) % q for m in multipliers}
        if 0 in prods or len(prods) != span:
            continue
        mask, bit = 0, 1 << s
        for p in prods:
            mask |= 1 << p
            holders[p] |= bit
        blocks[s] = mask
    return blocks, holders


def _scaled(q: int, u: int, values) -> tuple[int, ...]:
    return tuple(sorted(u * s % q for s in values))


def _orbit_min(q: int, values: tuple[int, ...]) -> tuple[int, ...]:
    return min(_scaled(q, u, values) for u in range(1, q) if gcd(u, q) == 1)


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


def _class_sizes(q: int, k_plus: int) -> tuple[int, dict[int, int]]:
    """The part u of q made of its primes above k_plus, and |C_d| for each
    d | u in closed form (see the module docstring)."""
    u, phi = 1, {1: 1}  # each divisor e of u -> phi(e)
    for p in prime_factors(q):
        if p > k_plus:
            powers, pi = dict(phi), 1
            while q % (u * pi * p) == 0:
                pi *= p
                powers.update({e * pi: f * (pi - pi // p) for e, f in phi.items()})
            u, phi = u * pi, powers
    return u, {u // e: q // u * f - (e == 1) for e, f in phi.items()}


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
    divide the size of every gcd class (no tiling can exist by counting;
    see the module docstring).
    """
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    multipliers = MultiplierSet(k_plus, k_minus)
    span = len(multipliers)
    q = cyclic_group(q).order  # an integer >= 2, or ValueError

    def check_clock() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout(f"search ({k_plus},{k_minus}) over Z_{q} exceeded {time_limit}s")

    u, sizes = _class_sizes(q, multipliers.k_plus)
    check_clock()
    if any(size % span for size in sizes.values()):
        return []
    blocks, holders = _cover_blocks(q, multipliers, check_clock)
    residues = {d: 0 for d, size in sizes.items() if size}  # d -> C_d as a bitmask
    for r in range(1, q):
        residues[gcd(r, u)] |= 1 << r
    full = (1 << q) - 2  # residues 1..q-1
    # 1 is fixed in S (see the module docstring).  It has a block: span
    # divides the class sizes, which sum to q-1, so q > span and the
    # multipliers are distinct nonzero residues.
    chosen: list[int] = []
    covers: list[list[tuple[int, ...]]] = []  # per class, its covers

    @cache
    def clashes(s: int) -> int:
        # the splitters whose blocks meet the block of s, s included; built
        # on first use, as the median grid instance chooses 3% of its splitters
        return reduce(or_, (holders[m * s % q] for m in multipliers))

    def dfs(covered: int, live: int) -> bool:
        # live: the splitters whose blocks are disjoint from covered
        check_clock()
        if covered == full:
            covers[-1].append(tuple(chosen))
            return not find_all
        # branch on the uncovered residue with the fewest live candidates
        rem = (~covered) & full
        fewest = q
        while rem:
            low = rem & -rem
            options = holders[low.bit_length() - 1] & live
            count = options.bit_count()
            if count < fewest:
                fewest, best = count, options
                if count < 2:
                    break
            rem ^= low
        while best:
            low = best & -best
            s = low.bit_length() - 1
            chosen.append(s)
            stop = dfs(covered | blocks[s], live & ~clashes(s))
            chosen.pop()
            if stop:
                return True
            best ^= low
        return False

    live = ((1 << q) - 1) & ~clashes(1)
    for d in sorted(residues):  # C_1 first; the other classes start out covered
        covers.append([])
        dfs(full & ~residues[d] | blocks[1], live)
        if not covers[-1]:
            return []
    solutions = [tuple(sorted((1, *chain(*parts)))) for parts in product(*covers)]
    if dedupe:
        # the members of an orbit that hold 1 are s^-1 * S for the units s
        # of S; the search finds all of them, so canonicalise only the first
        seen: set[tuple[int, ...]] = set()
        classes = []
        for sol in solutions:
            if sol not in seen:
                classes.append(_orbit_min(q, sol))
                seen.update(_scaled(q, pow(s, -1, q), sol) for s in sol if gcd(s, q) == 1)
        canonical = sorted(classes)
    elif find_all:
        units = [u for u in range(1, q) if gcd(u, q) == 1]
        canonical = sorted({_scaled(q, u, sol) for sol in solutions for u in units})
    else:
        canonical = solutions
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
        """Inverse of `dataclasses.asdict`, once JSON has made its tuples
        lists; a non-integer key, n or tiling entry raises ValueError."""
        json_int_list([d["k_plus"], d["k_minus"], d["q"], d["n"]], "k_plus, k_minus, q and n")
        tilings = tuple(json_int_list(t, "each tiling") for t in d["tilings"])
        return SurveyRow(**{**d, "triggered": tuple(d["triggered"]), "tilings": tilings})


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
            from signal import SIG_IGN, SIGINT, signal

            # Ctrl-C signals the whole process group; only this process unwinds
            pool = ProcessPoolExecutor(jobs, initializer=signal, initargs=(SIGINT, SIG_IGN))
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
