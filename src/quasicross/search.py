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
  span = k_plus + k_minus to divide every |C_d|, a test made before any
  O(q) set-up: span | q/u - 1 and, as phi(p) divides phi(e) for each prime
  p | e, span | (q/u) * (p - 1) for each prime p | u.
  The class masks come in closed form.  For e | q the multiples of e in
  [0, q) are the bitmask sum_j 2^(j*e) = (2^q - 1)/(2^e - 1).  For d | u,
  r is a multiple of d iff d | gcd(r, u), that is iff gcd(r, u) = e for
  exactly one e with d | e | u.  So C_d is the mask of d less the
  disjoint C_e of the proper multiples e of d dividing u, made largest
  d first; C_u also drops 0, which is in the mask of u as gcd(0, u) = u.
* The layer rule, a layered form of the same argument.  For a nonempty
  set P of the primes p | q with p <= k_plus, M_P is the multipliers no
  prime in P divides, and U_P = {x : no p in P divides x} misses 0.  For
  a prime p | q, p | m*s mod q iff p | m or p | s, so a block M*s meets
  U_P in M_P*s if s is in U_P and misses it otherwise: in a tiling the
  M_P*s cover U_P exactly once.  Each lies in one class {x in U_P :
  gcd(x, u) = d}, as above, of size L_P * phi(u/d) by CRT, where L_P =
  prod_{p in P} phi(p^a) * prod_{p not in P} p^a over the primes
  p <= k_plus of q, p^a the full power of p in q.  So the rule is
  |M_P| | L_P, and |M_P| is the sum over T in P, t = prod T, of
  (-1)^|T| (k_plus//t + k_minus//t): 3^r terms over every P.  The rule
  runs after the cover-mask budget test, so every order past it is
  refused alike, and there q <= 28,284 has r <= 5 primes.
* The cyclotomic rule, for q whose primes all exceed k_plus: T1 of
  Coven and Meyerowitz ("Tiling the integers with translates of one
  finite set", 1999).  For p | q the splitters of order p split the
  order-p subgroup (necessity, below): M*S = Z_p^*, and logs to a
  generator g make it A + B = Z_N, N = p - 1, A = log M.  So A(x)B(x) =
  1 + ... + x^(N-1) mod x^N - 1, and each Phi_s, 1 < s | N, divides A(x)
  or B(x).  At 1, Phi_s(1) = r for s = r^k, else 1, N = prod r over the
  s = r^k | N, and the quotients are positive, so |A| = prod r over the
  s = r^k with Phi_s | A(x), that is, with the counts of A mod r^k equal
  on each class mod r^(k-1).  m^(N/s) mod p fixes log m mod s, and its
  r-th power log m mod r^(k-1): s is balanced when the r values on each
  fibre of x -> x^r occur equally often.  That fibre through x is the
  coset x*<zeta>, zeta of order r: s is balanced iff the multiset of the
  m^(N/s) is invariant under times zeta.  For N = t*r^K, r not dividing
  t, they are the m^t at s = r^K, raised to the r-th power a level down.
  It runs after the layer rule.
* 1 is fixed in S.  The splitter whose block covers 1 is a unit s, and
  s^-1 * S is a tiling that contains 1, so every unit-scaling orbit has
  members holding 1 and the search enumerates only those.  The rest of
  an orbit is rebuilt by scaling, never searched for.
* The raw tilings are the m^-1 * S, each once, for S holding 1 and m in
  U_M, the multipliers prime to q.  Onto: a raw tiling T covers 1 once,
  as m*t with m and t units, and m*T is a tiling holding 1.  One-to-one:
  m^-1 * S holds m^-1, whose block covers 1 as m*m^-1, so T fixes m.
* The branch variable is the uncovered residue with the fewest live
  candidates (blocks still disjoint from the covered set): Knuth's
  most-constrained-first rule from "Dancing Links".  A residue with no
  live candidate ends the branch at once, and since every residue must
  be covered, branching on any one of them loses no solution.
* Each covered set is searched once.  In the search of C_d the live
  splitters of C_d are those whose blocks miss the covered set (each
  choice, block(1) first, drops the ones meeting its block), and only
  they hold residues of C_d: the covers below a covered set depend on
  that set alone.  In (2,1), 4 | q, {x, -x+q/2} and {-x, x+q/2} cover
  the same six residues.  So the DFS keeps a memo, covered set -> its
  live branches (s, child covered set) in branch order, () for a set
  with no cover below it.  The covers below a set number the sum of
  those below its branches' children (1 at the full set), each counted
  once as the branches differ in the splitter covering the branch
  residue; their product over the classes counts the tilings that hold
  1 before any is listed (Nishino, Yasuda, Minato and Nagata, "Dancing
  with decision diagrams", AAAI 2017).  Listing walks live branches
  only, each with a cover below it, so it meets no dead end and costs
  the size of its output.

The set-up before the search rests on three facts.  Write M for the
multipliers, the nonzero integers in [-k_minus, k_plus], span =
k_plus + k_minus = |M|, and ord(s) = q/gcd(s, q) for the order of s.

* The valid splitters.  The products m*s (m in M) are distinct and
  nonzero iff ord(s) > span.  m*s = m'*s iff ord(s) | m - m', and m*s = 0
  iff ord(s) | m, so the products fail exactly when ord(s) divides a
  nonzero value of M or of M - M.  Up to sign these values are exactly
  {1, ..., span}: M holds 1..k_plus, k_plus - m for m in [-k_minus, -1]
  gives k_plus+1..span, and none exceeds span.  ord(s) divides one of
  1..span iff ord(s) <= span.
* The holders from positive multiples.  (-m)*s = p iff m*s = -p.  With
  P_j(p) the valid s having m*s = p for some m in [1, j], the splitters
  whose block holds p are P_k_plus(p) | P_k_minus(-p), and since
  k_minus < k_plus, P_k_minus is P_k_plus part-way built.
* The orbit minimum from the unit splitters.  A unit scaling permutes
  Z_q and fixes 0, so the sorted members of an orbit hold the same
  number of zeros, and after them a tuple holding 1 is smaller than one
  without.  u*s = 1 only for a unit s and u = s^-1.  So for S holding
  1, the members holding 1 are exactly u*S for u = s^-1 with s a unit
  of S, and the smallest member is among them.

Nonsingular q, every prime of q above k_plus: M splits Z_q exactly when
it splits Z_p for each prime p | q.  Necessity: a unit m keeps the order
of an element, so the splitters of order p split the order-p subgroup,
a copy of Z_p.  Sufficiency: `constructions._lift` of each Z_p splitting
to its prime power, then `constructions._product` of those, mapped to
Z_q by CRT.  Open: the singular case, and whether a group split by M
yields a splitting of the cyclic group of the same order, which would
make searching cyclic groups enough for nonexistence results in every
abelian group.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import reduce
from io import StringIO
from itertools import combinations
from math import gcd, inf, isqrt, prod
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


COVER_MASKS_MAX_BYTES = 100_000_000  # q up to 28,284
TRIAL_LIMIT = isqrt(8 * COVER_MASKS_MAX_BYTES) + 1  # 28,285, the smallest order past the budget
FIND_ALL_MAX_TILINGS = 1_000_000  # tilings a find-all lists (those that hold 1 when deduped)


class SearchTimeout(Exception):
    """Raised when a single search instance exceeds its time budget."""


def _check_time_limit(time_limit: float | None) -> None:
    # a negative limit has passed before the first search starts, and a nan
    # one never passes, since every comparison with nan is false
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be a number of seconds, got {time_limit}")


def _cover_blocks(q: int, multipliers: MultiplierSet, check_clock) -> list[int]:
    """Per residue p, the bitmask of the valid splitters whose block holds
    p, built from the positive multiples alone (both facts in the module
    docstring).  The masks take about q^2/8 bytes, which `search_tilings`
    checks against COVER_MASKS_MAX_BYTES first; the deadline is checked
    once per multiplier pass."""
    span = multipliers.k_plus + multipliers.k_minus
    valid = [s for s in range(1, q) if gcd(s, q) * span < q]  # ord(s) > span
    holders = [0] * q
    for m in range(1, multipliers.k_plus + 1):
        check_clock()
        for s in valid:
            holders[m * s % q] |= 1 << s
        if m == multipliers.k_minus:
            negatives = holders.copy()
    for p in range(q):
        holders[p] |= negatives[-p]  # negatives[-p] is the residue -p mod q
    return holders


def _scaled(q: int, u: int, values) -> tuple[int, ...]:
    return tuple(sorted(u * s % q for s in values))


def _orbit_min(q: int, sets, check_clock) -> list[tuple[int, ...]]:
    """Each unit-scaling orbit's minimum among the sorted tuples `sets`,
    which all hold 1, once, in first-met order.  The members of the orbit
    of S that hold 1 are u*S for the inverses u of the units of S (module
    docstring); they are struck from the sets still left, so no member
    outlives its orbit.  The deadline is checked once per orbit."""
    left, minima = set(sets), []
    for values in sets:
        if values in left:
            check_clock()
            members = {_scaled(q, pow(s, -1, q), values) for s in values if gcd(s, q) == 1}
            left -= members
            minima.append(min(members))
    return minima


def _size_test(q: int, u: int, powers: dict[int, int], multipliers: MultiplierSet) -> bool:
    """Whether span divides every |C_d| (module docstring), from `powers`,
    q's factorisation by `prime_factors(q, TRIAL_LIMIT)`: with B =
    TRIAL_LIMIT, q < B^2 is factored exactly, and a cofactor c > 1 left,
    with no prime <= B, is taken as one prime.  For k_plus < B its primes
    lie in u, and a failed test is sound: it asks span | q/u - 1 and
    m | p - 1 for each prime p | u, m = span/gcd(span, q/u), and if each
    prime of c is 1 mod m, so is c.  Else the budget refuses q >= c > B; a
    c > B^2 with k_plus >= B, whose primes may be arms, passes."""
    if multipliers.k_plus >= TRIAL_LIMIT and max(powers) > TRIAL_LIMIT**2:
        return True
    span = multipliers.k_plus + multipliers.k_minus
    return (q // u - 1) % span == 0 and all(q // u * (p - 1) % span == 0 for p in powers if u % p == 0)


def _layer_witness(powers: dict[int, int], multipliers: MultiplierSet) -> tuple[tuple[int, ...], int, int] | None:
    """The first (P, L_P, |M_P|) whose layer rule fails, |M_P| not dividing
    L_P, over the nonempty sets P of the primes p <= k_plus of q's `powers`
    p -> p^a, smaller sets first, or None (module docstring)."""
    k_plus, k_minus = multipliers.k_plus, multipliers.k_minus
    small = {p: a for p, a in powers.items() if p <= k_plus}
    for size in range(1, len(small) + 1):
        for P in combinations(small, size):
            kept = sum((-1) ** len(T) * (k_plus // prod(T) + k_minus // prod(T))
                       for r in range(size + 1) for T in combinations(P, r))
            layer = prod(a - a // p if p in P else a for p, a in small.items())
            if layer % kept:
                return P, layer, kept
    return None


def _cyclotomic_witness(powers: dict[int, int], multipliers: MultiplierSet) -> tuple[int, int] | None:
    """For q, of `powers` p -> p^a, whose primes all exceed k_plus, the
    first prime p | q whose product of r over the balanced s = r^k | p - 1
    is not |M|, as (p, that product), or None; None for any other q."""
    span = multipliers.k_plus + multipliers.k_minus
    if min(powers) <= multipliers.k_plus:
        return None
    for p in powers:
        balanced = 1
        for r in prime_factors(gcd(p - 1, span)):  # a balanced r^k has r | |M|
            t, levels = p - 1, 0
            while t % r == 0:
                t, levels = t // r, levels + 1
            zeta = next(z for z in (pow(h, (p - 1) // r, p) for h in range(2, p)) if z != 1)
            values = sorted([pow(m, t, p) for m in multipliers])  # the m^((p-1)/s) at s = r^levels
            for level in range(levels, 0, -1):
                if values == sorted([zeta * x % p for x in values]):
                    balanced *= r
                if level > 1:
                    values = sorted([pow(x, r, p) for x in values])
        if balanced != span:
            return p, balanced
    return None


def _class_masks(q: int, u: int) -> dict[int, int]:
    """C_d as a bitmask for each d | u, by inclusion-exclusion over the
    masks of multiples (module docstring)."""
    masks: dict[int, int] = {}
    for d in [e for e in range(u, 0, -1) if u % e == 0]:  # each multiple of d before d
        masks[d] = ((1 << q) - 1) // ((1 << d) - 1) - sum(m for e, m in masks.items() if e % d == 0)
    masks[u] -= 1  # 0, which gcd(0, u) = u puts in C_u
    return masks


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
    (so it contains 1 and is sorted); without it, every raw splitter set,
    as m^-1 * S (module docstring), sorted.  find_all=False stops
    at the first solution.  Returns [] when k_plus+k_minus does not
    divide the size of every gcd class (no tiling can exist by counting;
    see the module docstring), the layer rule fails for some P, or the
    cyclotomic rule for some prime of a q whose primes all exceed k_plus.
    An order whose cover masks pass COVER_MASKS_MAX_BYTES is refused with
    ValueError before either rule, and a find-all refuses, from their
    exact count, more than FIND_ALL_MAX_TILINGS tilings to list: those
    that hold 1, or without dedupe every raw tiling.
    """
    _check_time_limit(time_limit)
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    multipliers = MultiplierSet(k_plus, k_minus)
    q = cyclic_group(q).order  # an integer >= 2, or ValueError

    def check_clock() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchTimeout(f"search ({k_plus},{k_minus}) over Z_{q} exceeded {time_limit}s")

    powers = prime_factors(q, TRIAL_LIMIT)  # p -> p^a: q's one factorisation
    u = prod(a for p, a in powers.items() if p > multipliers.k_plus)  # u: q's primes above k_plus
    check_clock()
    if not _size_test(q, u, powers, multipliers):
        return []
    if q * q // 8 > COVER_MASKS_MAX_BYTES:  # named, not printed: past 2,150 digits of q, str() refuses it
        raise ValueError(f"search over Z_{q} needs about q^2/8 bytes of cover masks, "
                         f"more than the budget of {COVER_MASKS_MAX_BYTES}")
    if _layer_witness(powers, multipliers) or _cyclotomic_witness(powers, multipliers):
        return []
    holders = _cover_blocks(q, multipliers, check_clock)
    full = (1 << q) - 2  # residues 1..q-1
    placed: dict[int, tuple[int, int]] = {}
    memo: dict[int, tuple[tuple[int, int], ...]] = {}  # covered -> its live branches (s, child)

    def place(s: int) -> tuple[int, int]:
        # the block of s, and the complement of the splitters whose blocks
        # meet it (s included), so that `live & spared` drops them; built on
        # first use, as the median grid instance branches on 3% of its splitters
        prods = [m * s % q for m in multipliers]
        placed[s] = sum(1 << p for p in prods), ~reduce(or_, (holders[p] for p in prods))
        return placed[s]

    def dfs(covered: int, live: int) -> bool:
        # live: the splitters whose blocks are disjoint from covered
        check_clock()
        if covered == full:
            return True
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
        branches = []
        while best:
            low = best & -best
            s = low.bit_length() - 1
            block, spared = placed[s] if s in placed else place(s)
            child = covered | block
            if memo[child] if child in memo else dfs(child, live & spared):
                branches.append((s, child))
                if not find_all:
                    break
            best ^= low
        memo[covered] = tuple(branches)
        return bool(branches)

    # 1 is fixed in S (see the module docstring).  It is valid: span
    # divides the class sizes, which sum to q-1, so ord(1) = q > span.
    block, spared = place(1)
    masks = _class_masks(q, u)
    roots = [full & ~masks[d] | block for d in sorted(masks) if masks[d]]  # C_1 first
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + q)  # dfs nests one frame per splitter, fewer than q
    try:
        found = all(dfs(root, ((1 << q) - 1) & spared) for root in roots)
    finally:
        sys.setrecursionlimit(limit)
        del dfs  # it refers to itself, which would keep the memo until the cyclic GC runs
    if not found:
        return []
    # a raw find-all lists m^-1 * S for m in U_M (module docstring); any other search, 1 * S
    inverses = [pow(m, -1, q) for m in multipliers if gcd(m, q) == 1] if find_all and not dedupe else [1]
    if find_all:
        paths = {full: 1}  # covered -> the covers below it; a child enters the memo first
        for covered, branches in memo.items():
            paths[covered] = sum(paths[child] for _, child in branches)
        raw = prod(paths[root] for root in roots) * len(inverses)
        if raw > FIND_ALL_MAX_TILINGS:
            held = "tilings that hold 1" if dedupe else "raw tilings"
            raise ValueError(f"search ({k_plus},{k_minus}) over Z_{q} has {raw} {held}, "
                             f"more than the {FIND_ALL_MAX_TILINGS} a find-all lists")
    # one walk of the live branches, class after class, in the DFS's leaf order
    solutions, chosen, stack = [], [], [(0, 1, full, 0)]  # depth, splitter, covered, classes entered
    while stack:
        depth, s, covered, entered = stack.pop()
        chosen[depth:] = [s]
        while covered == full and entered < len(roots):
            covered, entered = roots[entered], entered + 1
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
        else:
            stack.extend((depth + 1, s, child, entered) for s, child in reversed(memo[covered]))
    if dedupe:
        canonical = sorted(_orbit_min(q, solutions, check_clock))
    else:  # distinct by the bijection; check_clock, None unless late, runs once per S
        canonical = sorted(_scaled(q, m, values)
                           for values in solutions if not check_clock() for m in inverses)
    out = []
    for values in canonical:
        sp = make_cyclic_splitting(q, k_plus, k_minus, values)
        if not verify_packing(sp).tiling:
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
        lists; a field of the wrong type raises ValueError."""
        json_int_list([d["k_plus"], d["k_minus"], d["q"], d["n"]], "k_plus, k_minus, q and n")
        if type(d["ruled_out"]) is not bool or type(d["searched"]) is not bool:
            raise ValueError("ruled_out and searched must be booleans")
        if type(d["elapsed"]) not in (int, float) or not 0 <= d["elapsed"] < inf:
            raise ValueError("elapsed must be a finite number of seconds >= 0")
        if not isinstance(d["triggered"], list) or any(type(t) is not str for t in d["triggered"]):
            raise ValueError("triggered must be a list of rule names")
        tilings = tuple(json_int_list(t, "each tiling") for t in d["tilings"])
        return SurveyRow(**{**d, "triggered": tuple(d["triggered"]), "tilings": tilings})


def survey_instances(k_max: int, q_max: int):
    """The (k_plus, k_minus, q) grid with 0 < k_minus < k_plus <= k_max,
    q <= q_max, restricted to instances with integer dimension n >= 2
    (n = 1 tiles trivially for every arm pair and is reported separately
    by the CLI, not searched).  n >= 2 needs q >= 2*span + 1, so no arm
    pair with span above (q_max - 1)/2 is walked."""
    top = (q_max - 1) // 2
    for k_plus in range(2, min(k_max, top - 1) + 1):
        for k_minus in range(1, min(k_plus, top - k_plus + 1)):
            span = k_plus + k_minus
            for q in range(2 * span + 1, q_max + 1, span):
                yield k_plus, k_minus, q


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
    resumable: the instances run one at a time in grid order, each row is
    appended and flushed as soon as its instance is done, and a rerun
    searches only the instances the log lacks, and with pruning off also
    those it logged unsearched.  `jobs` takes only 1.
    """
    if jobs != 1:
        raise ValueError(f"the survey runs in one process: jobs must be 1, got {jobs}")
    _check_time_limit(time_limit)
    if next(survey_instances(k_max, q_max), None) is None:  # never listed: the grid may be huge
        raise ValueError(f"no instance with n >= 2 has k_plus <= {k_max} and q <= {q_max}")
    done = _read_log(progress_path) if progress_path else {}
    rows = []
    with open(progress_path, "a", encoding="utf-8") if progress_path else nullcontext() as log:
        for key in survey_instances(k_max, q_max):
            row = done.get(key)
            # an unsearched row, left by a pruned run, is redone by an unpruned one
            if row is None or not (row.searched or prune_with_bounds):
                report = instance_feasibility(*key)
                triggered = tuple(r.name for r in report.triggered())
                if prune_with_bounds and report.ruled_out:
                    row = SurveyRow(*key, report.n, True, triggered, False, (), 0.0)
                else:
                    start = time.monotonic()
                    found = search_tilings(*key, time_limit=time_limit)
                    elapsed = time.monotonic() - start
                    tilings = tuple(sp.splitter_values() for sp in found)
                    row = SurveyRow(*key, report.n, report.ruled_out, triggered, True, tilings, elapsed)
                if log:
                    log.write(json.dumps(asdict(row)) + "\n")
                    log.flush()
            rows.append(row)
    return rows


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
