"""Exact integer linear algebra: extended gcd, left kernels, Hermite normal
form, and fraction-free determinants.

Everything here works on plain Python ints (arbitrary precision), with
dense matrices as lists of row lists.  The HNF convention used throughout
is the lower-triangular one: row i has its pivot on the diagonal, zeros to
the right of it, and the entries below a pivot are reduced into [0, pivot).
A sparse row is the tuple of its nonzero (column, value) pairs in
ascending column order, so the pivot of a sparse HNF row is its last pair.

The HNF of any full-rank basis is computed modulo its determinant, which
Bareiss elimination gives, so no entry outgrows it (Domich, Kannan &
Trotter, Math. Oper. Res. 1987; Cohen, A Course in Computational
Algebraic Number Theory, Alg. 2.4.8); its diagonal multiplies back to
that determinant.

The pivot-1 fact: in a lower HNF every entry in the column of a pivot of
1 is 0, as it must lie in [0, 1).  A kernel lattice of G has at most
log2|G| pivots above 1, as they multiply to at most |G|; so every other
row is e_i plus entries in those few columns, which `kernel_hnf` and
`reduce_mod_lattice` treat as whole-list passes, one per such column.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from math import gcd

Matrix = list[list[int]]
SparseRow = tuple[tuple[int, int], ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b = g."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def left_kernel(mat: Matrix) -> Matrix:
    """Basis rows of {z : z * mat = 0} for an integer matrix.

    Row-reduces `mat` while accumulating the unimodular transform; the
    transform rows facing a zero row of the echelon form span the kernel.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    m = [list(row) for row in mat]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        u[rank], u[piv] = u[piv], u[rank]
        for i in range(rank + 1, nrows):
            while m[i][col]:
                a, b = m[rank][col], m[i][col]
                if abs(b) >= abs(a):
                    q = b // a
                    m[i] = [x - q * y for x, y in zip(m[i], m[rank])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[rank])]
                else:
                    m[rank], m[i] = m[i], m[rank]
                    u[rank], u[i] = u[i], u[rank]
        rank += 1
    return [u[i] for i in range(rank, nrows)]


def hnf_lower(rows: Matrix) -> Matrix:
    """Lower-triangular Hermite normal form of a full-rank square matrix.

    The result H spans the same row lattice, has H[i][j] = 0 for j > i,
    H[i][i] > 0, and 0 <= H[i][j] < H[j][j] for i > j.  This form is
    unique, so it doubles as a canonical representative of the lattice.

    Computed modulo R = |det| (Domich, Kannan & Trotter 1987; Cohen, Alg.
    2.4.8): the lattice holds R*Z^n, so entries stay in [0, R).  Column c
    is folded into row c, whose pivot is the gcd of what lands there with
    R; the rows above and R*Z^c then span the part of the lattice that is
    zero from column c on, of determinant R / pivot, the next modulus.
    """
    mod = abs(bareiss_det(rows))
    if mod == 0:
        raise ValueError("lattice basis is singular")
    m = [[x % mod for x in r] for r in rows]
    for c in range(len(m) - 1, -1, -1):
        for r in range(c):
            if m[r][c]:
                g, uu, vv = xgcd(m[c][c], m[r][c])
                fa, fb = m[c][c] // g, m[r][c] // g
                m[c], m[r] = (
                    [(uu * x + vv * y) % mod for x, y in zip(m[c], m[r])],
                    [(fa * y - fb * x) % mod for x, y in zip(m[c], m[r])],
                )
        g, u, _ = xgcd(m[c][c], mod)
        m[c] = [u * x % mod for x in m[c]]
        m[c][c] = g
        mod //= g
    for i in range(len(m)):
        for j in range(i - 1, -1, -1):
            q = m[i][j] // m[j][j]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[j])]
    return m


def kernel_hnf(vectors, moduli) -> list[SparseRow]:
    """Sparse lower-triangular HNF of {x in Z^n : sum x_i v_i = 0 mod moduli}.

    Works column by column.  The pivot of row i is the order t of v_i
    modulo the subgroup H generated by v_0..v_{i-1}, and the row is t*e_i
    minus an expression of t*v_i over the earlier generators, reduced into
    HNF range.  Only columns with a pivot above 1 (at most log2 of the
    group order of them) ever enter such an expression, and H changes
    only there: so each run of rows up to the next vector outside H is one
    batch of whole-list passes over the vectors left (a sequence).

    H is kept as a lower-triangular basis `gens` of its preimage in Z^k,
    which starts as diag(moduli); `combos[c]` records which combination of
    the pivot columns' vectors produces `gens[c]` modulo the moduli.
    """
    k = len(moduli)
    gens = [[d if c == r else 0 for c in range(k)] for r, d in enumerate(moduli)]
    combos: list[dict[int, int]] = [{} for _ in range(k)]
    pivots: list[tuple[int, int, SparseRow]] = []  # (column, pivot, row), ascending
    rows: list[SparseRow] = []
    while len(rows) < len(vectors):
        # rest[c][b] = (t*v - sum coef[c'] * gens[c'])[c] for the b-th vector
        # of the run; only the last one can leave H, so only its t is not 1
        start, t, coef = len(rows), 1, {}
        rest = [list(col) for col in zip(*vectors[start:])]
        for c in range(k - 1, -1, -1):
            d = gens[c][c]
            out = next(compress(count(), [x % d for x in rest[c]]), None)
            if out is not None:  # the run ends at its first vector outside H
                f = d // gcd(rest[c][out], d)
                t = f * (t if out == len(rest[c]) - 1 else 1)
                rest = [col[:out] + [f * col[out]] for col in rest]
                coef = {j: col[:out] + [f * col[out]] for j, col in coef.items()}
            coef[c] = [x // d for x in rest[c]]
            for j in range(c):
                if gens[c][j]:
                    rest[j] = [x - gens[c][j] * a for x, a in zip(rest[j], coef[c])]
        run = len(rest[0])
        entries = {j: [0] * run for j, _, _ in pivots}
        for c, col in coef.items():
            for j, a in combos[c].items():
                entries[j] = [x - a * y for x, y in zip(entries[j], col)]
        for j, pivot, prow in reversed(pivots):
            q = [x // pivot for x in entries[j]]
            for jj, h in prow:
                entries[jj] = [x - h * y for x, y in zip(entries[jj], q)]
        run_rows = [()] * run
        for j, col in entries.items():
            run_rows = [r + ((j, x),) if x else r for r, x in zip(run_rows, col)]
        i = start + run - 1  # the run's last vector
        rows += [r + ((j, 1),) for j, r in enumerate(run_rows[:-1], start)] + [run_rows[-1] + ((i, t),)]
        if t == 1:
            continue
        pivots.append((i, t, rows[-1]))
        new, combo = list(vectors[i]), {i: 1}
        for c in range(k - 1, -1, -1):
            if new[c]:
                g, u, w = xgcd(gens[c][c], new[c])
                fa, fb = gens[c][c] // g, new[c] // g
                gens[c], new = (
                    [u * x + w * y for x, y in zip(gens[c], new)],
                    [fa * y - fb * x for x, y in zip(gens[c], new)],
                )
                combos[c], combo = _mix(u, combos[c], w, combo), _mix(-fb, combos[c], fa, combo)
    return rows


def _mix(a: int, x: dict[int, int], b: int, y: dict[int, int]) -> dict[int, int]:
    """The sparse combination a*x + b*y."""
    out = {j: a * v for j, v in x.items()}
    for j, v in y.items():
        out[j] = out.get(j, 0) + b * v
    return {j: v for j, v in out.items() if v}


def reduce_mod_lattice(hnf, columns: dict[int, dict[int, int]]) -> dict[int, int]:
    """Coset indices of a batch of sparse vectors modulo the lattice
    spanned by sparse lower-triangular HNF rows.

    The batch comes column-wise, coordinate -> {vector id: value}, absent
    entries 0.  A vector's canonical representative in the box
    prod([0, pivot_i)), one point per coset, is returned as its index: the
    mixed-radix number it reads as, coordinate 0 most significant.  Equal
    cosets give equal indices and the lattice gets 0, as does any vector
    id absent from `columns`.

    By the pivot-1 fact (module docstring) a row with pivot 1 carries its
    whole value into the pivot columns above 1, so all such rows move
    there at once, one comprehension per pivot column; only those columns,
    each a list over all vector ids, then divide and carry, largest first.
    """
    ids = list(dict.fromkeys(chain.from_iterable(columns.values())))
    big = [i for i, row in enumerate(hnf) if row[-1][1] > 1]
    unit = [(col, hnf[i][:-1]) for i, col in columns.items() if hnf[i][-1][1] == 1]
    dense = {}
    for p in big:
        pairs = [*columns.get(p, {}).items()] + [
            (v, -h * x) for col, row in unit for j, h in row if j == p for v, x in col.items()
        ]
        merged = dict(pairs)
        if len(merged) < len(pairs):  # a vector with several coordinates: add its parts
            merged = dict.fromkeys(merged, 0)
            for v, x in pairs:
                merged[v] += x
        dense[p] = list(map(merged.get, ids, repeat(0)))
    index, weight = [0] * len(ids), 1
    for p in reversed(big):
        pivot = hnf[p][-1][1]
        index = [a + x % pivot * weight for a, x in zip(index, dense[p])]
        if len(hnf[p]) > 1:  # carry the quotients into the pivot columns left of p
            q = [x // pivot for x in dense[p]]
            for j, h in hnf[p][:-1]:
                dense[j] = [x - h * y for x, y in zip(dense[j], q)]
        weight *= pivot
    return dict(zip(ids, index))


def bareiss_det(rows: Matrix) -> int:
    """Determinant by Bareiss fraction-free elimination (exact)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
