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
row is e_i plus entries in those few columns, and a batch of vectors is
worked on in whole-list passes, one per such column.  `_fold` is the one
xgcd row step, `_carry` the one reduction of those columns into the HNF
box, and `pivot_projection` the one place the rows with pivot 1 enter.
Each such column is one pass: `_carry` reduces it by one `%` and makes
its quotients only when its row has entries besides the pivot, and
`kernel_hnf` skips the `%` and `//` passes at a column where H already
has pivot 1, as every vector lies in H there.
"""

from __future__ import annotations

from itertools import compress, count
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


def _fold(a: list[int], b: list[int], c: int) -> tuple[list[int], list[int]]:
    """The unimodular xgcd step at column c: rows a and b become a row
    holding gcd(a[c], b[c]) at c and a row holding 0 there."""
    g, u, v = xgcd(a[c], b[c])
    fa, fb = a[c] // g, b[c] // g
    return [u * x + v * y for x, y in zip(a, b)], [fa * y - fb * x for x, y in zip(a, b)]


def _carry(rows, columns: dict[int, list[int]]) -> dict[int, list[int]]:
    """Reduce a batch into the HNF box prod([0, pivot)): `columns` holds
    one list per pivot column above 1 of the sparse HNF `rows`, in
    ascending order, and is reduced in place, largest column first, each
    column's quotients carried into the columns of its row."""
    for p in reversed(columns):
        d, col = rows[p][-1][1], columns[p]
        columns[p] = [x % d for x in col]
        if len(rows[p]) > 1:  # the quotients are carried only where row p has entries
            q = [x // d for x in col]
            for j, h in rows[p][:-1]:
                columns[j] = [x - h * y for x, y in zip(columns[j], q)]
    return columns


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
                m[c], m[r] = ([x % mod for x in row] for row in _fold(m[c], m[r], c))
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
    batch of whole-list passes over the vectors left (a sequence), sliced
    from its columns, transposed once.

    H is kept as a lower-triangular basis `gens` of its preimage in Z^k,
    which starts as diag(moduli).  Each row of `gens` carries, as trailing
    entries, its combination of the vectors of the pivot columns above 1
    modulo the moduli, so one `_fold` updates both parts.
    """
    k = len(moduli)
    gens = [[d if c == r else 0 for c in range(k)] for r, d in enumerate(moduli)]
    big: list[int] = []  # the columns with a pivot above 1, ascending
    rows: list[SparseRow] = []
    columns = [list(col) for col in zip(*vectors)]
    while len(rows) < len(vectors):
        # rest[c][b] = (t*v - sum coef[c'] * gens[c'])[c] for the b-th vector
        # of the run, with v 0 past column k (its entries at the pivot columns
        # above 1); only the last one can leave H, so only its t is not 1
        start, t = len(rows), 1
        rest = [col[start:] for col in columns]
        rest += [[0] * len(rest[0]) for _ in big]
        for c in range(k - 1, -1, -1):
            d = gens[c][c]
            coef = rest[c]  # with d = 1 every vector lies in H at column c
            if d > 1:
                out = next(compress(count(), [x % d for x in rest[c]]), None)
                if out is not None:  # the run ends at its first vector outside H
                    f = d // gcd(rest[c][out], d)
                    t = f * (t if out == len(rest[c]) - 1 else 1)
                    rest = [col[:out] + [f * col[out]] for col in rest]
                coef = [x // d for x in rest[c]]
            for j, h in enumerate(gens[c]):
                if h and j != c:  # column c is done: what is left there is 0
                    rest[j] = [x - h * a for x, a in zip(rest[j], coef)]
        entries = _carry(rows, dict(zip(big, rest[k:])))
        run = len(rest[0])
        run_rows = [()] * run
        for j, col in entries.items():
            run_rows = [r + ((j, x),) if x else r for r, x in zip(run_rows, col)]
        i = start + run - 1  # the run's last vector
        rows += [r + ((j, 1),) for j, r in enumerate(run_rows[:-1], start)] + [run_rows[-1] + ((i, t),)]
        if t == 1:
            continue
        big.append(i)
        for row in gens:
            row.append(0)
        new = list(vectors[i]) + [0] * (len(big) - 1) + [1]
        for c in range(k - 1, -1, -1):
            if new[c]:
                gens[c], new = _fold(gens[c], new, c)
    return rows


def pivot_projection(hnf) -> dict[int, list[int]]:
    """For each pivot column p above 1 of a sparse lower HNF, ascending,
    the entry at p of each e^c modulo the rows with pivot 1: by the
    pivot-1 fact such a row c is e^c plus entries h in those columns, so
    e^c is -h there, and e^p is itself.  A vector x projects to sum_c x_c
    times these columns, which is all that is left of it."""
    proj = {p: [0] * len(hnf) for p, row in enumerate(hnf) if row[-1][1] > 1}
    for c, row in enumerate(hnf):
        if c in proj:
            proj[c][c] = 1
        else:
            for j, h in row[:-1]:
                proj[j][c] = -h
    return proj


def reduce_mod_lattice(hnf, batch: dict[int, list[int]]) -> list[int]:
    """Coset indices of a batch of vectors modulo the lattice spanned by
    sparse lower-triangular HNF rows.

    The batch comes projected (`pivot_projection`): one list per pivot
    column above 1, ascending, of each vector's entry there.  A vector's
    representative in the box prod([0, pivot_i)), one point per coset,
    is returned as its index: the mixed-radix number it reads as,
    coordinate 0 most significant, so the lattice gets 0.  With no pivot
    above 1 the lattice is Z^n, the batch is empty, and so is the result.
    """
    columns = iter(_carry(hnf, dict(batch)).items())
    _, index = next(columns, (None, []))
    for p, col in columns:
        pivot = hnf[p][-1][1]
        index = [a * pivot + x for a, x in zip(index, col)]
    return index


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
