"""Exact integer matrix algebra: diagonalization, kernels, solving.

Matrices are lists of rows of Python ints.  Everything here is exact;
no floating point appears anywhere.  diagonalize works on sparse rows
({column: nonzero entry}) inside, because coboundary matrices and their
transforms are mostly zero, and hands back dense rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    """A v, summed over the nonzero entries of v only."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nz) for row in a]


@dataclass
class Diagonalization:
    """U A V = D with U, V unimodular and D diagonal (not n x n in general).

    diag holds the nonnegative diagonal entries with all nonzero ones
    first; rank is their count.  The diagonal entries need not form a
    divisibility chain; see invariant_factors for that normalization.
    uinv is None unless diagonalize was asked for it.
    """

    diag: list[int]
    rank: int
    m: int
    n: int
    u: list[list[int]]
    uinv: list[list[int]] | None
    v: list[list[int]]
    vinv: list[list[int]]


def _axpy(dst: dict, src: dict, q: int, cols=None, r=None) -> None:
    """dst += q * src on sparse rows {index: nonzero value}; if given,
    cols[c] is kept as the set of rows r holding index c."""
    for c, x in src.items():
        y = dst.get(c, 0) + q * x
        if y:
            if cols is not None and c not in dst:
                cols[c].add(r)
            dst[c] = y
        else:
            del dst[c]
            if cols is not None:
                cols[c].discard(r)


def _dense(rows: list[dict], size: int, transpose: bool = False):
    out = [[0] * size for _ in range(size)]
    for row, r in zip(rows, out):
        for j, x in row.items():
            r[j] = x
    return [list(c) for c in zip(*out)] if transpose else out


def diagonalize(a: list[list[int]], ncols: int | None = None, *,
                uinv: bool = False) -> Diagonalization:
    """Diagonalize by unimodular row and column operations.

    The pivot at each stage is the first entry of least absolute value,
    in row-major order, of the remaining block, which keeps intermediate
    entries small.  The pivot column is cleared top to bottom, then the
    pivot row left to right; a nonzero remainder is swapped in as the new
    pivot and the clearing starts over.  Consumers read cocycle bases off
    V, so this sequence is part of the contract: it is the dense
    elimination's, step for step, and U, V, V^-1 and U^-1 are equal to
    its transforms entry for entry.

    D is kept as sparse rows plus, per column, the set of rows holding
    it; V and U^-1 are kept transposed, so every operation is a row
    operation on sparse rows.  The transforms are made dense once, on
    return.  U^-1 is built only when uinv is set.  ncols pins the column
    count when a has no rows.
    """
    m = len(a)
    n = len(a[0]) if m else (ncols or 0)
    d = [dict(zip(compress(range(n), row), filter(None, row))) for row in a]
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    u, v_t, vinv = ([{i: 1} for i in range(s)] for s in (m, n, n))
    uinv_t = [{i: 1} for i in range(m)] if uinv else None
    by_row = (d, u, uinv_t) if uinv else (d, u)

    def row_swap(i, j):
        for rows in by_row:
            rows[i], rows[j] = rows[j], rows[i]
        for c in d[i].keys() ^ d[j].keys():
            cols[c] ^= {i, j}

    def col_swap(i, j):
        for r in cols[i] | cols[j]:
            row = d[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if x:
                row[j] = x
            if y:
                row[i] = y
        for rows in (cols, v_t, vinv):
            rows[i], rows[j] = rows[j], rows[i]

    for k in range(min(m, n)):
        # rows from k on hold no entry left of column k
        best = None
        for i in range(k, m):
            if d[i]:
                e, j = min((abs(x), j) for j, x in d[i].items())
                if best is None or e < best[0]:
                    best = (e, i, j)
                if e == 1:
                    break
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            row_swap(k, bi)
        if bj != k:
            col_swap(k, bj)
        while True:
            pivot = d[k][k]
            for i in sorted(cols[k] - {k}):
                q = d[i][k] // pivot
                if q:
                    # row i -= q * row k; U^-1 takes the inverse column step
                    _axpy(d[i], d[k], -q, cols, i)
                    _axpy(u[i], u[k], -q)
                    if uinv:
                        _axpy(uinv_t[k], uinv_t[i], q)
                if k in d[i]:
                    row_swap(k, i)
                    break
            else:
                # column k holds the pivot alone, so col j -= q * col k
                # changes only d[k][j], to the remainder
                row = d[k]
                for j in sorted(c for c in row if c > k):
                    q, r = divmod(row[j], pivot)
                    if q:
                        _axpy(v_t[j], v_t[k], -q)
                        _axpy(vinv[k], vinv[j], q)
                    if r:
                        row[j] = r
                        col_swap(k, j)
                        break
                    del row[j]
                    cols[j].discard(k)
                else:
                    break
        if d[k][k] < 0:
            for rows in by_row:
                rows[k] = {c: -x for c, x in rows[k].items()}

    diag = [d[i].get(i, 0) for i in range(min(m, n))]
    rank = sum(1 for x in diag if x)
    # nonzero entries are already leading because pivoting stops at the
    # first all-zero block
    return Diagonalization(diag, rank, m, n, _dense(u, m),
                           _dense(uinv_t, m, True) if uinv else None,
                           _dense(v_t, n, True), _dense(vinv, n))


def invariant_factors(diag: list[int]) -> list[int]:
    """Divisibility-chain normal form of a diagonal entry multiset.

    Pairwise gcd/lcm steps keep the product and leave each factor dividing
    every later one; units lead unchanged, so only the rest is paired.
    Entries equal to zero are dropped (the caller keeps track of rank).
    """
    factors = [abs(x) for x in diag if abs(x) > 1]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = math.gcd(a, b), math.lcm(a, b)
    return [1] * sum(1 for x in diag if abs(x) == 1) + factors


def kernel_basis(dz: Diagonalization) -> list[list[int]]:
    """Basis of the integer kernel of the diagonalized matrix, as column
    vectors of length n: the columns of V past the rank."""
    return [[row[j] for row in dz.v] for j in range(dz.rank, dz.n)]


def solve(dz: Diagonalization, b: list[int]) -> list[int] | None:
    """One integral solution of A x = b for the diagonalized A, or None."""
    ub = matvec(dz.u, b)
    y = [0] * dz.n
    for i in range(dz.m):
        di = dz.diag[i] if i < len(dz.diag) else 0
        if di == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
    return matvec(dz.v, y)


def det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
