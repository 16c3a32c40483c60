"""Exact integer matrix algebra: diagonalization, kernels, solving.

Matrices are lists of rows of Python ints.  Everything here is exact;
no floating point appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matvec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


@dataclass
class Diagonalization:
    """U A V = D with U, V unimodular and D diagonal (not n x n in general).

    diag holds the nonnegative diagonal entries with all nonzero ones
    first; rank is their count.  The diagonal entries need not form a
    divisibility chain; see invariant_factors for that normalization.
    """

    diag: list[int]
    rank: int
    m: int
    n: int
    u: list[list[int]]
    uinv: list[list[int]]
    v: list[list[int]]
    vinv: list[list[int]]


def diagonalize(a: list[list[int]], ncols: int | None = None) -> Diagonalization:
    """Diagonalize by unimodular row and column operations.

    The pivot at each stage is a nonzero entry of minimal absolute value
    in the remaining block, which keeps intermediate entries small.
    ncols pins the column count when the matrix has no rows.
    """
    m = len(a)
    n = len(a[0]) if m else (ncols or 0)
    d = [row[:] for row in a]
    u, uinv = identity(m), identity(m)
    v, vinv = identity(n), identity(n)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_add(j, i, q):
        # row j += q * row i
        d[j] = [x + q * y for x, y in zip(d[j], d[i])]
        u[j] = [x + q * y for x, y in zip(u[j], u[i])]
        for r in uinv:
            r[i] -= q * r[j]

    def col_add(j, i, q):
        # col j += q * col i
        for r in d:
            r[j] += q * r[i]
        for r in v:
            r[j] += q * r[i]
        vinv[i] = [x - q * y for x, y in zip(vinv[i], vinv[j])]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    for k in range(min(m, n)):
        # locate a minimal-magnitude nonzero entry in the trailing block
        best = None
        for i in range(k, m):
            for j in range(k, n):
                e = d[i][j]
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
                    if best[0] == 1:
                        break
            if best and best[0] == 1:
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
            # clear the pivot column; leftover remainders become new pivots
            dirty = False
            for i in range(k + 1, m):
                if d[i][k]:
                    q = d[i][k] // pivot
                    if q:
                        row_add(i, k, -q)
                    if d[i][k]:
                        row_swap(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, n):
                if d[k][j]:
                    q = d[k][j] // pivot
                    if q:
                        col_add(j, k, -q)
                    if d[k][j]:
                        col_swap(k, j)
                        dirty = True
                        break
            if not dirty:
                break
        if d[k][k] < 0:
            negate_row(k)

    diag = [d[i][i] for i in range(min(m, n))]
    rank = sum(1 for x in diag if x)
    # nonzero entries are already leading because pivoting stops at the
    # first all-zero block
    return Diagonalization(diag, rank, m, n, u, uinv, v, vinv)


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
