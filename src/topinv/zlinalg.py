"""Exact integer matrix algebra: diagonalization, kernels, solving.

Matrices are lists of sparse rows ({column: nonzero entry}) of Python
ints, because coboundary matrices are mostly zero; vectors are dense
lists.  Everything here is exact; no floating point appears anywhere.

Two eliminations serve two kinds of consumer.  diagonalize runs in a
pinned pivot order, eliminates D alone and logs its steps.  The logs are
the only form of U and V: each consumer replays them on just the vectors
it needs (see Diagonalization for which replay gives what).  Its
consumers are those that read a basis off V: ZCohomology, and through
it the cocycles of the intersection gram.  eliminate_units first takes
the +-1 pivots in a fill-limiting order and leaves diagonalize only the
rows without a unit; it serves the answers that need no basis: the
ranks and torsion of integral homology, and the Bockstein's yes or no.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def matvec(a: list[dict], v: list[int]) -> list[int]:
    """A v for sparse rows a, summed over the nonzero entries of A only."""
    return [sum(x * v[j] for j, x in row.items()) for row in a]


@dataclass
class Diagonalization:
    """U A V = D with U, V unimodular and D diagonal (not n x n in general).

    diag holds the nonnegative diagonal entries with all nonzero ones
    first; rank is their count.  The diagonal entries need not form a
    divisibility chain; see invariant_factors for that normalization.

    The logs hold the elimination's steps in order and are the only U and
    V.  A row step (i, j, q) swaps rows i and j if q = 0, negates row i
    if i = j, else adds q * row j to row i; a column step (j, k, q) swaps
    columns j and k if q = 0, else adds q * column k to column j (the
    column log holds no negations).  _replay_vector gives U b from the
    row log forward (solve), U^-1 b backward and inverted
    (ZCohomology.rep), and V y from the column log backward and
    transposed (solve, rep, kernel_basis); _vinv_rows gives V^-1 A on
    sparse rows (the relation matrix of ZCohomology).
    """

    diag: list[int]
    rank: int
    m: int
    n: int
    row_log: list[tuple[int, int, int]]
    col_log: list[tuple[int, int, int]]


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


def _replay_vector(steps, x: list[int], transpose=False,
                   inverse=False) -> list[int]:
    """x with each logged step, or its transpose, applied in place; with
    inverse, each add step is applied with -q (swaps and negations are
    their own inverses)."""
    sign = -1 if inverse else 1
    for i, j, q in steps:
        if not q:
            x[i], x[j] = x[j], x[i]
        elif i == j:
            x[i] = -x[i]
        elif transpose:
            x[j] += sign * q * x[i]
        else:
            x[i] += sign * q * x[j]
    return x


def _vinv_rows(col_log, rows: list[dict]) -> list[dict]:
    """V^-1 times the matrix of sparse rows, on copies of them: each column
    step, inverted, taken in log order as a row step (a swap, or -q * row
    j added to row k for the step (j, k, q))."""
    rows = [dict(row) for row in rows]
    for j, k, q in col_log:
        if q:
            _axpy(rows[k], rows[j], -q)
        else:
            rows[j], rows[k] = rows[k], rows[j]
    return rows


def diagonalize(a: list[dict], ncols: int) -> Diagonalization:
    """Diagonalize the sparse rows a, of ncols columns, by unimodular row
    and column operations, logging each one.

    The pivot at each stage is the first entry of least absolute value,
    in row-major order, of the remaining block, which keeps intermediate
    entries small.  The pivot column is cleared top to bottom, then the
    pivot row left to right; a nonzero remainder is swapped in as the new
    pivot and the clearing starts over.  Consumers read cocycle bases off
    V, so this sequence is part of the contract: it is the dense
    elimination's, step for step, and the logs replayed on unit vectors
    give its U, V, V^-1 and U^-1 entry for entry.  Only D is eliminated,
    on a copy of a plus, per column, the set of rows holding it.
    """
    m, n = len(a), ncols
    d = [dict(row) for row in a]
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    row_log, col_log = [], []

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for c in d[i].keys() ^ d[j].keys():
            cols[c] ^= {i, j}
        row_log.append((i, j, 0))

    def col_swap(i, j):
        for r in cols[i] | cols[j]:
            row = d[r]
            x, y = row.pop(i, 0), row.pop(j, 0)
            if x:
                row[j] = x
            if y:
                row[i] = y
        cols[i], cols[j] = cols[j], cols[i]
        col_log.append((i, j, 0))

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
                    _axpy(d[i], d[k], -q, cols, i)
                    row_log.append((i, k, -q))
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
                        col_log.append((j, k, -q))
                    if r:
                        row[j] = r
                        col_swap(k, j)
                        break
                    del row[j]
                    cols[j].discard(k)
                else:
                    break
        if d[k][k] < 0:
            d[k] = {c: -x for c, x in d[k].items()}
            row_log.append((k, k, -1))

    diag = [d[i].get(i, 0) for i in range(min(m, n))]
    rank = sum(1 for x in diag if x)
    # nonzero entries are already leading because pivoting stops at the
    # first all-zero block
    return Diagonalization(diag, rank, m, n, row_log, col_log)


def eliminate_units(a: list[dict], ncols: int, b: list[int] | None = None
                    ) -> tuple[int, list[dict], list[int]]:
    """Eliminate the +-1 pivots of the sparse rows a by row operations,
    carrying b (zero if not given) along, and drop each pivot row and
    column.

    Returns (r, rest, rest_b): r pivots were taken, and rest holds the
    rows left, over the original columns, with their entries of b.  A
    pivot's column then meets no other row, so column operations clear
    its row too: Smith(A) = I_r + Smith(rest), and A x = b has an
    integral solution exactly when rest y = rest_b has one, since each
    pivot equation has a unit coefficient.  rest holds no unit entry;
    rows left empty are dropped unless their entry of b is nonzero.

    Each pass visits the live rows once, by ascending nonzero count, and
    takes the unit entry whose column meets the fewest rows, which limits
    fill without a rescan per pivot; passes repeat while fill makes new
    units.  The pivot order is free, so consumers that read a basis off
    U or V use diagonalize instead.
    """
    d = [dict(row) for row in a]
    b = list(b) if b is not None else [0] * len(d)
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(d):
        for j in row:
            cols[j].add(i)
    live = [True] * len(d)
    r, found = 0, True
    while found:
        found = False
        for i in sorted((i for i in range(len(d)) if live[i]),
                        key=lambda i: len(d[i])):
            row = d[i]
            units = [j for j, x in row.items() if x == 1 or x == -1]
            if not units:
                continue
            j = min(units, key=lambda c: len(cols[c]))
            for c in row:
                cols[c].discard(i)
            for s in list(cols[j]):
                q = d[s][j] * row[j]
                _axpy(d[s], row, -q, cols, s)
                b[s] -= q * b[i]
            live[i] = False
            r += 1
            found = True
    keep = [i for i in range(len(d)) if live[i] and (d[i] or b[i])]
    return r, [d[i] for i in keep], [b[i] for i in keep]


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


def kernel_basis(dz: Diagonalization) -> list[dict]:
    """Basis of the integer kernel of the diagonalized matrix, as sparse
    column vectors of length n: V e_j for each j past the rank."""
    units = ([int(i == j) for i in range(dz.n)] for j in range(dz.rank, dz.n))
    cols = (_replay_vector(reversed(dz.col_log), e, True) for e in units)
    return [{i: v for i, v in enumerate(x) if v} for x in cols]


def solve(dz: Diagonalization, b: list[int]) -> list[int] | None:
    """One integral solution of A x = b for the diagonalized A, or None:
    x = V y with D y = U b, replaying the logs on b and y alone."""
    ub = _replay_vector(dz.row_log, list(b))
    r = dz.rank
    if any(ub[r:]) or any(x % d for x, d in zip(ub, dz.diag[:r])):
        return None
    y = [x // d for x, d in zip(ub, dz.diag[:r])] + [0] * (dz.n - r)
    return _replay_vector(reversed(dz.col_log), y, True)


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
