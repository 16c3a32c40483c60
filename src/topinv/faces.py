"""The faces of a simplicial complex, as packed vertex-rank codes.

A k-simplex's code is the ranks of its vertices among the complex's sorted
vertices, each in a field of `width` bits, the first vertex most
significant, so the numeric order of codes is the lex order of simplices
(the simplex codes of Ripser; Bauer, J. Appl. Comput. Topol. 5, 2021).
A degree's codes are packed into one int, code j in slot j of
words(width, k) 64-bit words, so one shift and mask of that int moves a
field of every simplex at once, in C (SIMD within a register; Fisher and
Dietz, LCPC 1998), and memoryview.cast reads the slots back as ints.
complexes.SimplicialComplex keeps what build returns and decodes the
simplices, as tuples, only for readers that print them.
"""

from __future__ import annotations

import collections
import itertools
import operator
import sys


def words(width: int, k: int) -> int:
    """The 64-bit words of a k-simplex's slot."""
    return max(1, -(-width * (k + 1) // 64))


def ridge(n: int, i: int) -> tuple[int, ...]:
    """The positions of an n-simplex's face that leaves out position i."""
    return tuple(range(i)) + tuple(range(i + 1, n + 1))


def pack(codes, w: int) -> int:
    """The codes as one int, code j in slot j of w words."""
    size, order = itertools.repeat(8 * w), itertools.repeat(sys.byteorder)
    return int.from_bytes(b"".join(map(int.to_bytes, codes, size, order)),
                          sys.byteorder)


def unpack(packed: int, count: int, w: int) -> list[int]:
    """The count codes in packed's slots of w words: its 64-bit words read
    by memoryview.cast, each slot's words joined most significant first."""
    mv = memoryview(packed.to_bytes(8 * w * count, sys.byteorder)).cast("Q")
    top, *rest = range(w) if sys.byteorder == "big" else range(w)[::-1]
    codes = mv[top::w].tolist()
    for t in rest:
        codes = list(map(operator.or_, map(
            operator.lshift, codes, itertools.repeat(64)), mv[t::w].tolist()))
    return codes


def pick(packed: int, count: int, width: int, n: int, positions):
    """For each pos in positions, the codes of the faces on positions pos
    of the count n-simplices in packed: one shift and mask of packed a run
    of positions whose fields move alike, read back by unpack."""
    w = words(width, n)
    # 1 at the lowest bit of every slot, wherever the byte order puts it
    ones = int.from_bytes(b"\1".ljust(8 * w, b"\0") * count, "little")
    for pos in positions:
        m, out = len(pos) - 1, 0
        for d, run in itertools.groupby(range(m + 1), lambda t: pos[t] - t):
            run = list(run)  # target fields, moved d fields each
            mask = ((1 << width * (m + 1 - run[0]))
                    - (1 << width * (m - run[-1]))) * ones
            out |= (packed >> width * (n - m - d)) & mask
        yield unpack(out, count, w)


def build(maximal, vertices, width: int, bound: int):
    """(degrees, tables) of the complex of the sorted maximal simplices,
    or the count of its faces, facets included, that passed bound.
    degrees[k] is (packed, index): the k-simplices' codes packed, and the
    dict of each code to its position, in that order, whose ints every
    table shares; tables[n, ridge(n, i)] maps each n-simplex to the index
    of its face that leaves out position i.  Top down, one pass a degree:
    one pick of the packed degree above a left-out position, a set and
    sorted give the degree, and each face list read through its index a
    table.  A lower-dimensional maximal simplex joins its degree.  The
    count, every degree above and this one's distinct faces so far, is
    read a pick at a time, so it passes bound by at most one pick; a
    facet of v vertices is refused with 2^v - 1, if past bound, before any
    face is built."""
    alone = 2 ** max(map(len, maximal)) - 1  # one facet's faces
    if alone > bound:
        return alone
    rank = dict(zip(vertices, range(len(vertices))))
    listed = collections.defaultdict(list)
    for s in maximal:
        listed[len(s) - 1].append(s)
    degrees, tables, total, packed, count = [], {}, 0, 0, 0
    for k in reversed(range(len(max(maximal, key=len)))):
        w = words(width, k)
        # the listed k-simplices, a shifted packed column of ranks at a time
        seen = set(unpack(sum(
            pack(map(rank.__getitem__, column), w) << width * (k - i)
            for i, column in enumerate(zip(*listed[k]))), len(listed[k]), w))
        ridges = [ridge(k + 1, i) for i in range(k + 2)] if degrees else []
        faces = []
        for f in pick(packed, count, width, k + 1, ridges):
            faces.append(f)
            seen.update(f)
            if total + len(seen) > bound:
                break
        total += len(seen)
        if total > bound:
            return total
        packed, count = pack(sorted(seen), w), len(seen)
        # the index's codes unpacked anew, so no face list's int is kept
        index = dict(zip(unpack(packed, count, w), range(count)))
        tables.update(((k + 1, pos), tuple(map(index.__getitem__, f)))
                      for pos, f in zip(ridges, faces))
        degrees.insert(0, (packed, index))
    return degrees, tables
