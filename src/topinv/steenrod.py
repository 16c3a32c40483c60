"""Cup-i products, Steenrod squares, and the integral Bockstein.

The cup-i product uses the classical combinatorial formula: for an
n-simplex and cut positions j_0 < ... < j_i, the vertex positions split
into i+2 overlapping blocks [0..j_0], [j_0..j_1], ..., [j_i..n]; the
first factor is evaluated on the union of the even blocks, the second on
the union of the odd ones.  Sq^k on a degree-q class is the cup-(q-k)
square of a representative cocycle.
"""

from __future__ import annotations

import functools
import itertools

from . import zlinalg
from .complexes import CohomologyClass, SimplicialComplex, f2_class


@functools.lru_cache(maxsize=None)
def _cut_patterns(n: int, i: int, p: int) -> tuple:
    """Position blocks on an n-simplex whose even part has size p+1."""
    pats = []
    for cuts in itertools.combinations(range(n + 1), i + 1):
        xpos: list[int] = []
        ypos: list[int] = []
        prev = 0
        for t, c in enumerate(cuts + (n,)):
            (xpos if t % 2 == 0 else ypos).extend(range(prev, c + 1))
            prev = c
        if len(xpos) == p + 1:
            pats.append((tuple(xpos), tuple(ypos)))
    return tuple(pats)


def cup_i(K: SimplicialComplex, x: int, p: int, y: int, q: int, i: int) -> int:
    """Cochain-level cup-i product of F2 cochains of degrees p and q.

    Returns a mask over the (p+q-i)-simplices.  cup_0 is the ordinary
    cup product.
    """
    if i < 0 or i > min(p, q):
        raise ValueError("invalid cup-i degree")
    n = p + q - i
    if n > K.dimension or n < 0:
        return 0
    ip = K.simplex_index(p)
    iq = K.simplex_index(q)
    pats = _cut_patterns(n, i, p)
    out = 0
    for s_i, s in enumerate(K.simplices(n)):
        acc = 0
        for xpos, ypos in pats:
            xv = tuple(s[t] for t in xpos)
            yv = tuple(s[t] for t in ypos)
            acc ^= (x >> ip[xv]) & (y >> iq[yv])
        if acc & 1:
            out |= 1 << s_i
    return out


def sq(K: SimplicialComplex, k: int, x: CohomologyClass) -> CohomologyClass:
    """Steenrod square Sq^k on an F2 cohomology class."""
    if x.ring != "F2":
        raise ValueError("Steenrod squares act on F2 classes")
    if k < 0:
        raise ValueError("negative Steenrod square")
    q = x.degree
    if k == 0:
        return x
    if k > q:
        return f2_class(K, q + k, 0)
    mask = cup_i(K, x.cocycle, q, x.cocycle, q, q - k)
    return f2_class(K, q + k, mask)


def bockstein(K: SimplicialComplex, x: CohomologyClass
              ) -> tuple[tuple[int, ...], bool]:
    """Integral Bockstein of an F2 class: lift, take delta, halve.

    Returns the integral (k+1)-cocycle beta together with an is_zero
    flag: beta is zero in H^(k+1)(K; Z) exactly when it lies in the image
    of delta_k, which one solve against K.coboundary_factor(k) decides.
    """
    if x.ring != "F2":
        raise ValueError("Bockstein here takes an F2 class")
    k = x.degree
    nk = K.n_simplices(k)
    lift = [(x.cocycle >> i) & 1 for i in range(nk)]
    dz = K.coboundary_apply_z(k, tuple(lift))
    if any(v % 2 for v in dz):
        raise ValueError("not a cocycle mod 2")
    beta = tuple(v // 2 for v in dz)
    return beta, zlinalg.solve(K.coboundary_factor(k), list(beta)) is not None


def binom2(m: int, n: int) -> int:
    """Binomial coefficient mod 2 (zero outside 0 <= n <= m)."""
    if n < 0 or m < 0 or n > m:
        return 0
    return 1 if ((m - n) & n) == 0 else 0


def sq_on_mask(K: SimplicialComplex, k: int, q: int, mask: int) -> int:
    """Cochain-level Sq^k of a degree-q cocycle mask."""
    if k == 0:
        return mask
    if k > q:
        return 0
    return cup_i(K, mask, q, mask, q, q - k)


def coboundary_defect(K: SimplicialComplex, x: int, p: int, y: int, q: int,
                      i: int) -> int:
    """delta(x cup_i y) minus its Leibniz-plus-shift expansion, over F2.

    Zero for all cochains; exercised by the test suite as the structural
    identity behind the Steenrod squares.
    """
    lhs = K.coboundary_apply_f2(p + q - i, cup_i(K, x, p, y, q, i))
    rhs = cup_i(K, K.coboundary_apply_f2(p, x), p + 1, y, q, i)
    rhs ^= cup_i(K, x, p, K.coboundary_apply_f2(q, y), q + 1, i)
    if i > 0:
        rhs ^= cup_i(K, x, p, y, q, i - 1)
        rhs ^= cup_i(K, y, q, x, p, i - 1)
    return lhs ^ rhs
