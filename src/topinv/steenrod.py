"""Cup-i products, Steenrod squares, and the integral Bockstein.

The cup-i product uses Steenrod's combinatorial formula: for an
n-simplex and cut positions j_0 < ... < j_i, the vertex positions split
into i+2 overlapping blocks [0..j_0], [j_0..j_1], ..., [j_i..n]; the
first factor is evaluated on the union of the even blocks, the second on
the union of the odd ones, and the products are summed over the cuts.
Sq^k on a degree-q class is the cup-(q-k) square of a representative
cocycle.

The products run on the F2 product kernel of complexes.py, shared with
the cup product: SimplicialComplex.cup_f2 gathers each operand once per
cut pattern through a memoized face table (the index of the face on
those positions, per n-simplex), so a product is a few string passes at
C speed and a xor of ands of masks, with no loop over simplices.
"""

from __future__ import annotations

from . import zlinalg
from .complexes import CohomologyClass, SimplicialComplex, f2_class


def cup_i(K: SimplicialComplex, x: int, p: int, y: int, q: int, i: int) -> int:
    """Cochain-level cup-i product of F2 cochains of degrees p and q.

    Returns a mask over the (p+q-i)-simplices.  cup_0 is the ordinary
    cup product.
    """
    if i < 0 or i > min(p, q):
        raise ValueError("invalid cup-i degree")
    return K.cup_f2(x, p, y, q, i)


def sq(K: SimplicialComplex, k: int, x: CohomologyClass) -> CohomologyClass:
    """Steenrod square Sq^k on an F2 cohomology class."""
    if k < 0:
        raise ValueError("negative Steenrod square")
    return f2_class(K, x.degree + k, sq_on_mask(K, k, x.degree, x.cocycle))


def bockstein(K: SimplicialComplex, x: CohomologyClass
              ) -> tuple[tuple[int, ...], bool]:
    """Integral Bockstein of an F2 class: lift, take delta, halve.

    Returns the integral (k+1)-cocycle beta together with an is_zero
    flag: beta is zero in H^(k+1)(K; Z) exactly when it lies in the image
    of delta_k.  beta is a homomorphism on classes, so the zero class
    needs no solve.  Otherwise K.in_coboundary_image decides it, on
    delta_k with its unit pivots eliminated first.
    """
    k = x.degree
    nk = K.n_simplices(k)
    lift = [(x.cocycle >> i) & 1 for i in range(nk)]
    dz = zlinalg.matvec(K.coboundary_z(k), lift)
    if any(v % 2 for v in dz):
        raise ValueError("not a cocycle mod 2")
    beta = tuple(v // 2 for v in dz)
    if x.is_zero:
        return beta, True
    return beta, K.in_coboundary_image(k, beta)


def sq_on_mask(K: SimplicialComplex, k: int, q: int, mask: int) -> int:
    """Cochain-level Sq^k of a degree-q cocycle mask."""
    if k == 0:
        return mask
    if k > q:
        return 0
    return cup_i(K, mask, q, mask, q, q - k)
