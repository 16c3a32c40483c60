"""Wu and Stiefel-Whitney classes of triangulated F2-Poincare complexes.

The Wu class v_k is the unique solution of <v_k cup x, [M]> = <Sq^k x, [M]>
over the duality pairing; the total Stiefel-Whitney class is Sq applied to
the total Wu class.  Everything downstream (numbers, orientations, spin
conditions, cobordism) is derived from these.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import f2linalg, steenrod
from .complexes import (CohomologyClass, SimplicialComplex, TopologyError,
                        duality_pairing_f2, f2_class, is_poincare_f2)


def partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n as descending tuples, lexicographically decreasing."""
    def rec(rem, cap):
        if rem == 0:
            return [()]
        return [(part, *rest) for part in range(min(rem, cap), 0, -1)
                for rest in rec(rem - part, part)]
    return rec(n, n)


def wu_classes(K: SimplicialComplex) -> list[CohomologyClass]:
    """Wu classes v_0..v_n, solved degree by degree from the pairing."""
    def build():
        if not is_poincare_f2(K):
            raise TopologyError("duality pairing singular")
        fc = K.fundamental_class_f2()
        n = K.dimension
        out = []
        for k in range(n + 1):
            if 2 * k > n:
                # Sq^k vanishes on H^(n-k), whose degree is below k
                out.append(CohomologyClass(k, 0, 0))
                continue
            # equation j pairs v_k with the j-th H^(n-k) class, so the
            # pairing rows are the columns of this system; it is square and
            # invertible (is_poincare_f2), so sol is v_k's H^k coordinates
            rhs = 0
            for j, c in enumerate(K.cohomology_f2(n - k).basis):
                sqc = steenrod.sq_on_mask(K, k, n - k, c)
                if f2linalg.dot(sqc, fc):
                    rhs |= 1 << j
            sol = f2linalg.solve_square(duality_pairing_f2(K, k), rhs)
            out.append(CohomologyClass(k, K.cohomology_f2(k).rep(sol), sol))
        return out
    return K._memo(("wu",), build)


def sw_classes(K: SimplicialComplex) -> list[CohomologyClass]:
    """Stiefel-Whitney classes w_0..w_n via the total-square formula."""
    def build():
        vs = wu_classes(K)
        n = K.dimension
        out = []
        for k in range(n + 1):
            mask = 0
            for i in range(k + 1):
                mask ^= steenrod.sq_on_mask(K, k - i, i, vs[i].cocycle)
            out.append(f2_class(K, k, mask))
        return out
    return K._memo(("sw",), build)


def sw_numbers(K: SimplicialComplex) -> dict[tuple[int, ...], int]:
    """All Stiefel-Whitney numbers of K, keyed by descending partitions
    and iterated in the order of partitions(n), lexicographically
    decreasing.

    w_p1 ... w_pr is w_pi on the i-th block of consecutive vertices of an
    n-simplex, so each number is the parity of [K] AND the gathered blocks."""
    def build():
        ws = sw_classes(K)
        n = K.dimension
        fc = K.fundamental_class_f2()
        out = {}
        for part in partitions(n):
            mask, start = fc, 0
            for p in part or (0,):  # n = 0: () reads <w_0, [pt]>
                mask &= K.gather(n, tuple(range(start, start + p + 1)),
                                 ws[p].cocycle)
                start += p
            out[part] = mask.bit_count() & 1
        return out
    return K._memo(("swn",), build)


def integral_sw(K: SimplicialComplex) -> list[bool]:
    """Nonzero flags for the integral classes W_1..W_(n+1).

    W_(k+1) is the Bockstein of w_k; entry k of the result is the flag
    for W_(k+1).
    """
    return [not steenrod.bockstein(K, w)[1] for w in sw_classes(K)]


@dataclass
class ObstructionReport:
    orientable: bool
    k_orientable_max: int
    spin: bool
    spin_c: bool
    de_rham: int | None
    null_cobordant: bool


def obstructions(K: SimplicialComplex) -> ObstructionReport:
    """Orientation-flavoured obstructions readable from w and beta(w).

    The de Rham invariant of a (4k+1)-manifold is the Stiefel-Whitney
    number w_2 w_(4k-1)[M] (Lusztig, Milnor & Peterson, Topology 8, 1969),
    so it is read off sw_numbers."""
    ws = sw_classes(K)
    numbers = sw_numbers(K)
    n = K.dimension

    def w_zero(j):
        return j > n or ws[j].is_zero

    k_max = 0
    while 2 ** k_max - 1 < n and all(
            w_zero(j) for j in range(1, 2 ** (k_max + 1))):
        k_max += 1
    orientable = w_zero(1)
    return ObstructionReport(
        orientable=orientable,
        k_orientable_max=k_max,
        spin=orientable and w_zero(2),
        # W_3 = beta(w_2) = 0; beta of the zero class is zero
        spin_c=orientable and (w_zero(2) or steenrod.bockstein(K, ws[2])[1]),
        de_rham=numbers[(n - 2, 2)] if n >= 5 and n % 4 == 1 else None,
        null_cobordant=all(v == 0 for v in numbers.values()),
    )


def cobordant(complexes: list[SimplicialComplex]
              ) -> tuple[bool, tuple[int, ...] | None]:
    """Whether all Stiefel-Whitney numbers of the two complexes agree; if
    not, the first differing partition in sw_numbers' order, that of
    partitions(n).  Each complex is popped off the list as its numbers are
    taken, so a caller that hands over its only references holds one
    complex, with its memo, at a time."""
    if complexes[0].dimension != complexes[1].dimension:
        raise TopologyError("dimension mismatch")
    a = sw_numbers(complexes.pop(0))
    b = sw_numbers(complexes.pop())
    part = next((part for part in a if a[part] != b[part]), None)
    return part is None, part


@dataclass
class CharClassProfile:
    """Wu classes, Stiefel-Whitney classes, numbers, and integral flags."""

    n: int
    wu: list[CohomologyClass]
    sw: list[CohomologyClass]
    sw_numbers: dict[tuple[int, ...], int]
    integral_sw_nonzero: list[bool]

    @property
    def wu_nonzero_degrees(self) -> list[int]:
        return [k for k, v in enumerate(self.wu) if not v.is_zero]

    @property
    def sw_nonzero_degrees(self) -> list[int]:
        return [k for k, v in enumerate(self.sw) if not v.is_zero]


def profile(K: SimplicialComplex) -> CharClassProfile:
    return CharClassProfile(
        n=K.dimension,
        wu=wu_classes(K),
        sw=sw_classes(K),
        sw_numbers=sw_numbers(K),
        integral_sw_nonzero=integral_sw(K),
    )
