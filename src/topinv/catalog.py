"""Reference triangulations and Gram matrices used by tests and scripts.

The complexes here are small classical manifolds with independently known
invariants.  The 9-vertex projective plane here is the complex found by a
search over unions of orbits of an order-27 group acting on the vertices;
it is verified in the test suite to be a closed combinatorial 4-manifold
with the homology, duality, and signature of the complex projective
plane (such a 9-vertex triangulation is unique).
"""

from __future__ import annotations

import functools
import itertools
import random

from .complexes import SimplicialComplex, product_complex


@functools.lru_cache(maxsize=None)
def sphere(n: int) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex."""
    return SimplicialComplex(itertools.combinations(range(n + 2), n + 1))


@functools.lru_cache(maxsize=None)
def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    return SimplicialComplex([
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)])


@functools.lru_cache(maxsize=None)
def torus() -> SimplicialComplex:
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    return SimplicialComplex((i, (i + a) % 7, (i + 3) % 7)
                             for a in (1, 2) for i in range(7))


@functools.lru_cache(maxsize=None)
def klein_bottle() -> SimplicialComplex:
    """A 9-vertex Klein bottle: a 3x3 torus grid glued with a column flip."""
    def v(i, j):
        return 3 * (i % 3) + (j % 3)

    tris = []
    for i in range(3):
        for j in range(3):
            if i < 2:
                a, b = v(i, j), v(i, j + 1)
                c, d = v(i + 1, j), v(i + 1, j + 1)
            else:
                a, b = v(2, j), v(2, j + 1)
                c, d = v(0, (3 - j) % 3), v(0, (2 - j) % 3)
            tris += [(a, b, d), (a, c, d)]
    return SimplicialComplex(tris)


CP2_FACETS = (
    (1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 5, 6), (1, 2, 4, 5, 7),
    (1, 2, 4, 6, 8), (1, 2, 4, 7, 8), (1, 2, 5, 6, 9), (1, 2, 5, 7, 9),
    (1, 2, 6, 8, 9), (1, 2, 7, 8, 9), (1, 3, 4, 5, 8), (1, 3, 4, 6, 9),
    (1, 3, 4, 8, 9), (1, 3, 5, 6, 7), (1, 3, 5, 7, 8), (1, 3, 6, 7, 9),
    (1, 3, 7, 8, 9), (1, 4, 5, 7, 8), (1, 4, 6, 8, 9), (1, 5, 6, 7, 9),
    (2, 3, 4, 5, 9), (2, 3, 4, 6, 7), (2, 3, 4, 7, 9), (2, 3, 5, 6, 8),
    (2, 3, 5, 8, 9), (2, 3, 6, 7, 8), (2, 3, 7, 8, 9), (2, 4, 5, 7, 9),
    (2, 4, 6, 7, 8), (2, 5, 6, 8, 9), (3, 4, 5, 8, 9), (3, 4, 6, 7, 9),
    (3, 5, 6, 7, 8), (4, 5, 6, 7, 8), (4, 5, 6, 7, 9), (4, 5, 6, 8, 9))


@functools.lru_cache(maxsize=None)
def complex_projective_plane() -> SimplicialComplex:
    """The 9-vertex triangulation of the complex projective plane."""
    return SimplicialComplex(CP2_FACETS)


@functools.lru_cache(maxsize=None)
def s2xs2() -> SimplicialComplex:
    """Staircase product triangulation of two 2-spheres (16 vertices)."""
    return product_complex(sphere(2), sphere(2))


def manifold_fixtures() -> dict[str, SimplicialComplex]:
    """The named closed-manifold fixtures exercised by the test suite."""
    return {
        "S2": sphere(2),
        "S4": sphere(4),
        "S5": sphere(5),
        "RP2": projective_plane(),
        "T2": torus(),
        "K2": klein_bottle(),
        "CP2": complex_projective_plane(),
        "S2xS2": s2xs2(),
    }


def random_complex(rng: random.Random, max_vertices: int = 8) -> SimplicialComplex:
    """A small random face-closed complex (closure of random simplices).

    Sizes are biased toward edges and triangles so the results usually
    carry nontrivial H^1 and H^2, not just a component count.
    """
    nv = rng.randint(4, max_vertices)
    return SimplicialComplex(
        rng.sample(range(nv), min(rng.choice((2, 2, 3, 3, 3, 4)), nv))
        for _ in range(rng.randint(6, 14)))


# ---- reference Gram matrices ----

def identity_gram(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def e8_gram() -> list[list[int]]:
    """The E8 Cartan matrix: even, unimodular, signature 8."""
    a = [[0] * 8 for _ in range(8)]
    for i in range(8):
        a[i][i] = 2
    for i in range(6):
        a[i][i + 1] = a[i + 1][i] = -1
    a[4][7] = a[7][4] = -1
    return a


def hyperbolic_gram() -> list[list[int]]:
    return [[0, 1], [1, 0]]
