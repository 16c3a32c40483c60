import random

import pytest

from topinv import catalog
from topinv import complexes as cx


@pytest.fixture(scope="session")
def fixtures():
    """Named closed-manifold fixtures, shared across the whole run."""
    return catalog.manifold_fixtures()


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def mapping_torus():
    """The mapping torus of a simplicial automorphism phi of K, given by
    its vertex map: K x [0, 3] with K x 3 glued to K x 0 through phi."""
    def build(K, phi):
        # three layers of K, a staircase prism on each simplex between layers
        at = {v: i for i, v in enumerate(K.vertices)}

        def label(v, layer):
            return at[v] + len(at) * layer if layer < 3 else at[phi[v]]
        return cx.SimplicialComplex(
            tuple(label(v, layer) for v in s[:j + 1])
            + tuple(label(v, layer + 1) for v in s[j:])
            for s in K.maximal_simplices for layer in range(3)
            for j in range(len(s)))
    return build


@pytest.fixture()
def pinned_calls(monkeypatch):
    """The degrees passed to SimplicialComplex.cohomology_z, the pinned
    H^k(K; Z) elimination, while the test runs; nothing keeps its basis, so
    a call is seen here and nowhere else."""
    calls = []
    cohomology_z = cx.SimplicialComplex.cohomology_z

    def recording(K, k):
        calls.append(k)
        return cohomology_z(K, k)

    monkeypatch.setattr(cx.SimplicialComplex, "cohomology_z", recording)
    return calls
