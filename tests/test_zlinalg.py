"""The sparse integral elimination against the dense one it replaced.

Consumers read the cocycle basis off V, so the intersection gram (and the
goldens) depend on the exact pivot sequence, not only on the diagonal:
every field must equal the dense elimination's, element for element.
"""

import random

from topinv import catalog, zlinalg
from topinv import complexes as cx


def reference_diagonalize(a, ncols=None):
    """The dense elimination zlinalg.diagonalize replaced, as the oracle:
    every transform dense, U^-1 always built."""
    m = len(a)
    n = len(a[0]) if m else (ncols or 0)

    def identity(size):
        return [[1 if i == j else 0 for j in range(size)] for i in range(size)]

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
    return zlinalg.Diagonalization(diag, rank, m, n, u, uinv, v, vinv)


def assert_matches_reference(a, ncols=None, uinv=False):
    got = zlinalg.diagonalize(a, ncols, uinv=uinv)
    want = reference_diagonalize(a, ncols)
    for field in ("diag", "rank", "m", "n", "u", "v", "vinv"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.uinv == (want.uinv if uinv else None)
    return got


def relabelings(K, rng, count):
    vs = list(K.vertices)
    for _ in range(count):
        perm = vs[:]
        rng.shuffle(perm)
        yield cx.relabel(K, dict(zip(vs, perm)))


def ladder_complexes():
    """Fresh copies of the fixtures (catalog caches its complexes, and with
    them their eliminations) plus seeded relabelings of CP2 and S2xS2,
    which change the order of the simplices and so every pivot."""
    fixtures = {name: cx.SimplicialComplex(K.maximal_simplices)
                for name, K in catalog.manifold_fixtures().items()}
    rng = random.Random(1905)
    return [*fixtures.values(),
            *relabelings(fixtures["CP2"], rng, 3),
            *relabelings(fixtures["S2xS2"], rng, 2)]


def random_matrix(rng):
    """Small integer matrices with non-unit entries (which force the
    remainder-and-swap path), often a zero row or column, sometimes no
    rows at all."""
    m, n = rng.randint(0, 9), rng.randint(0, 9)
    hi = rng.choice([1, 2, 5, 12])
    density = rng.random()
    a = [[rng.randint(-hi, hi) if rng.random() < density else 0
          for _ in range(n)] for _ in range(m)]
    if m and rng.random() < 0.3:
        a[rng.randrange(m)] = [0] * n
    if n and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in a:
            row[j] = 0
    return a, n


def test_matches_reference_on_fixture_coboundaries():
    for K in ladder_complexes():
        for k in range(K.dimension):
            assert_matches_reference(K.coboundary_z(k), K.n_simplices(k))


def test_matches_reference_on_t2xs2_coboundaries():
    K = cx.product_complex(catalog.torus(), catalog.sphere(2))
    for k in range(K.dimension):
        assert_matches_reference(K.coboundary_z(k), K.n_simplices(k))


def test_matches_reference_on_random_matrices():
    rng = random.Random(4242)
    non_unit = 0
    for _ in range(400):
        a, n = random_matrix(rng)
        dz = assert_matches_reference(a, n, uinv=True)
        non_unit += any(x > 1 for x in dz.diag)
    # the remainder path ran: a diagonal entry > 1 needs a non-unit pivot
    assert non_unit >= 50
    for a, n in [([], 0), ([], 5), ([[]] * 3, None), ([[0, 0], [0, 0]], None),
                 ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], None)]:
        assert_matches_reference(a, n, uinv=True)


def test_relation_matrix_uinv_matches_reference(monkeypatch):
    # ZCohomology.rep reads U^-1 of its relation matrix, the one
    # elimination that asks for it
    seen = []
    diagonalize = zlinalg.diagonalize

    def recording(a, ncols=None, **kwargs):
        if kwargs.get("uinv"):
            seen.append((a, ncols))
        return diagonalize(a, ncols, **kwargs)

    monkeypatch.setattr(zlinalg, "diagonalize", recording)
    for K in ladder_complexes():
        for k in range(K.dimension + 1):
            K.cohomology_z(k)
    monkeypatch.undo()
    torsion = 0
    for a, ncols in seen:
        dz = assert_matches_reference(a, ncols, uinv=True)
        torsion += any(x > 1 for x in dz.diag)
    # every degree of every complex; RP2 and K2 have torsion in degree 2
    assert len(seen) == 58 and torsion == 2


def test_coboundary_factors_skip_uinv(fixtures):
    assert all(fixtures["CP2"].coboundary_factor(k).uinv is None
               for k in range(4))


def test_matvec_matches_dense_product():
    rng = random.Random(77)
    for _ in range(100):
        a, n = random_matrix(rng)
        x = [rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(n)]
        assert zlinalg.matvec(a, x) == [
            sum(p * q for p, q in zip(row, x)) for row in a]
