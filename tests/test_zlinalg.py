"""The sparse integral elimination against the dense one it replaced.

Consumers read the cocycle basis off V, so the intersection gram (and the
goldens) depend on the exact pivot sequence, not only on the diagonal:
the diagonal and every transform replayed from the logs must equal the
dense elimination's, element for element.  The program never builds a
transform, so the tests build each one here by replaying the logs once
over the rows of the identity.  The unit-pivot front end, which takes
its pivots in a free order, is checked against the pinned elimination on
rank, invariant factors and solvability.
"""

import math
import random
from types import SimpleNamespace

import sympy

from topinv import catalog, zlinalg
from topinv import complexes as cx


def sparse(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def dense(rows, size):
    out = [[0] * size for _ in rows]
    for row, r in zip(rows, out):
        for j, x in row.items():
            r[j] = x
    return out


def transpose(a):
    return [list(c) for c in zip(*a)]


class Row(dict):
    """A sparse row vector with the arithmetic _replay_vector applies to
    the entries of its vector: += of a row, an int times a row, -row."""

    def __iadd__(self, other):
        zlinalg._axpy(self, other, 1)
        return self

    def __rmul__(self, q):
        return Row({c: q * x for c, x in self.items()})

    def __neg__(self):
        return Row({c: -x for c, x in self.items()})


def replayed(steps, size, **mode):
    """The dense size x size matrix whose column j is _replay_vector run,
    in the given mode, over steps (in the order given) on e_j.

    The replay is linear, so one pass over the rows of the identity, as
    the entries of one vector, gives every column at once: entry i ends as
    row i of the matrix."""
    rows = zlinalg._replay_vector(steps, [Row({i: 1}) for i in range(size)],
                                  **mode)
    return dense(rows, size)


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
    return SimpleNamespace(diag=diag, rank=rank, m=m, n=n, u=u, uinv=uinv,
                           v=v, vinv=vinv)


def assert_matches_reference(rows, ncols):
    """diagonalize(rows, ncols) against the dense oracle, with every
    transform made dense here through the replay mode the program uses
    for it: U forward, V backward and transposed, V^-1 forward, transposed
    and inverted, U^-1 backward and inverted.  V^-1 is also built by
    _vinv_rows on the rows of the identity."""
    got = zlinalg.diagonalize(rows, ncols)
    want = reference_diagonalize(dense(rows, ncols), ncols)
    for field in ("diag", "rank", "m", "n"):
        assert getattr(got, field) == getattr(want, field), field
    m, n = got.m, got.n
    assert replayed(got.row_log, m) == want.u, "u"
    assert replayed(got.col_log[::-1], n, transpose=True) == want.v, "v"
    assert replayed(got.col_log, n, transpose=True,
                    inverse=True) == want.vinv, "vinv"
    assert replayed(got.row_log[::-1], m, inverse=True) == want.uinv, "uinv"
    # the sparse-row replay that builds kernel_quotient's relation matrix
    identity = [{i: 1} for i in range(n)]
    assert dense(zlinalg._vinv_rows(got.col_log, identity), n) == want.vinv
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


def test_coboundary_rows_are_boundary_columns():
    for K in ladder_complexes():
        for k in range(-1, K.dimension + 1):
            b = K.boundary_z(k + 1)
            assert dense(K.coboundary_z(k), K.n_simplices(k)) == (
                transpose(b) if b else [[]] * K.n_simplices(k + 1))


def test_matches_reference_on_t2xs2_coboundaries():
    K = cx.product_complex(catalog.torus(), catalog.sphere(2))
    for k in range(K.dimension):
        assert_matches_reference(K.coboundary_z(k), K.n_simplices(k))


def random_matrices():
    """The 400 seeded random matrices, as (dense rows, column count)."""
    rng = random.Random(4242)
    return [random_matrix(rng) for _ in range(400)]


EDGE_CASES = [([], 0), ([], 5), ([[]] * 3, 0), ([[0, 0], [0, 0]], 2),
              ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 3)]


def test_matches_reference_on_random_matrices():
    non_unit = 0
    for a, n in random_matrices():
        dz = assert_matches_reference(sparse(a), n)
        non_unit += any(x > 1 for x in dz.diag)
    # the remainder path ran: a diagonal entry > 1 needs a non-unit pivot
    assert non_unit >= 50
    for a, n in EDGE_CASES:
        assert_matches_reference(sparse(a), n)


def reference_solve(ref, b):
    """x = V y with D y = U b, all dense, or None."""
    ub = [sum(p * q for p, q in zip(row, b)) for row in ref.u]
    y = [0] * ref.n
    for i, x in enumerate(ub):
        di = ref.diag[i] if i < len(ref.diag) else 0
        if (x % di if di else x) != 0:
            return None
        if di:
            y[i] = x // di
    return [sum(p * q for p, q in zip(row, y)) for row in ref.v]


def test_solve_matches_dense_oracle():
    rng = random.Random(1729)
    unsolvable = 0
    for a, n in random_matrices() + EDGE_CASES:
        dz = zlinalg.diagonalize(sparse(a), n)
        ref = reference_diagonalize(a, n)
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        inside = [sum(p * q for p, q in zip(row, x0)) for row in a]
        outside = [rng.randint(-6, 6) for _ in a]
        for b in (inside, outside):
            x = zlinalg.solve(dz, b)
            assert x == reference_solve(ref, b)
            if x is not None:
                assert [sum(p * q for p, q in zip(row, x)) for row in a] == b
        # every b in the image round-trips
        assert zlinalg.solve(dz, inside) is not None
        unsolvable += zlinalg.solve(dz, outside) is None
    # the rejecting branches ran too
    assert unsolvable >= 100


def test_relation_matrix_uinv_matches_reference(monkeypatch):
    # cohomology_z's relation matrix is V^-1[rank:] delta_(k-1), replayed
    # from delta_k's column log on the rows of delta_(k-1); kernel_quotient
    # replays its row log as U^-1 on the free generators, and the dense
    # transforms are built here and nowhere else
    complexes = ladder_complexes()
    seen = []
    diagonalize = zlinalg.diagonalize

    def recording(a, ncols):
        seen.append((a, ncols))
        return diagonalize(a, ncols)

    # each H^k diagonalizes delta_k, pinned, then its relation matrix
    monkeypatch.setattr(zlinalg, "diagonalize", recording)
    degrees = []
    for K in complexes:
        for k in range(K.dimension + 1):
            K.cohomology_z(k)
            degrees.append((K, k))
    monkeypatch.undo()
    assert len(seen) == 2 * len(degrees)
    assert all(a is K.coboundary_z(k) and ncols == K.n_simplices(k)
               for (a, ncols), (K, k) in zip(seen[::2], degrees))
    torsion = 0
    for (a, ncols), (K, k) in zip(seen[1::2], degrees):
        nk = K.n_simplices(k)
        ref = reference_diagonalize(dense(K.coboundary_z(k), nk), nk)
        delta = dense(K.coboundary_z(k - 1), ncols)
        want = [[sum(p * q for p, q in zip(row, col)) for col in zip(*delta)]
                for row in ref.vinv[ref.rank:]]
        assert dense(a, ncols) == want
        dz = assert_matches_reference(a, ncols)
        torsion += any(x > 1 for x in dz.diag)
    # every degree of every complex; RP2 and K2 have torsion in degree 2
    assert len(degrees) == 58 and torsion == 2


def test_kernel_basis_is_v_past_the_rank():
    for a, n in random_matrices() + EDGE_CASES:
        dz = zlinalg.diagonalize(sparse(a), n)
        ref = reference_diagonalize(a, n)
        ker = zlinalg.kernel_basis(dz)
        assert all(all(x.values()) for x in ker)
        assert dense(ker, n) == transpose(ref.v)[ref.rank:]
        for x in dense(ker, n):
            assert zlinalg.matvec(sparse(a), x) == [0] * len(a)


def test_matvec_matches_dense_product():
    rng = random.Random(77)
    for _ in range(100):
        a, n = random_matrix(rng)
        x = [rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(n)]
        assert zlinalg.matvec(sparse(a), x) == [
            sum(p * q for p, q in zip(row, x)) for row in a]


def assert_units_match_pinned(rows, ncols, bs):
    """eliminate_units, then diagonalize of the rest, against the pinned
    diagonalize of the whole: rank, invariant factors and, for each b,
    whether A x = b has an integral solution.  Returns the rest."""
    pinned = zlinalg.diagonalize(rows, ncols)
    pivots, rest, _ = zlinalg.eliminate_units(rows, ncols)
    units = len(pivots)
    assert all(abs(x) > 1 for row in rest for x in row.values())
    # the triangular shape that back-substitution reads: each pivot row
    # holds +-1 at its column and no earlier pivot's column, and the rest
    # meets no pivot column
    for t, (j, row) in enumerate(pivots):
        assert row[j] in (1, -1)
        assert not any(c in row for c, _ in pivots[:t])
    assert not any(c in row for c, _ in pivots for row in rest)
    dz = zlinalg.diagonalize(rest, ncols)
    assert units + dz.rank == pinned.rank
    assert [1] * units + zlinalg.invariant_factors(dz.diag) == \
        zlinalg.invariant_factors(pinned.diag)
    for b in bs:
        pivots_b, rows_b, rest_b = zlinalg.eliminate_units(rows, ncols, b)
        # b changes no pivot; it keeps only the empty rows where it is not 0
        assert pivots_b == pivots and [row for row in rows_b if row] == rest
        assert all(x for row, x in zip(rows_b, rest_b) if not row)
        got = zlinalg.solve(zlinalg.diagonalize(rows_b, ncols), rest_b)
        assert (got is None) == (zlinalg.solve(pinned, b) is None)
    return rest


def test_unit_front_end_matches_pinned_on_random_matrices():
    rng = random.Random(1730)
    left = unsolvable = 0
    for a, n in random_matrices() + EDGE_CASES:
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        inside = [sum(p * q for p, q in zip(row, x0)) for row in a]
        outside = [rng.randint(-6, 6) for _ in a]
        left += bool(assert_units_match_pinned(sparse(a), n,
                                               [inside, outside]))
        unsolvable += zlinalg.solve(zlinalg.diagonalize(sparse(a), n),
                                    outside) is None
    # diagonalize had non-unit entries left to eliminate, and the
    # rejecting branches ran
    assert left >= 50 and unsolvable >= 100


def wang_homology(j):
    """(betti, torsion) of H_0..H_3 of the mapping torus of the 7-vertex
    torus under x -> 3^j x mod 7, from the Wang sequence: H_1 = Z +
    coker(A - I), H_2 = Z + ker(A - I), for A the map on H_1(T2), of
    determinant 1.  x -> 3x is the rotation R by 60 degrees of the
    triangular lattice Z^2 labelled e1 -> 1, e2 -> 3; H_1(T2) is the
    sublattice labelled 0, an ideal of the principal ideal domain Z[R], so
    A is R^j up to integral conjugacy."""
    (p, q), (r, t) = (1, 0), (0, 1)
    for _ in range(j):  # left-multiply by R = [[0, -1], [1, 1]]
        (p, q), (r, t) = (-r, -t), (p + r, q + t)
    p, t = p - 1, t - 1  # A - I
    det = p * t - q * r
    assert det  # no fixed class, so ker(A - I) = 0
    d = math.gcd(p, q, r, t)  # its invariant factors are d, |det| / d
    return [(1, ()), (1, tuple(f for f in (d, abs(det) // d) if f > 1)),
            (1, ()), (1, ())]


def test_unit_front_end_matches_pinned_on_coboundaries(mapping_torus):
    rng = random.Random(1731)
    S, RP2 = catalog.sphere, catalog.projective_plane
    rp2_products = [cx.product_complex(RP2(), S(1)),
                    cx.product_complex(RP2(), RP2()),
                    cx.product_complex(RP2(), catalog.klein_bottle())]
    # mapping tori of the torus under x -> a x = 3^j x mod 7: H_1 holds
    # Z/3 for a = 2 and (Z/2)^2 for a = 6
    tori = {j: mapping_torus(catalog.torus(),
                             {v: 3 ** j * v % 7 for v in range(7)})
            for j in (1, 2, 3)}
    complexes = [*ladder_complexes(),
                 *(catalog.random_complex(rng) for _ in range(50)),
                 *rp2_products, *tori.values()]
    left = unsolvable = 0
    for K in complexes:
        for k in range(K.dimension):
            nk, delta = K.n_simplices(k), K.coboundary_z(k)
            inside = zlinalg.matvec(delta, [rng.randint(-2, 2)
                                            for _ in range(nk)])
            outside = [rng.randint(-2, 2) for _ in delta]
            left += bool(assert_units_match_pinned(delta, nk,
                                                   [inside, outside]))
            unsolvable += zlinalg.solve(zlinalg.diagonalize(delta, nk),
                                        outside) is None
    # the 2-torsion of RP2, K2 and the RP2 products is left for diagonalize
    assert left >= 10 and unsolvable >= 100
    for j, K in tori.items():
        assert [K.n_simplices(k) for k in range(4)] == [21, 147, 252, 126]
        assert [(h.betti, h.torsion) for h in cx.homology(K, "Z")] == \
            wang_homology(j), j


def test_det_matches_sympy():
    # det reads diagonalize's D and its logs' swaps and negations; sympy's
    # determinant is a route apart from both
    rng = random.Random(2668)
    singular = 0
    for t in range(600):
        n = t % 8
        r = 4 if t % 3 else 40
        a = [[rng.randint(-r, r) for _ in range(n)] for _ in range(n)]
        if n >= 2 and t % 5 == 1:
            i, j = rng.sample(range(n), 2)
            a[i] = list(a[j])  # a repeated row
        if n >= 1 and t % 5 == 2:
            j = rng.randrange(n)
            for row in a:
                row[j] = 0  # a zero column
        want = sympy.Matrix(n, n, [x for row in a for x in row]).det()
        assert zlinalg.det(a) == want, a
        singular += want == 0
    assert singular >= 150


def test_eliminate_units_skip_drops_those_rows_first():
    # skipping rows is eliminating the others: the same pivots, rest and
    # rest_b, with and without b
    rng = random.Random(3235)
    for a, n in random_matrices() + EDGE_CASES:
        rows = sparse(a)
        skip = {i for i in range(len(rows)) if rng.random() < 0.3}
        kept = [i for i in range(len(rows)) if i not in skip]
        b = [rng.randint(-3, 3) for _ in rows]
        assert zlinalg.eliminate_units(rows, n, skip=skip) == \
            zlinalg.eliminate_units([rows[i] for i in kept], n)
        assert zlinalg.eliminate_units(rows, n, b, skip) == \
            zlinalg.eliminate_units([rows[i] for i in kept], n,
                                    [b[i] for i in kept])
