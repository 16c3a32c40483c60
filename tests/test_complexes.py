import ast
import collections
import gc
import itertools
import random
import re
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topinv import catalog, charclasses, cli, f2linalg, intersection, zlinalg
from topinv import complexes as cx


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def euler_characteristic(K):
    return sum((-1) ** k * K.n_simplices(k) for k in range(K.dimension + 1))


def coboundary_apply_f2(K, k, x):
    """delta(x) for an F2 k-cochain mask: the xor of the columns at its bits."""
    out = 0
    for j, col in enumerate(K.coboundary_f2(k)):
        if (x >> j) & 1:
            out ^= col
    return out


def test_parse_roundtrip():
    K = catalog.projective_plane()
    text = cx.complex_text(K)
    K2 = cx.parse_complex(text)
    assert K2.maximal_simplices == K.maximal_simplices


def test_parse_comments_and_blank_lines():
    K = cx.parse_complex("# a triangle\n2\n\n0 1 2  # the only simplex\n")
    assert K.dimension == 2
    assert K.maximal_simplices == ((0, 1, 2),)


# separators that str.split or str.splitlines break at but the formats
# do not: the ASCII file, group, record and unit separators, NEL, NBSP,
# the ideographic space and the Unicode line and paragraph separators
FOREIGN_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
                      "\u3000", "\u2028", "\u2029")


def test_parse_ascii_separators():
    want = catalog.sphere(2).maximal_simplices
    text = "2\r\n0\t1  2\v\f0 1 3 \r0 2\t 3\n\n 1 2 3\t# last\n"
    assert cx.parse_complex(text).maximal_simplices == want


def test_parse_rejects_foreign_separators():
    for text in ("2\x1c0 1 2", "2\n0\u30001 2"):
        with pytest.raises(cx.ParseError, match="malformed"):
            cx.parse_complex(text)
    for sep in FOREIGN_SEPARATORS:
        for text in (f"2\n0 1 2{sep}0 1 3", f"2\n0 1{sep}2",
                     f"2{sep}\n0 1 2", f"2\n{sep}0 1 2"):
            with pytest.raises(cx.ParseError, match="malformed"):
                cx.parse_complex(text)
        # a comment runs to the end of the line, whatever it holds
        K = cx.parse_complex(f"2 # {sep} 7\n0 1 2 #{sep}\n")
        assert K.maximal_simplices == ((0, 1, 2),)


def test_parse_errors():
    with pytest.raises(cx.ParseError):
        cx.parse_complex("")
    with pytest.raises(cx.ParseError, match="dimension hint"):
        cx.parse_complex("0 1 2\n0 1 3\n")
    with pytest.raises(cx.ParseError, match="malformed simplex"):
        cx.parse_complex("2\n0 1 x\n")
    with pytest.raises(cx.ParseError, match="duplicate vertex"):
        cx.parse_complex("2\n0 1 1\n")
    with pytest.raises(cx.ParseError, match="no simplices"):
        cx.parse_complex("2\n")


def test_maximal_face_normalization():
    K = cx.SimplicialComplex([(0, 1, 2), (0, 1), (3, 4), (2, 1, 0)])
    assert K.maximal_simplices == ((0, 1, 2), (3, 4))
    assert K.dimension == 2
    # duplicate facets, and faces of every size listed before their coface
    K = cx.SimplicialComplex([(5,), (3, 4), (4, 3), (1, 2), (2,), (7, 6),
                              (0, 1, 2, 3), (3, 2, 1, 0), (6, 7), (4, 5)])
    assert K.maximal_simplices == ((0, 1, 2, 3), (3, 4), (4, 5), (6, 7))
    assert K.vertices == tuple(range(8))
    assert K.dimension == 3
    # the first bad simplex in list order names the error
    with pytest.raises(cx.ParseError, match="duplicate vertex"):
        cx.SimplicialComplex([(0, 1, 2), (3, 3), ()])
    with pytest.raises(cx.ParseError, match="empty simplex"):
        cx.SimplicialComplex([(0, 1, 2), (), (3, 3)])


def test_simplices_match_enumeration(fixtures, rng):
    """Every k-simplex list, the top one read off the facets included,
    equals the sorted faces of all maximal simplices."""
    complexes = list(fixtures.values()) + [
        cx.SimplicialComplex([(0, 1, 2), (2, 3), (4,), (1, 2, 5)])]
    complexes += [catalog.random_complex(rng) for _ in range(30)]
    for K in complexes:
        for k in range(-1, K.dimension + 2):
            want = sorted({f for s in K.maximal_simplices
                           for f in itertools.combinations(s, k + 1)}
                          if 0 <= k else ())
            assert K.simplices(k) == tuple(want), (K.maximal_simplices, k)


def test_boundary_squared_zero(fixtures):
    for K in fixtures.values():
        for k in range(1, K.dimension + 1):
            prod = matmul(K.boundary_z(k), K.boundary_z(k + 1))
            assert all(all(x == 0 for x in row) for row in prod)
            for col in K.coboundary_f2(k - 1):
                assert coboundary_apply_f2(K, k, col) == 0


HOMOLOGY_ORACLES = {
    "S2": [(1, ()), (0, ()), (1, ())],
    "S4": [(1, ()), (0, ()), (0, ()), (0, ()), (1, ())],
    "S5": [(1, ()), (0, ()), (0, ()), (0, ()), (0, ()), (1, ())],
    "RP2": [(1, ()), (0, (2,)), (0, ())],
    "T2": [(1, ()), (2, ()), (1, ())],
    "K2": [(1, ()), (1, (2,)), (0, ())],
    "CP2": [(1, ()), (0, ()), (1, ()), (0, ()), (1, ())],
    "S2xS2": [(1, ()), (0, ()), (2, ()), (0, ()), (1, ())],
}


def test_integral_homology_oracles(fixtures):
    for name, K in fixtures.items():
        got = [(h.betti, h.torsion) for h in cx.homology(K, "Z")]
        assert got == HOMOLOGY_ORACLES[name], name
    # exactly the two rings the CLI offers, spelled as it spells them
    K = fixtures["S2"]
    for ring in ("GF2", "Z/2", "f2", "z", " Z", "Q"):
        with pytest.raises(ValueError, match=f"unknown ring: {ring!r}"):
            cx.homology(K, ring)


def _homology_by_boundaries(K):
    """Integral homology read off a diagonalization of each boundary_z."""
    n = K.dimension
    dzs = {k: zlinalg.diagonalize(
        [{j: x for j, x in enumerate(row) if x} for row in K.boundary_z(k)],
        K.n_simplices(k)) for k in range(1, n + 1)}
    out = []
    for k in range(n + 1):
        rk = dzs[k].rank if k >= 1 else 0
        rk_up = dzs[k + 1].rank if k < n else 0
        torsion = () if k == n else tuple(
            f for f in zlinalg.invariant_factors(dzs[k + 1].diag) if f > 1)
        out.append(cx.HomologySummary(k, K.n_simplices(k) - rk - rk_up,
                                      torsion))
    return out


def test_homology_from_coboundary_factors_matches_boundaries(fixtures):
    rng = random.Random(314)
    complexes = list(fixtures.values())
    complexes += [catalog.random_complex(rng) for _ in range(50)]
    for K in complexes:
        assert cx.homology(K, "Z") == _homology_by_boundaries(K)


def _homology_uncleared(K):
    """Integral homology by the per-degree loop that drops no rows: the
    units of each whole delta_k, then diagonalize on what they leave."""
    n = K.dimension
    ranks, torsion = [0] * (n + 2), [()] * (n + 1)
    for k in range(n):
        pivots, rest, _ = zlinalg.eliminate_units(K.coboundary_z(k),
                                                  K.n_simplices(k))
        dz = zlinalg.diagonalize(rest, K.n_simplices(k))
        ranks[k + 1] = len(pivots) + dz.rank
        torsion[k] = tuple(
            f for f in zlinalg.invariant_factors(dz.diag) if f > 1)
    return [cx.HomologySummary(k, K.n_simplices(k) - ranks[k] - ranks[k + 1],
                               torsion[k]) for k in range(n + 1)]


def test_homology_clearing_matches_uncleared_loop(fixtures, monkeypatch):
    # homology runs top down and drops from delta_k the rows of delta_(k+1)'s
    # unit-pivot columns; the loop that keeps every row is the oracle, and
    # the recorded calls show that the rows really are dropped
    calls = []
    eliminate_units = zlinalg.eliminate_units

    def recording(a, ncols, b=None):
        out = eliminate_units(a, ncols, b)
        calls.append((len(a), ncols, len(out[0])))
        return out

    rng = random.Random(1919)
    P, KB, T = catalog.projective_plane(), catalog.klein_bottle(), catalog.torus()
    complexes = list(fixtures.items()) + [
        ("RP2xRP2", cx.product_complex(P, P)),
        ("K2xT2", cx.product_complex(KB, T))]
    dropped = 0
    for name, K in complexes:
        for t in range(3):
            image = rng.sample(range(2 * len(K.vertices)), len(K.vertices))
            L = cx.relabel(K, dict(zip(K.vertices, image)))
            want = _homology_uncleared(L)
            monkeypatch.setattr(zlinalg, "eliminate_units", recording)
            calls.clear()
            got = cx.homology(L, "Z")
            monkeypatch.setattr(zlinalg, "eliminate_units", eliminate_units)
            assert got == want, (name, t)
            n = L.dimension
            # one call per degree, k = n-1 first: delta_k keeps the
            # (k+1)-simplices that were no unit pivot of delta_(k+1)
            assert [ncols for _, ncols, _ in calls] == [
                L.n_simplices(k) for k in reversed(range(n))], name
            for (rows, _, _), (_, _, above), k in zip(
                    calls, [(0, 0, 0)] + calls, reversed(range(n))):
                assert rows == L.n_simplices(k + 1) - above, (name, k)
                dropped += above
    assert [h.torsion for h in cx.homology(complexes[-2][1], "Z")] == \
        [(), (2, 2), (2,), (2,), ()]
    assert dropped


def _lattice_rank_and_torsion(rows, ncols):
    """Rank of the integer row lattice, and the torsion of Z^ncols over
    it: its invariant factors > 1."""
    pivots, rest, _ = zlinalg.eliminate_units(rows, ncols)
    dz = zlinalg.diagonalize(rest, ncols)
    return len(pivots) + dz.rank, [
        f for f in zlinalg.invariant_factors(dz.diag) if f > 1]


def _coboundary_columns(K, k):
    """The columns of delta_(k-1), the coboundaries of the (k-1)-simplices,
    as sparse rows over the k-simplices."""
    image = [{} for _ in range(K.n_simplices(k - 1))]
    for i, row in enumerate(K.coboundary_z(k - 1)):
        for j, x in row.items():
            image[j][i] = x
    return image


def test_free_cocycles_span_the_free_part(fixtures):
    # an oracle for both bases of H^k/torsion, the pinned cohomology_z and
    # the unit-first free_cocycles, that reads neither's elimination: each
    # vector is a cocycle, there are b_k of them, and im delta_(k-1) plus
    # the basis is a lattice of rank nullity(delta_k) whose quotient
    # torsion is exactly H_(k-1)'s, which is the torsion of H^k; so the
    # basis spans ker delta_k modulo the coboundaries and the torsion, and
    # no multiple of a class slips in
    rng = random.Random(1717)
    P, S1, S2, KB = (catalog.projective_plane(), catalog.sphere(1),
                     catalog.sphere(2), catalog.klein_bottle())
    complexes = list(fixtures.items())
    complexes += [(name, cx.product_complex(A, B)) for name, A, B in (
        ("RP2xS1", P, S1), ("RP2xS2", P, S2), ("K2xS1", KB, S1),
        ("RP2xRP2", P, P))]
    complexes += [(f"random {i}", catalog.random_complex(rng))
                  for i in range(50)]
    for name, K in complexes:
        hom = cx.homology(K, "Z")
        for k in range(1, K.dimension + 1):
            nk = K.n_simplices(k)
            for basis in (K.cohomology_z(k), K.free_cocycles(k)):
                for x in basis:
                    assert not any(zlinalg.matvec(K.coboundary_z(k), x)), \
                        (name, k)
                assert len(basis) == hom[k].betti, (name, k)
                rows = _coboundary_columns(K, k) + [
                    {i: v for i, v in enumerate(x) if v} for x in basis]
                rank, torsion = _lattice_rank_and_torsion(rows, nk)
                assert rank == nk - _lattice_rank_and_torsion(
                    K.coboundary_z(k), nk)[0], (name, k)
                assert torsion == list(hom[k - 1].torsion), (name, k)


def test_panel_eliminates_each_coboundary_once(monkeypatch):
    seen = []
    diagonalize = zlinalg.diagonalize

    def recording(a, ncols):
        seen.append((a, ncols))
        return diagonalize(a, ncols)

    monkeypatch.setattr(zlinalg, "diagonalize", recording)

    def coboundaries(K):
        return [a for a, _ in seen
                if any(a is K.coboundary_z(k) for k in range(-1, K.dimension))]

    # fresh complexes, so nothing is cached from other tests
    for facets in (catalog.complex_projective_plane().maximal_simplices,
                   cx.product_complex(catalog.sphere(2), catalog.sphere(2))
                   .maximal_simplices):
        b2 = cx.homology(cx.SimplicialComplex(facets), "Z")[2].betti
        K = cx.SimplicialComplex(facets)
        seen.clear()
        spin = intersection.panel(K).spin
        n = K.dimension
        # the panel's form is built on free_cocycles, so no coboundary
        # reaches the pinned elimination and no H^k(K; Z) is built; the
        # fundamental class comes from the facet walk
        assert not coboundaries(K)
        assert not [key for key in K._cache if key[0] == "hz"]
        # no boundary matrix; a matrix is its rows and its column count,
        # since the Bockstein's rest of delta_2 on CP2 is 0 x 84 and
        # boundary_0 is 0 x 9
        for a, ncols in seen:
            assert all((a, ncols) != ([{j: x for j, x in enumerate(row) if x}
                                       for row in K.boundary_z(k)],
                                      K.n_simplices(k))
                       for k in range(n + 1))
        # what is diagonalized: every pivot here is a unit, so only empty
        # rests are: delta_2's, over the b_2 columns that neither its units
        # nor those of im delta_1 took; the relation matrix, a row per such
        # column and a column per relation left in the image (none); and
        # unless w_2 = 0, the rows of delta_2 that eliminate_units left for
        # its Bockstein, over every 2-simplex
        assert [(len(a), ncols) for a, ncols in seen] == (
            [(0, b2), (b2, 0)] + [(0, K.n_simplices(2))] * (not spin))
        # the intersection verb prints the pinned gram: it passes delta_2
        # to the pinned elimination exactly once, for H^2, and builds no
        # unit-first form
        L = cx.SimplicialComplex(facets)
        monkeypatch.setattr("topinv.cli._load", lambda name, path: L)
        seen.clear()
        assert cli.main(["intersection", "-"]) == 0
        assert len(coboundaries(L)) == 1
        assert coboundaries(L)[0] is L.coboundary_z(2)
        assert ("pform",) not in L._cache
        # integral homology reads no basis, so it builds no H^k(K; Z)
        L = cx.SimplicialComplex(facets)
        cx.homology(L, "Z")
        assert not [key for key in L._cache if key[0] == "hz"]


def _f2_oracle_complexes(fixtures):
    yield from fixtures.items()
    rng = random.Random(909)
    P, S, KB, T = (catalog.projective_plane(), catalog.sphere(3),
                   catalog.klein_bottle(), catalog.torus())
    for name, A, B in (("RP2xRP2", P, P), ("RP2xS3", P, S),
                       ("RP2xK2", P, KB), ("K2xT2", KB, T)):
        K = cx.product_complex(A, B)
        image = rng.sample(range(2 * len(K.vertices)), len(K.vertices))
        yield f"{name}~", cx.relabel(K, dict(zip(K.vertices, image)))


def _coboundary_f2_by_slices(K, k):
    """Columns of delta_k from each (k+1)-simplex's faces, sliced out and
    looked up in the simplex index."""
    cols = [0] * K.n_simplices(k)
    idx = K.simplex_index(k)
    for t, s in enumerate(K.simplices(k + 1)):
        for i in range(k + 2):
            cols[idx[s[:i] + s[i + 1:]]] ^= 1 << t
    return cols


def _f2_cohomology_by_two_eliminations(K, k):
    """H^k(K; F2) with no column cleared: an image echelon of delta_(k-1)
    built apart from delta_k, the full kernel_basis(delta_k), and a residue
    for every kernel vector.  Returns the basis, the echelon that gives
    coords, the image rows of delta_k, and the leading bits of the kernel
    vectors whose residue is zero."""
    ech = f2linalg.Echelon()
    for c in K.coboundary_f2(k - 1):
        ech.insert(c)
    ker, image_rows = f2linalg.kernel_basis(K.coboundary_f2(k))
    basis, zero = [], set()
    for z in ker:
        res, _ = ech.residue(z)
        if res:
            ech.insert(res, 1 << len(basis))
            basis.append(res)
        else:
            zero.add(z.bit_length() - 1)
    return basis, ech, image_rows, zero


def test_coboundary_f2_matches_slices(fixtures):
    for name, K in _f2_oracle_complexes(fixtures):
        assert K.coboundary_f2(-1) == []
        for k in range(K.dimension + 1):
            assert K.coboundary_f2(k) == _coboundary_f2_by_slices(K, k), name


def test_f2_cohomology_matches_two_eliminations(fixtures):
    rng = random.Random(77)
    for name, K in _f2_oracle_complexes(fixtures):
        for k in range(K.dimension + 1):
            h = K.cohomology_f2(k)
            basis, ech, image_rows, zero = (
                _f2_cohomology_by_two_eliminations(K, k))
            assert h.basis == basis and h.dim == len(basis), (name, k)
            assert h.image_rows == image_rows, (name, k)
            assert h._ech._rows == ech._rows, (name, k)
            # the kernel vectors that reduce to zero are exactly those of
            # the cleared columns, the leading bits of im delta_(k-1)
            _, cleared = f2linalg.kernel_basis(K.coboundary_f2(k - 1))
            assert zero == set(cleared), (name, k)
            for _ in range(5):
                z = h.rep(rng.getrandbits(h.dim)) ^ coboundary_apply_f2(
                    K, k - 1, rng.getrandbits(K.n_simplices(k - 1)))
                res, want = ech.residue(z)
                assert res == 0 and h.coords(z) == want, (name, k)


@given(st.lists(st.integers(0, 2 ** 12 - 1), max_size=24), st.randoms())
@settings(max_examples=200, deadline=None)
def test_kernel_basis_skipping_dependent_columns(columns, rnd):
    ker, rows = f2linalg.kernel_basis(columns)
    dependent = [z.bit_length() - 1 for z in ker]
    skip = set(rnd.sample(dependent, rnd.randint(0, len(dependent))))
    ker_s, rows_s = f2linalg.kernel_basis(columns, skip)
    assert rows_s == rows
    assert ker_s == [z for z in ker if z.bit_length() - 1 not in skip]


def test_panel_inserts_each_f2_coboundary_once(monkeypatch):
    callers = collections.Counter()
    insert = f2linalg.Echelon.insert

    def recording_insert(self, v, expr=0):
        callers[sys._getframe(1).f_code.co_name] += 1
        return insert(self, v, expr)

    eliminated = []
    kernel_basis = f2linalg.kernel_basis

    def recording_kernel_basis(columns, skip=()):
        eliminated.append((columns, skip))
        return kernel_basis(columns, skip)

    monkeypatch.setattr(f2linalg.Echelon, "insert", recording_insert)
    monkeypatch.setattr(f2linalg, "kernel_basis", recording_kernel_basis)
    K = cx.product_complex(catalog.klein_bottle(), catalog.torus())
    intersection.panel(K)
    n = K.dimension
    # kernel_basis sees each delta_k once (past the top degree there are no
    # columns), clearing the leading bits of im delta_(k-1), and is the only
    # caller that inserts coboundary columns; F2Cohomology.__init__ inserts
    # only the new cocycle residues
    eliminated = [call for call in eliminated if call[0]]
    assert len(eliminated) == n + 1
    for k, (cols, skip) in enumerate(eliminated):
        assert cols is K.coboundary_f2(k)
        assert skip == (K.cohomology_f2(k - 1).image_rows if k else {})
    assert callers["kernel_basis"] == sum(
        K.n_simplices(k) - len(K.cohomology_f2(k - 1).image_rows if k else {})
        for k in range(n + 1))
    assert callers["__init__"] == sum(
        K.cohomology_f2(k).dim for k in range(n + 1))


def test_complex_freed_without_cycle_collector():
    gc.disable()
    try:
        for facets in (catalog.CP2_FACETS,
                       catalog.klein_bottle().maximal_simplices):
            K = cx.SimplicialComplex(facets)
            intersection.panel(K)
            charclasses.profile(K)
            ref = weakref.ref(K)
            del K
            assert ref() is None
    finally:
        gc.enable()


def test_no_assert_in_package():
    # python -O strips assert statements, so none may guard behaviour
    src = Path(cx.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        assert not any(isinstance(node, ast.Assert)
                       for node in ast.walk(tree)), path.name


def test_universal_coefficients_rank_identity(fixtures):
    # dim H_k(F2) = b_k + #2-torsion(H_k) + #2-torsion(H_{k-1})
    for name, K in fixtures.items():
        hz = cx.homology(K, "Z")
        hf = cx.homology(K, "F2")
        for k in range(K.dimension + 1):
            two = sum(1 for t in hz[k].torsion if t % 2 == 0)
            two_prev = sum(1 for t in hz[k - 1].torsion if t % 2 == 0) \
                if k >= 1 else 0
            assert hf[k].betti == hz[k].betti + two + two_prev, (name, k)


def test_basis_free_answers_skip_the_pinned_elimination(monkeypatch):
    seen = []
    diagonalize = zlinalg.diagonalize

    def recording(a, ncols):
        seen.append(a)
        return diagonalize(a, ncols)

    monkeypatch.setattr(zlinalg, "diagonalize", recording)
    # both are spin, so beta(w_2) needs no solve; S1xS3 has
    # H^2(.; F2) = 0, so its intersection form has rank 0 with no H^2(.; Z)
    S = catalog.sphere
    s1s3 = cx.product_complex(S(1), S(3))
    t3 = cx.product_complex(S(1), catalog.torus())
    panels = [intersection.panel(K) for K in (s1s3, t3)]
    assert seen == []
    assert all(p.spin and p.spin_c for p in panels)
    assert [p.signature for p in panels] == [0, None]
    monkeypatch.undo()
    # the rank-0 form is what H^2(.; Z) would have given
    assert s1s3.cohomology_z(2) == ()
    for K in catalog.manifold_fixtures().values():
        K = cx.SimplicialComplex(K.maximal_simplices)
        cx.homology(K, "Z")
        assert not [key for key in K._cache if key[0] == "hz"]


def test_euler_characteristic(fixtures):
    chi = {"S2": 2, "S4": 2, "S5": 0, "RP2": 1, "T2": 0, "K2": 0,
           "CP2": 3, "S2xS2": 4}
    for name, K in fixtures.items():
        assert euler_characteristic(K) == chi[name]


def test_cp2_f_vector(fixtures):
    K = fixtures["CP2"]
    assert [K.n_simplices(k) for k in range(5)] == [9, 36, 84, 90, 36]
    counts = {}
    for s in K.maximal_simplices:
        import itertools
        for f in itertools.combinations(s, 4):
            counts[f] = counts.get(f, 0) + 1
    assert all(v == 2 for v in counts.values())


def test_cup_product_unital_and_associative(fixtures):
    for name in ("RP2", "T2", "S2", "K2"):
        K = fixtures[name]
        n = K.dimension
        unit = cx.f2_class(K, 0, K.cohomology_f2(0).basis[0])
        all_classes = []
        for k in range(n + 1):
            for b in K.cohomology_f2(k).basis:
                all_classes.append(cx.f2_class(K, k, b))
        for x in all_classes:
            left = cx.cup_product(K, unit, x)
            assert left.coords == x.coords and left.degree == x.degree
        for x in all_classes:
            for y in all_classes:
                for z in all_classes:
                    if x.degree + y.degree + z.degree > n:
                        continue
                    a = cx.cup_product(K, cx.cup_product(K, x, y), z)
                    b = cx.cup_product(K, x, cx.cup_product(K, y, z))
                    assert a.coords == b.coords


def test_pairing_symmetric(fixtures):
    for K in fixtures.values():
        n = K.dimension
        for k in range(n + 1):
            for xb in K.cohomology_f2(k).basis:
                for yb in K.cohomology_f2(n - k).basis:
                    xy = cx.cup_cochain_f2(K, k, n - k, xb, yb)
                    yx = cx.cup_cochain_f2(K, n - k, k, yb, xb)
                    fc = K.fundamental_class_f2()
                    assert f2linalg.dot(xy, fc) == f2linalg.dot(yx, fc)


def test_fundamental_class_f2_is_all_top_simplices(fixtures):
    for K in fixtures.values():
        fc = K.fundamental_class_f2()
        assert fc == (1 << K.n_simplices(K.dimension)) - 1


def test_fundamental_class_z_sign_convention(fixtures):
    for name in ("S2", "S4", "T2", "CP2", "S2xS2"):
        K = fixtures[name]
        fz = K.fundamental_class_z()
        lead = next(x for x in fz if x)
        assert lead == 1
        assert all(abs(x) == 1 for x in fz)


def test_fundamental_class_z_fails_nonorientable(fixtures):
    for name in ("RP2", "K2"):
        K = cx.SimplicialComplex(fixtures[name].maximal_simplices)
        assert K.fundamental_class_f2() == (1 << K.n_simplices(2)) - 1
        with pytest.raises(cx.NonOrientableError, match="top homology"):
            K.fundamental_class_z()
        # the non-orientable outcome is memoized, not walked again
        assert K._cache[("fcz",)] is None


def _fundamental_class_f2_by_kernel(K):
    """The F2 kernel of boundary_n, if it is one-dimensional."""
    n = K.dimension
    idx = K.simplex_index(n - 1)
    cols = []
    for s in K.simplices(n):
        col = 0
        for i in range(n + 1):
            col ^= 1 << idx[s[:i] + s[i + 1:]]
        cols.append(col)
    ker, _ = f2linalg.kernel_basis(cols)
    return ker[0] if len(ker) == 1 else None


def _fundamental_class_z_by_elimination(K):
    """Row rank of U in U delta_(n-1) V = D, which spans the left kernel
    of delta_(n-1), i.e. ker boundary_n, if that has rank 1; first nonzero
    entry made positive.  The row is read as U^T e_rank, the row log
    replayed backward and transposed."""
    n = K.dimension
    dz = zlinalg.diagonalize(K.coboundary_z(n - 1), K.n_simplices(n - 1))
    if dz.m - dz.rank != 1:
        return None
    unit = [int(j == dz.rank) for j in range(dz.m)]
    gen = zlinalg._replay_vector(reversed(dz.row_log), unit, True)
    if next(x for x in gen if x) < 0:
        gen = [-x for x in gen]
    return tuple(gen)


def _walk_oracle_complexes(fixtures):
    yield from fixtures.items()
    yield "T2xS2", cx.product_complex(catalog.torus(), catalog.sphere(2))
    yield "RP2xS3", cx.product_complex(catalog.projective_plane(),
                                       catalog.sphere(3))
    yield "K2xT2", cx.product_complex(catalog.klein_bottle(), catalog.torus())
    rng = random.Random(8)
    for name in ("CP2", "S2xS2"):
        K = fixtures[name]
        for i in range(3):
            perm = list(K.vertices)
            rng.shuffle(perm)
            yield f"{name}~{i}", cx.relabel(K, dict(zip(K.vertices, perm)))


def test_fundamental_classes_match_kernel_and_elimination(fixtures):
    for name, K in _walk_oracle_complexes(fixtures):
        assert (K.fundamental_class_f2()
                == _fundamental_class_f2_by_kernel(K)), name
        want = _fundamental_class_z_by_elimination(K)
        if want is None:
            with pytest.raises(cx.NonOrientableError):
                K.fundamental_class_z()
        else:
            assert K.fundamental_class_z() == want, name


def test_fundamental_classes_of_points():
    point = cx.SimplicialComplex([(1,)])
    assert point.fundamental_class_f2() == 1
    assert point.fundamental_class_z() == (1,)
    points = cx.SimplicialComplex([(1,), (2,)])
    for fundamental_class in (points.fundamental_class_f2,
                              points.fundamental_class_z):
        with pytest.raises(cx.TopologyError,
                           match=re.escape("facet (2,) is not reached")):
            fundamental_class()


def test_is_poincare_on_fixtures(fixtures):
    for name, K in fixtures.items():
        rep = cx.is_poincare_f2(K)
        assert rep.perfect, name
        assert rep.first_degenerate is None
        assert rep.ranks == rep.dims


def test_fundamental_class_fails_on_disk():
    disk = cx.SimplicialComplex([(0, 1, 2)])
    with pytest.raises(cx.TopologyError, match="pseudo-manifold"):
        disk.fundamental_class_f2()


def test_pairing_ranks_above_half_read_from_transpose(fixtures):
    for name, K in fixtures.items():
        n = K.dimension
        ranks = cx.is_poincare_f2(K).ranks
        for k in range(n + 1):
            assert ranks[k] == f2linalg.rank(cx.duality_pairing_f2(K, k)), name


@pytest.mark.parametrize("facets, message", [
    (catalog.sphere(2).maximal_simplices + ((0, 10),),
     "facet (0, 10) is not 2-dimensional"),
    (catalog.sphere(4).maximal_simplices + ((0, 10, 11),),
     "facet (0, 10, 11) is not 4-dimensional"),
    (((0, 1, 2), (0, 1, 3), (0, 1, 4)), "face (0, 1) lies in 3 facets"),
    # two disjoint S2, then two S2 sharing vertex 0: every 1-face lies in
    # two facets, but the walk across 1-faces stays on the first sphere
    (catalog.sphere(2).maximal_simplices
     + ((10, 11, 12), (10, 11, 13), (10, 12, 13), (11, 12, 13)),
     "facet (10, 11, 12) is not reached"),
    (catalog.sphere(2).maximal_simplices
     + ((0, 10, 11), (0, 10, 12), (0, 11, 12), (10, 11, 12)),
     "facet (0, 10, 11) is not reached"),
])
def test_non_pseudo_manifolds_rejected(facets, message):
    K = cx.SimplicialComplex(facets)
    with pytest.raises(cx.TopologyError,
                       match="not a pseudo-manifold: " + re.escape(message)):
        intersection.panel(K)
    assert len(cx.homology(K, "Z")) == K.dimension + 1


def test_is_poincare_fails_on_suspension_of_rp2():
    # suspension of RP2: closed 3-pseudo-manifold, H^1 = 0 but H^2 = F2
    K = catalog.projective_plane()
    a, b = max(K.vertices) + 1, max(K.vertices) + 2
    susp = cx.SimplicialComplex(
        [s + (a,) for s in K.maximal_simplices]
        + [s + (b,) for s in K.maximal_simplices])
    rep = cx.is_poincare_f2(susp)
    assert not rep.perfect
    assert rep.first_degenerate == 1


def test_pairing_requires_top_degree(fixtures):
    K = fixtures["T2"]
    one = cx.f2_class(K, 0, K.cohomology_f2(0).basis[0])
    with pytest.raises(ValueError, match="top-degree"):
        cx.pairing(K, one)


def test_relabel_preserves_homology_and_ranks(fixtures):
    rng = random.Random(99)
    for name, K in fixtures.items():
        perm = list(K.vertices)
        rng.shuffle(perm)
        mapping = dict(zip(K.vertices, perm))
        K2 = cx.relabel(K, mapping)
        assert cx.homology(K, "Z") == cx.homology(K2, "Z")
        assert cx.homology(K, "F2") == cx.homology(K2, "F2")
        assert cx.is_poincare_f2(K).ranks == cx.is_poincare_f2(K2).ranks


def test_z_cohomology_summands(fixtures):
    # H^2(RP2; Z) = Z/2, H^2(K2; Z) = Z/2, H^2(T2; Z) = Z: cohomology_z
    # gives the free ranks; the Z/2 is H_1's torsion, which
    # test_integral_homology_oracles asserts
    for name, rank in (("RP2", 0), ("K2", 0), ("T2", 1)):
        assert len(fixtures[name].cohomology_z(2)) == rank, name


def test_invariant_factors_prime_power_oracle(rng):
    import sympy

    def oracle(diag):
        # the i-th factor takes the i-th smallest exponent of each prime
        entries = [abs(x) for x in diag if x]
        factors = [1] * len(entries)
        exps = {}
        for x in entries:
            for p, e in sympy.factorint(x).items():
                exps.setdefault(p, []).append(e)
        for p, es in exps.items():
            for i, e in enumerate(sorted(es)):
                factors[len(entries) - len(es) + i] *= p ** e
        return factors

    for _ in range(200):
        diag = [rng.choice((0, 1, -1, 2, -2, 3, 4, 6, 9, 10, 12, 25, 45, 60))
                for _ in range(rng.randint(0, 8))]
        got = zlinalg.invariant_factors(diag)
        assert got == oracle(diag), diag
        assert all(b % a == 0 for a, b in zip(got, got[1:]))


def test_solve_square_against_brute_force(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        cols = [rng.randrange(1 << n) for _ in range(n)]
        b = rng.randrange(1 << n)
        images = {}
        for x in range(1 << n):
            img = 0
            for j in range(n):
                if (x >> j) & 1:
                    img ^= cols[j]
            images.setdefault(img, x)
        x = f2linalg.solve_square(cols, b)
        if b not in images:
            assert x is None
            continue
        img = 0
        for j in range(n):
            if (x >> j) & 1:
                img ^= cols[j]
        assert img == b
        if f2linalg.rank(cols) == n:
            assert x == images[b]


def test_not_a_cocycle_rejected(fixtures):
    K = fixtures["T2"]
    mask = 1  # a single edge is not an F2 cocycle on the torus
    assert coboundary_apply_f2(K, 1, mask) != 0
    with pytest.raises(ValueError, match="not a cocycle"):
        K.cohomology_f2(1).coords(mask)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 14 - 1),
       st.integers(min_value=0, max_value=2 ** 14 - 1))
def test_cup_cochain_bilinear_on_torus(xm, ym):
    K = catalog.torus()
    n1 = K.n_simplices(1)
    x1 = xm & ((1 << n1) - 1)
    y1 = ym & ((1 << n1) - 1)
    lhs = cx.cup_cochain_f2(K, 1, 1, x1 ^ y1, x1)
    rhs = cx.cup_cochain_f2(K, 1, 1, x1, x1) ^ cx.cup_cochain_f2(K, 1, 1, y1, x1)
    assert lhs == rhs


def test_product_complex_euler_multiplicative():
    s1 = catalog.sphere(1)
    t = cx.product_complex(s1, s1)
    assert euler_characteristic(t) == 0
    assert [(h.betti, h.torsion) for h in cx.homology(t, "Z")] == \
        [(1, ()), (2, ()), (1, ())]


def test_random_complexes_are_complexes(rng):
    for _ in range(10):
        K = catalog.random_complex(rng)
        assert K.dimension >= 1
        for k in range(1, K.dimension + 1):
            prod = matmul(K.boundary_z(k), K.boundary_z(k + 1))
            assert all(all(x == 0 for x in row) for row in prod)


def test_no_degree_is_built_past_the_face_bound(monkeypatch):
    # the count is read once a facet: S2xS2's 4-simplices have 10 edges;
    # a fresh complex, so no degree is cached from other tests
    K = cx.SimplicialComplex(catalog.s2xs2().maximal_simplices)
    monkeypatch.setattr(cx, "MAX_FACES", 50)
    with pytest.raises(cx.TopologyError) as exc:
        K.simplices(1)
    count = int(re.match(r"too many faces: at least (\d+) 1-simplices, "
                         r"above the bound of 50$", str(exc.value))[1])
    assert 50 < count <= 60
    assert K.simplices(4) == K.maximal_simplices  # the facets are not built
