import ast
import collections
import functools
import gc
import itertools
import operator
import random
import re
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topinv import (catalog, charclasses, cli, f2linalg, faces, intersection,
                    zlinalg)
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


def test_panel_eliminates_each_coboundary_once(monkeypatch, pinned_calls):
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
        assert pinned_calls == [2]
        # integral homology reads no basis, so it builds no H^k(K; Z)
        L = cx.SimplicialComplex(facets)
        pinned_calls.clear()
        cx.homology(L, "Z")
        assert pinned_calls == []


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
    built apart from delta_k, its rows taken over with expression 0 and no
    generator, the full kernel_basis(delta_k), and a residue for every
    kernel vector.  Returns the basis, the echelon that gives coords, the
    image rows of delta_k, and the leading bits of the kernel vectors whose
    residue is zero."""
    ech = f2linalg.Echelon(f2linalg.kernel_basis(K.coboundary_f2(k - 1))[1])
    ker, image_rows = f2linalg.kernel_basis(K.coboundary_f2(k))
    basis, zero = [], set()
    for z in ker:
        res, _ = ech.residue(z)
        if res:
            ech.insert(res, len(basis))
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
        # a fresh complex, so each H^k is built here, degrees in order
        K = cx.SimplicialComplex(K.maximal_simplices)
        for k in range(K.dimension + 1):
            h = K.cohomology_f2(k)
            basis, ech, image_rows, zero = (
                _f2_cohomology_by_two_eliminations(K, k))
            assert h.basis == basis and h.dim == len(basis), (name, k)
            if k:
                # the handover: H^k took H^(k-1)'s image rows over as its
                # echelon, the same dict, not a copy
                assert K.cohomology_f2(k - 1).image_rows is None, (name, k)
                assert h._ech.rows is rows, (name, k)
            # read the image rows before H^(k+1) takes them over
            rows = h.image_rows
            assert rows == image_rows, (name, k)
            assert h._ech.rows == ech.rows, (name, k)
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


class _EchelonByMasks:
    """Echelon as a plain elimination: every row keeps the mask of the
    generators that sum to it, made or not by a reduction, and a row
    taken over keeps the mask 0."""

    def __init__(self, rows=()):
        self.rows = dict(rows)
        self.exprs = dict.fromkeys(self.rows, 0)

    def residue(self, v, expr=0):
        while v and v.bit_length() - 1 in self.rows:
            b = v.bit_length() - 1
            v, expr = v ^ self.rows[b], expr ^ self.exprs[b]
        return v, expr

    def insert(self, v, j):
        v, expr = self.residue(v, 1 << j)
        if not v:
            return expr
        b = v.bit_length() - 1
        self.rows[b], self.exprs[b] = v, expr
        return None


def _kernel_basis_by_masks(columns, skip):
    """kernel_basis as a plain elimination of the columns not skipped."""
    ech, ker = _EchelonByMasks(), []
    for j, v in enumerate(columns):
        if j not in skip and (z := ech.insert(v, j)) is not None:
            ker.append(z)
    return ker, ech.rows


@given(st.lists(st.integers(0, 2 ** 12 - 1), max_size=24), st.randoms())
@settings(max_examples=300, deadline=None)
def test_kernel_basis_matches_mask_tracking_elimination(columns, rnd):
    # any skip set, dependent columns or not: both skip the same ones
    skip = set(rnd.sample(range(len(columns)),
                          rnd.randint(0, len(columns))))
    ker, rows = f2linalg.kernel_basis(columns, skip)
    want_ker, want_rows = _kernel_basis_by_masks(columns, skip)
    assert rows == want_rows
    assert ker == want_ker
    for z in ker:  # each kernel vector sums its columns to zero
        assert functools.reduce(operator.xor, (
            c for j, c in enumerate(columns) if z >> j & 1), 0) == 0


@given(st.integers(0, 12), st.lists(st.integers(0, 2 ** 12 - 1), max_size=16),
       st.randoms())
@settings(max_examples=300, deadline=None)
def test_echelon_matches_mask_tracking_echelon(n_taken, vectors, rnd):
    # rows taken over: any echelon, distinct leading bits, expression 0
    leads = rnd.sample(range(12), n_taken)
    taken = {b: 1 << b | rnd.getrandbits(b) for b in leads}
    ech = f2linalg.Echelon(dict(taken))
    want = _EchelonByMasks(taken)
    for v in vectors:
        # any index names a generator, in any order, even twice
        j = rnd.randrange(24)
        assert ech.insert(v, j) == want.insert(v, j)
        assert ech.rows == want.rows
    for v in [*vectors, *(rnd.getrandbits(12) for _ in range(8))]:
        assert ech.residue(v) == want.residue(v)
    assert f2linalg.rank(vectors) == len(
        _kernel_basis_by_masks(vectors, ())[1])


def test_panel_inserts_each_f2_coboundary_once(monkeypatch):
    callers = collections.Counter()
    insert = f2linalg.Echelon.insert

    def recording_insert(self, v, j):
        callers[sys._getframe(1).f_code.co_name] += 1
        return insert(self, v, j)

    built, eliminated = [], []
    coboundary_f2 = cx.SimplicialComplex.coboundary_f2
    kernel_basis = f2linalg.kernel_basis

    def recording_coboundary_f2(K, k, skip=()):
        built.append((k, set(skip)))
        return coboundary_f2(K, k, skip)

    def recording_kernel_basis(columns, skip=()):
        ker, rows = kernel_basis(columns, skip)
        # the coboundaries only: rank eliminates its pairings here too
        if sys._getframe(1).f_code is cx.F2Cohomology.__init__.__code__:
            eliminated.append((columns, set(skip), len(ker) + len(rows)))
        return ker, rows

    monkeypatch.setattr(f2linalg.Echelon, "insert", recording_insert)
    monkeypatch.setattr(cx.SimplicialComplex, "coboundary_f2",
                        recording_coboundary_f2)
    monkeypatch.setattr(f2linalg, "kernel_basis", recording_kernel_basis)
    K = cx.product_complex(catalog.klein_bottle(), catalog.torus())
    intersection.panel(K)
    n = K.dimension
    monkeypatch.undo()
    # each delta_k is built and eliminated once, and what is cleared, the
    # leading bits of im delta_(k-1) (found here apart), is not built:
    # those columns are 0, the others are delta_k's
    cleared = [set(kernel_basis(coboundary_f2(K, k - 1))[1]) if k else set()
               for k in range(n + 1)]
    assert built == list(enumerate(cleared))
    assert len(eliminated) == n + 1
    for k, (cols, skip, kept) in enumerate(eliminated):
        assert skip == cleared[k]
        full = coboundary_f2(K, k)
        assert cols == [0 if j in skip else c for j, c in enumerate(full)]
        # nor inserted: every column kernel_basis inserts gives a row or a
        # kernel vector, and only the columns not cleared do
        assert kept == K.n_simplices(k) - len(skip)
    # Echelon.insert is called by kernel_basis (for the coboundaries and
    # the rank), by F2Cohomology.__init__ for the new cocycle residues
    # alone, and by the Wu solve
    assert set(callers) == {"__init__", "kernel_basis", "solve_square"}
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


def test_complex_keeps_only_what_is_read_again(monkeypatch):
    # delta over F2, the pinned H^k(K; Z) basis and the F2 fundamental mask
    # each have one reader, which keeps its answer, so none is kept itself;
    # "pm" is the pseudo-manifold gate's pass, "fcz" the facet walk's signs
    # and "tree" its tree, the rows free_cocycles and bockstein clear
    kept = {"code", "face", "cbz", "hf2", "pm", "fcz", "tree", "pair", "wu",
            "sw", "swn", "iform", "pform"}
    bases = dict(catalog.manifold_fixtures())
    bases["S2xS2"] = catalog.s2xs2()
    bases["RP2xRP2"] = cx.product_complex(catalog.projective_plane(),
                                          catalog.projective_plane())
    tags = set()
    for name, base in bases.items():
        K = cx.SimplicialComplex(base.maximal_simplices)
        for ring in ("Z", "F2"):
            cx.homology(K, ring)
        orientable = intersection.panel(K).orientable
        if K.dimension % 4 == 0:
            monkeypatch.setattr("topinv.cli._load", lambda name, path: K)
            assert cli.main(["intersection", "-"]) == (0 if orientable else 1)
        tags |= {key[0] for key in K._cache}
    assert tags == kept
    assert not hasattr(K.cohomology_f2(0), "degree")


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


def test_basis_free_answers_skip_the_pinned_elimination(monkeypatch,
                                                        pinned_calls):
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
    for K in catalog.manifold_fixtures().values():
        cx.homology(cx.SimplicialComplex(K.maximal_simplices), "Z")
    assert pinned_calls == []
    monkeypatch.undo()
    # the rank-0 form is what H^2(.; Z) would have given
    assert s1s3.cohomology_z(2) == ()


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


def _walk_gate(K):
    """The pseudo-manifold check as one facet walk: facet dimensions, then
    the two facets on each (n-1)-face in face order, then the first facet
    not reached from the lex-first one.  Returns the error message, or
    None for a pseudo-manifold."""
    n = K.dimension
    for s in K.maximal_simplices:
        if len(s) != n + 1:
            return f"not a pseudo-manifold: facet {s} is not {n}-dimensional"
    ends = collections.defaultdict(list)  # no faces to cross when n = 0
    for s in K.simplices(n) if n else ():
        for i in range(n + 1):
            ends[s[:i] + s[i + 1:]].append(s)
    for face in K.simplices(n - 1) if n else ():
        if len(ends[face]) != 2:
            return (f"not a pseudo-manifold: face {face} lies in "
                    f"{len(ends[face])} facets")
    seen, stack = {K.simplices(n)[0]}, [K.simplices(n)[0]]
    while stack:
        s = stack.pop()
        for i in range(n + 1):
            for t in ends[s[:i] + s[i + 1:]]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    missed = [s for s in K.simplices(n) if s not in seen]
    if missed:
        how = (f"across {n - 1}-faces" if n
               else "(a 0-dimensional one is a single vertex)")
        return f"not a pseudo-manifold: facet {missed[0]} is not reached {how}"
    return None


def test_counted_gate_matches_the_walk(fixtures):
    S2 = catalog.sphere(2).maximal_simplices
    bad = {
        "S2 with a dangling edge": cx.SimplicialComplex(S2 + ((0, 10),)),
        "two disjoint S2": cx.SimplicialComplex(
            S2 + ((10, 11, 12), (10, 11, 13), (10, 12, 13), (11, 12, 13))),
        "two S2 sharing a vertex": cx.SimplicialComplex(
            S2 + ((0, 10, 11), (0, 10, 12), (0, 11, 12), (10, 11, 12))),
        "a face in three facets": cx.SimplicialComplex(
            ((0, 1, 2), (0, 1, 3), (0, 1, 4))),
        "a non-pure file": cx.parse_complex(
            cx.complex_text(catalog.sphere(4)) + "0 10 11\n12\n"),
        "two points": cx.SimplicialComplex(((0,), (1,))),
    }
    for name, K in bad.items():
        want = _walk_gate(K)
        assert want is not None, name
        for fundamental_class in (K.fundamental_class_f2,
                                  K.fundamental_class_z):
            with pytest.raises(cx.TopologyError) as err:
                fundamental_class()
            assert str(err.value) == want, name
    # a pseudo-manifold passes without a walk: only fundamental_class_z
    # walks, for its signs
    good = dict(_walk_oracle_complexes(fixtures))
    good["RP2xRP2"] = cx.product_complex(catalog.projective_plane(),
                                         catalog.projective_plane())
    good["RP2xK2"] = cx.product_complex(catalog.projective_plane(),
                                        catalog.klein_bottle())
    rng = random.Random(28)
    for name in list(fixtures) + ["RP2xS3", "K2xT2", "RP2xRP2", "RP2xK2"]:
        K = good[name]
        perm = rng.sample(range(3 * len(K.vertices)), len(K.vertices))
        good[f"{name}~"] = cx.relabel(K, dict(zip(K.vertices, perm)))
    for name, K in good.items():
        K = cx.SimplicialComplex(K.maximal_simplices)
        assert _walk_gate(K) is None, name
        assert K.fundamental_class_f2() == (1 << K.n_simplices(
            K.dimension)) - 1, name
        assert ("fcz",) not in K._cache, name
        assert K.cohomology_f2(K.dimension).dim == 1, name


def test_maximal_simplices_match_face_enumeration():
    def by_faces(simplices):
        # every face, of each listed size, of every listed simplex
        cleaned = {tuple(sorted(s)) for s in simplices}
        sizes = {len(s) for s in cleaned}
        return tuple(sorted(cleaned - {
            f for t in cleaned for r in sizes if r < len(t)
            for f in itertools.combinations(t, r)}))

    rng = random.Random(2828)
    for _ in range(300):
        v = rng.randint(1, 9)
        listed = [tuple(rng.sample(range(v), rng.randint(1, v)))
                  for _ in range(rng.randint(1, 12))]
        # and faces of listed simplices, listed too
        for s in rng.sample(listed, rng.randint(0, len(listed))):
            listed.append(tuple(rng.sample(s, rng.randint(1, len(s)))))
        rng.shuffle(listed)
        K = cx.SimplicialComplex(listed)
        assert K.maximal_simplices == by_faces(listed), listed


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
    # the count is all degrees together, top down, read a pick at a time:
    # S2xS2's 96 facets, then the 72 distinct 3-simplices of the first
    # ridge pick, each facet's face that leaves out its first vertex; a
    # fresh complex, so no degree is cached from other tests
    K = cx.SimplicialComplex(catalog.s2xs2().maximal_simplices)
    monkeypatch.setattr(cx, "MAX_FACES", 150)
    with pytest.raises(cx.TopologyError) as exc:
        K.simplices(1)
    count = int(re.match(r"too many faces: at least (\d+) in all, "
                         r"above the bound of 150$", str(exc.value))[1])
    assert count == 168
    assert not K._cache  # a refused build keeps no degree
    with pytest.raises(cx.TopologyError, match=f"at least {count} in all"):
        K.simplices(4)  # the facets are counted too
    # f-vector 16, 84, 216, 240, 96: 652 faces in all fit a bound of 652
    monkeypatch.setattr(cx, "MAX_FACES", 651)
    with pytest.raises(cx.TopologyError, match="at least 652 in all"):
        K.simplices(0)
    monkeypatch.setattr(cx, "MAX_FACES", 652)
    assert K.simplices(4) == K.maximal_simplices  # the facets are not built
    assert sorted(K._cache) == sorted(
        [("code", k) for k in range(5)] + [("simp", 4)]
        + [("face", n, faces.ridge(n, i)) for n in range(1, 5)
           for i in range(n + 1)])


def test_a_facet_past_the_bound_is_refused_before_any_code(monkeypatch):
    # the boundary of the 19-simplex: one facet alone has 2^19 - 1 faces,
    # so no code is packed or picked and no face counted
    def no_codes(*args):
        raise AssertionError("a face was built")

    K = cx.SimplicialComplex(catalog.sphere(18).maximal_simplices)
    for name in ("pack", "pick"):
        monkeypatch.setattr(faces, name, no_codes)
    monkeypatch.setattr(itertools, "combinations", no_codes)
    with pytest.raises(cx.TopologyError, match=f"at least {2**19 - 1} in "):
        K.n_simplices(0)
    assert not K._cache


def _top_down_counts(K):
    """The face counts faces.build reads, the tuple way, in its order:
    each degree from the top, its listed maximal simplices and then the
    face of every simplex of the degree above that leaves out position i,
    one i at a time, each distinct face counted once, on top of every
    degree above; each count is read after a pick, and once more after
    the degree."""
    counts, total, above = [], 0, []
    for k in reversed(range(K.dimension + 1)):
        seen = {s for s in K.maximal_simplices if len(s) == k + 1}
        for i in range(k + 2):
            seen.update(s[:i] + s[i + 1:] for s in above)
            counts.append(total + len(seen))
        total += len(seen)
        counts.append(total)
        above = seen
    return counts


def test_a_refusal_names_the_build_own_count(fixtures):
    # at every bound below a complex's faces the build refuses with the
    # first count it read past the bound, or 2^v - 1 for a facet of v
    # vertices past it alone: a true lower bound, past the bound by at
    # most one pick; at the face count itself it builds
    rng = random.Random(3236)
    complexes = list(fixtures.items())
    complexes += [(f"random {i}", catalog.random_complex(rng))
                  for i in range(30)]
    assert any(len({len(s) for s in K.maximal_simplices}) > 1
               for _, K in complexes)  # non-pure ones among them
    for name, K in complexes:
        total = sum(map(len, _tuple_faces(K)))
        counts = _top_down_counts(K)
        alone = 2 ** (K.dimension + 1) - 1
        args = K.maximal_simplices, K.vertices, K._width
        for bound in range(total):
            count = faces.build(*args, bound)
            assert bound < count <= total, (name, bound)
            want = alone if alone > bound else next(
                c for c in counts if c > bound)
            assert count == want, (name, bound)
        assert not isinstance(faces.build(*args, total), int), name


def _coboundary_z_by_slices(K, k):
    """delta_k over Z from each (k+1)-simplex's faces, sliced out and
    looked up in the simplex index."""
    if k < 0:
        return [{} for _ in range(K.n_simplices(0))]
    idx = K.simplex_index(k)
    return [{idx[s[:i] + s[i + 1:]]: (-1) ** i for i in range(k + 2)}
            for s in K.simplices(k + 1)]


def test_coboundary_z_matches_slices(fixtures):
    rng = random.Random(3232)
    complexes = list(_f2_oracle_complexes(fixtures))
    complexes += [(f"random {i}", catalog.random_complex(rng))
                  for i in range(40)]
    assert any(len({len(s) for s in K.maximal_simplices}) > 1
               for _, K in complexes)  # non-pure ones among them
    for name, K in complexes:
        for k in range(-1, K.dimension + 1):
            rows = K.coboundary_z(k)
            assert rows == _coboundary_z_by_slices(K, k), (name, k)
            if k >= 0:
                # every row's keys are the index's own int objects
                keys = list(K.simplex_index(k).values())
                assert all(c is keys[c] for row in rows for c in row), name


def test_face_tables_hold_the_index_own_ints(fixtures):
    # every entry of every table a panel builds, and of the walk's tree, is
    # the very int object simplex_index maps that face to, so no reader
    # boxes a face index: an array, or ints built anywhere else, fails here
    # on the entries past CPython's small-int cache
    largest, walked = 0, False
    for name, K in _clearing_complexes(fixtures):
        intersection.panel(K)
        tables = {key[1:]: t for key, t in K._cache.items()
                  if key[0] == "face"}
        assert tables, name
        for (n, pos), table in tables.items():
            idx = K.simplex_index(len(pos) - 1)
            assert type(table) is tuple, (name, pos)
            assert len(table) == K.n_simplices(n), (name, pos)
            assert all(f is idx[tuple(s[p] for p in pos)]
                       for s, f in zip(K.simplices(n), table)), (name, pos)
            largest = max(largest, max(table))
        ridges = K.simplex_index(K.dimension - 1)
        tree = K._cache.get(("tree",), ())
        assert all(f is ridges[K.simplices(K.dimension - 1)[f]]
                   for f in tree), name
        walked |= bool(tree)
    assert largest > 256 and walked


def _tuple_faces(K):
    """Every degree's simplices, the tuple way the packed codes replaced:
    each maximal simplex's vertex combinations, gathered and sorted."""
    out = [set() for _ in range(K.dimension + 1)]
    for s in K.maximal_simplices:
        for k in range(len(s)):
            out[k].update(itertools.combinations(s, k + 1))
    return [tuple(sorted(f)) for f in out]


def _tuple_face_table(degrees, n, pos):
    """face_table the tuple way: each n-simplex's vertices at pos, looked
    up in the index of the (len(pos)-1)-simplices."""
    idx = {s: i for i, s in enumerate(degrees[len(pos) - 1])}
    picked = map(operator.itemgetter(*pos), degrees[n])
    if len(pos) == 1:
        picked = zip(picked)
    return tuple(map(idx.__getitem__, picked))


def _code_oracle_complexes(fixtures):
    """Non-pure, 0-dimensional, wide-labelled and wide-coded complexes."""
    rng = random.Random(3235)
    for i in range(30):
        yield f"random {i}", catalog.random_complex(rng)
    yield "vertex", cx.SimplicialComplex([(7,)])
    yield "points", cx.SimplicialComplex([(5,), (-3,), (2**70,)])
    yield "edge and point", cx.SimplicialComplex([(0, 1), (-(2**65),)])
    # 17 vertices in 5-bit fields: 85-bit codes, two words a simplex
    yield "simplex17", cx.SimplicialComplex([tuple(range(17))])
    # 33 vertices in 6-bit fields: the codes pass 64 bits from degree 10 up
    yield "wide top", cx.SimplicialComplex(
        [tuple(range(11))] + [(v, v + 1) for v in range(10, 32)])
    labels = [-(2**66), -5, -1, 0, 2**64, 2**64 + 1, 3**50]
    for name in ("CP2", "RP2", "S2xS2"):
        K = fixtures[name]
        image = rng.sample(labels + list(range(100, 100 + len(K.vertices))),
                           len(K.vertices))
        yield f"{name}~", cx.relabel(K, dict(zip(K.vertices, image)))


def test_packed_faces_match_the_tuple_build(fixtures):
    for name, K0 in _code_oracle_complexes(fixtures):
        K = cx.SimplicialComplex(K0.maximal_simplices)
        n, want = K.dimension, _tuple_faces(K)
        # the tables, before any tuple is decoded
        tables = {(m, pos): K.face_table(m, pos) for m in range(1, n + 1)
                  for pos in map(functools.partial(faces.ridge, m),
                                 range(m + 1))}
        if n <= 6:  # every block cup_cochain_f2 can ask for
            for m, i, p in itertools.product(range(n + 1), repeat=3):
                for xpos, ypos in cx.cut_patterns(m, i, p):
                    for pos in (xpos, ypos):
                        tables[m, pos] = K.face_table(m, pos)
        assert not any(key[0] in ("simp", "idx") for key in K._cache), name
        assert K.n_simplices(-1) == K.n_simplices(n + 1) == 0, name
        assert K.simplices(-1) == K.simplices(n + 1) == (), name
        for k in range(n + 1):
            assert K.n_simplices(k) == len(want[k]), (name, k)
            assert K.simplices(k) == want[k], (name, k)
            idx = K.simplex_index(k)
            assert list(idx) == list(want[k]), (name, k)
            assert list(idx.values()) == list(range(len(want[k])))
        for (m, pos), table in tables.items():
            assert table == _tuple_face_table(want, m, pos), (name, m, pos)
            # every entry is the very int object simplex_index holds
            ints = list(K.simplex_index(len(pos) - 1).values())
            assert all(f is ints[f] for f in table), (name, m, pos)


def test_panel_and_compare_decode_no_simplex(fixtures, monkeypatch, capsys):
    # the panel path reads codes, counts and face tables alone: the
    # orientation tag names maximal_simplices[0], the walk sizes its ends
    # by n_simplices, and the spanning forest joins vertex ranks
    complexes = list(_clearing_complexes(fixtures))
    for (name, K), (_, L) in zip(complexes[::2], complexes[1::2]):
        intersection.panel(K)
        loads = iter([K, L])  # each complex and its relabeled copy
        monkeypatch.setattr("topinv.cli._load", lambda arg, path: next(loads))
        assert cli.main(["compare", "-", "-"]) == 0, name
        for M in (K, L):
            assert {key[0] for key in M._cache} >= {"code", "face"}, name
            assert not any(key[0] in ("simp", "idx") for key in M._cache), name
    capsys.readouterr()


def test_gather_on_every_position_is_the_cochain(fixtures):
    rng = random.Random(3233)
    for name, K0 in _walk_oracle_complexes(fixtures):
        K = cx.SimplicialComplex(K0.maximal_simplices)
        n = K.dimension
        every = tuple(range(n + 1))
        intersection.panel(K)
        # the one-part partition (n) of sw_numbers builds no identity table
        assert ("face", n, every) not in K._cache, name
        nn = K.n_simplices(n)
        for x in (0, (1 << nn) - 1, rng.getrandbits(nn),
                  rng.getrandbits(nn) | rng.getrandbits(8) << nn | 1 << nn):
            # the table path, gather's other branch, as it reads any pos
            pick = operator.itemgetter(*K.face_table(n, every))
            bits = format(x, f"0{nn}b")[::-1]
            want = int("".join(pick(bits))[::-1], 2)
            assert K.gather(n, every, x) == want, name


def _clearing_complexes(fixtures):
    """Pseudo-manifolds, non-orientable ones too, with seeded relabelings."""
    T, P, KB = catalog.torus(), catalog.projective_plane(), catalog.klein_bottle()
    bases = dict(fixtures)
    bases["T2xS2"] = cx.product_complex(T, catalog.sphere(2))
    bases["T2xT2"] = cx.product_complex(T, T)
    bases["RP2xRP2"] = cx.product_complex(P, P)
    bases["K2xT2"] = cx.product_complex(KB, T)
    rng = random.Random(3234)
    for name, K in bases.items():
        yield name, cx.SimplicialComplex(K.maximal_simplices)
        perm = rng.sample(range(3 * len(K.vertices)), len(K.vertices))
        yield f"{name}~", cx.relabel(K, dict(zip(K.vertices, perm)))


def test_facet_walk_tree_is_unit_triangular(fixtures):
    # each tree ridge joins one facet reached before it to the one it
    # reaches, so the ridges give back the discovery order; delta_(n-1) on
    # the facets past the first, in that order, and the tree ridges, in
    # theirs, has units on the diagonal and nothing below it
    for name, K in _clearing_complexes(fixtures):
        n = K.dimension
        K.fundamental_class_f2()
        K._facet_walk()
        tree = list(K._cache[("tree",)])
        nn = K.n_simplices(n)
        assert len(tree) == len(set(tree)) == nn - 1, name
        delta = _coboundary_z_by_slices(K, n - 1)
        ends = collections.defaultdict(list)
        for t, row in enumerate(delta):
            for r in row:
                ends[r].append(t)
        order, reached = [0], {0}
        for r in tree:
            new = [t for t in ends[r] if t not in reached]
            assert len(new) == 1 and len(ends[r]) == 2, name
            order += new
            reached |= set(new)
        for p, t in enumerate(order[1:]):
            for q, r in enumerate(tree):
                x = delta[t].get(r, 0)
                if p == q:
                    assert x in (1, -1), name
                elif p > q:
                    assert x == 0, name
        if n >= 2:
            assert K._walk_tree(n - 2) == frozenset(tree), name
        assert K._walk_tree(n - 1) == K._walk_tree(n - 3) == frozenset()


def _free_cocycles_uncleared(K, k):
    """free_cocycles with no row cleared: the units of every column of
    delta_(k-1) and every row of delta_k."""
    nk = K.n_simplices(k)
    image_pivots, image, _ = zlinalg.eliminate_units(zlinalg.transpose(
        K.coboundary_z(k - 1), K.n_simplices(k - 1)), nk)
    off = {j for j, _ in image_pivots}
    pivots, rest, _ = zlinalg.eliminate_units(
        [{c: x for c, x in row.items() if c not in off}
         for row in K.coboundary_z(k)], nk)
    free = sorted(set(range(nk)) - off - {j for j, _ in pivots})
    at = dict(zip(free, range(len(free))))
    dz = zlinalg.diagonalize(
        [{at[c]: x for c, x in row.items()} for row in rest], len(free))
    image_at = zlinalg.transpose(image, nk)
    out = []
    for y in zlinalg.kernel_quotient(
            dz, [image_at[c] for c in free], len(image)):
        x = [0] * nk
        for c, v in zip(free, y):
            x[c] = v
        for j, row in reversed(pivots):
            x[j] = -row[j] * sum(v * x[c] for c, v in row.items())
        out.append(tuple(x))
    return out


def _gram(K, basis):
    fc = K.fundamental_class_z()
    return [[sum(map(operator.mul, cx.cup_cochain_z(K, 2, 2, x, y), fc))
             for y in basis] for x in basis]


def test_cleared_free_cocycles_give_the_uncleared_form(fixtures, monkeypatch):
    # rank, det, signature and parity fix a unimodular form: an indefinite
    # one up to isomorphism, and a definite one here is +-I_1 or empty
    from topinv import quadforms
    calls = []
    eliminate_units = zlinalg.eliminate_units

    def recording(a, ncols, b=None, skip=()):
        calls.append(sum(i not in skip for i in range(len(a))))
        return eliminate_units(a, ncols, b, skip)

    for name, K in _clearing_complexes(fixtures):
        if K.dimension != 4 or not charclasses.sw_classes(K)[1].is_zero:
            continue  # no form: not 4-dimensional, or non-orientable
        want = _gram(K, _free_cocycles_uncleared(K, 2))
        monkeypatch.setattr(zlinalg, "eliminate_units", recording)
        calls.clear()
        got = _gram(K, K.free_cocycles(2))
        monkeypatch.undo()
        # the rows reduced: the image step skips the V - 1 forest edges (K
        # is connected), the kernel step the N_4 - 1 tree ridges
        assert calls == [K.n_simplices(1) - (len(K.vertices) - 1),
                         K.n_simplices(3) - (K.n_simplices(4) - 1)], name
        assert len(got) == len(want) == cx.homology(K, "Z")[2].betti, name
        if not got:
            continue
        f, g = quadforms.QuadraticForm(got), quadforms.QuadraticForm(want)
        assert abs(zlinalg.det(got)) == abs(zlinalg.det(want)) == 1, name
        assert zlinalg.det(got) == zlinalg.det(want), name
        assert quadforms.real_signature(f) == quadforms.real_signature(g)
        assert quadforms.is_even(f) == quadforms.is_even(g), name


def _bockstein_uncleared(K, x):
    """bockstein's flag with no row of delta_k cleared."""
    nk = K.n_simplices(x.degree)
    lift = [(x.cocycle >> i) & 1 for i in range(nk)]
    beta = [v // 2 for v in zlinalg.matvec(K.coboundary_z(x.degree), lift)]
    _, rest, b = zlinalg.eliminate_units(K.coboundary_z(x.degree), nk, beta)
    return zlinalg.solve(zlinalg.diagonalize(rest, nk), b) is not None


def test_cleared_bockstein_flag_matches_uncleared(fixtures):
    from topinv import steenrod
    flags = set()
    for name, K in _clearing_complexes(fixtures):
        if K.dimension < 2:
            continue
        k = K.dimension - 2
        K.fundamental_class_f2()
        assert K._walk_tree(k), name
        for b in K.cohomology_f2(k).basis:
            x = cx.f2_class(K, k, b)
            flag = steenrod.bockstein(K, x)[1]
            assert flag == _bockstein_uncleared(K, x), name
            flags.add(flag)
    assert flags == {True, False}
