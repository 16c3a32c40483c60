import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topinv import catalog, f2linalg, steenrod, zlinalg
from topinv import complexes as cx


def reference_cup_i(K, x, p, y, q, i):
    """Per-simplex cup-i: the loop the face-table kernel replaced."""
    n = p + q - i
    if n > K.dimension or n < 0:
        return 0
    ip = K.simplex_index(p)
    iq = K.simplex_index(q)
    pats = cx.cut_patterns(n, i, p)
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


def reference_cup_cochain_f2(K, p, q, x, y):
    """Per-simplex front-face times back-face cup product."""
    n = p + q
    if n > K.dimension:
        return 0
    ip = K.simplex_index(p)
    iq = K.simplex_index(q)
    out = 0
    for s_i, s in enumerate(K.simplices(n)):
        front = ip.get(s[:p + 1])
        back = iq.get(s[p:])
        if front is None or back is None:
            continue
        if (x >> front) & (y >> back) & 1:
            out ^= 1 << s_i
    return out


def coboundary_apply_f2(K, k, x):
    """delta(x) for an F2 k-cochain mask: the xor of the columns at its bits."""
    out = 0
    for j, col in enumerate(K.coboundary_f2(k)):
        if (x >> j) & 1:
            out ^= col
    return out


def coboundary_defect(K, x, p, y, q, i):
    """delta(x cup_i y) minus its Leibniz-plus-shift expansion, over F2:
    zero for all cochains, the identity behind the Steenrod squares."""
    cup_i = steenrod.cup_i
    lhs = coboundary_apply_f2(K, p + q - i, cup_i(K, x, p, y, q, i))
    rhs = cup_i(K, coboundary_apply_f2(K, p, x), p + 1, y, q, i)
    rhs ^= cup_i(K, x, p, coboundary_apply_f2(K, q, y), q + 1, i)
    if i > 0:
        rhs ^= cup_i(K, x, p, y, q, i - 1)
        rhs ^= cup_i(K, y, q, x, p, i - 1)
    return lhs ^ rhs


def transport_f2_cochain(src, dst, k, mask, mapping):
    """Push an F2 cochain through a vertex relabeling."""
    idx = dst.simplex_index(k)
    out = 0
    for i, s in enumerate(src.simplices(k)):
        if (mask >> i) & 1:
            out ^= 1 << idx[tuple(sorted(mapping[v] for v in s))]
    return out


def binom2(m: int, n: int) -> int:
    """Binomial coefficient mod 2 by Lucas (zero outside 0 <= n <= m)."""
    if n < 0 or m < 0 or n > m:
        return 0
    return 1 if ((m - n) & n) == 0 else 0


def all_f2_classes(K):
    out = []
    for k in range(K.dimension + 1):
        for b in K.cohomology_f2(k).basis:
            out.append(cx.f2_class(K, k, b))
    return out


def test_cup_i_degree_validation(fixtures):
    K = fixtures["T2"]
    with pytest.raises(ValueError, match="cup-i"):
        steenrod.cup_i(K, 0, 1, 0, 1, -1)
    with pytest.raises(ValueError, match="cup-i"):
        steenrod.cup_i(K, 0, 1, 0, 2, 2)


def test_cup_0_is_cup_product(fixtures):
    for name in ("RP2", "T2", "K2"):
        K = fixtures[name]
        rng = random.Random(7)
        for _ in range(20):
            p = rng.randint(0, 2)
            q = rng.randint(0, 2 - p)
            x = rng.getrandbits(K.n_simplices(p))
            y = rng.getrandbits(K.n_simplices(q))
            assert steenrod.cup_i(K, x, p, y, q, 0) == \
                cx.cup_cochain_f2(K, p, q, x, y)


def degree_triples(n):
    """Every (p, q, i) with a cup-i product landing in degrees 0..n."""
    return [(p, q, i) for p in range(n + 1) for q in range(n + 1)
            for i in range(min(p, q) + 1) if p + q - i <= n]


def operand_pairs(K, p, q, rng):
    """Random cochains, zero, all ones, and cochains with bits above f_p."""
    fp, fq = K.n_simplices(p), K.n_simplices(q)
    ones_p, ones_q = (1 << fp) - 1, (1 << fq) - 1
    x, y = rng.getrandbits(fp), rng.getrandbits(fq)
    high = rng.getrandbits(40) | 1
    return [(x, y), (0, y), (x, 0), (ones_p, ones_q), (ones_p, y),
            (x | high << fp, y | high << fq)]


@pytest.fixture(scope="module")
def products():
    """Fresh product complexes from the f2-nonorientable benchmark."""
    return {"RP2xS3": cx.product_complex(catalog.projective_plane(),
                                         catalog.sphere(3)),
            "K2xT2": cx.product_complex(catalog.klein_bottle(),
                                        catalog.torus())}


def assert_kernel_matches_oracle(K, rng, name):
    for p, q, i in degree_triples(K.dimension):
        for x, y in operand_pairs(K, p, q, rng):
            want = reference_cup_i(K, x, p, y, q, i)
            assert steenrod.cup_i(K, x, p, y, q, i) == want, (name, p, q, i)
            if i == 0:
                assert want == reference_cup_cochain_f2(K, p, q, x, y)
                assert cx.cup_cochain_f2(K, p, q, x, y) == want, (name, p, q)


def test_kernel_matches_oracle_on_fixtures(fixtures):
    rng = random.Random(11)
    for name, K in fixtures.items():
        assert_kernel_matches_oracle(K, rng, name)


@pytest.mark.parametrize("name", ["RP2xS3", "K2xT2"])
def test_kernel_matches_oracle_on_products(products, name):
    assert_kernel_matches_oracle(products[name], random.Random(12), name)


@pytest.mark.parametrize("facets", [[(0, 1, 2)], [(0, 1, 2, 3)],
                                    [(0, 1, 2), (1, 2, 3)], [(0, 1)]])
def test_kernel_matches_oracle_exhaustively_on_small_complexes(facets):
    # a single top simplex makes itemgetter over the face table return one
    # character rather than a tuple
    K = cx.SimplicialComplex(facets)
    for p, q, i in degree_triples(K.dimension):
        for x in range(1 << (K.n_simplices(p) + 1)):
            for y in range(1 << (K.n_simplices(q) + 1)):
                assert steenrod.cup_i(K, x, p, y, q, i) == \
                    reference_cup_i(K, x, p, y, q, i), (facets, p, q, i, x, y)


def test_duality_pairing_matches_per_pair_cup(fixtures, products):
    for name, K in {**fixtures, **products}.items():
        n = K.dimension
        fc = K.fundamental_class_f2()
        for k in range(n + 1):
            ys = K.cohomology_f2(n - k).basis
            want = [sum(f2linalg.dot(reference_cup_cochain_f2(
                            K, k, n - k, xb, yb), fc) << j
                        for j, yb in enumerate(ys))
                    for xb in K.cohomology_f2(k).basis]
            assert cx.duality_pairing_f2(K, k) == want, (name, k)


def test_coboundary_identity_random(fixtures, rng):
    # d(x u_i y) = dx u_i y + x u_i dy + x u_{i-1} y + y u_{i-1} x
    for name in ("RP2", "T2", "K2", "S2"):
        K = fixtures[name]
        n = K.dimension
        for _ in range(60):
            p = rng.randint(0, n)
            q = rng.randint(0, n)
            i = rng.randint(0, min(p, q))
            x = rng.getrandbits(K.n_simplices(p))
            y = rng.getrandbits(K.n_simplices(q))
            assert coboundary_defect(K, x, p, y, q, i) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 21 - 1),
       st.integers(min_value=0, max_value=2 ** 21 - 1),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2))
def test_coboundary_identity_exhaustive_degrees(xbits, ybits, p, q, i):
    K = catalog.torus()
    if i > min(p, q):
        i = min(p, q)
    x = xbits & ((1 << K.n_simplices(p)) - 1)
    y = ybits & ((1 << K.n_simplices(q)) - 1)
    assert coboundary_defect(K, x, p, y, q, i) == 0


def test_sq0_is_identity(fixtures):
    for K in fixtures.values():
        for x in all_f2_classes(K):
            y = steenrod.sq(K, 0, x)
            assert y.coords == x.coords and y.degree == x.degree


def test_sq_top_is_squaring(fixtures):
    # Sq^q on a degree-q class is the cup square
    for K in fixtures.values():
        n = K.dimension
        for x in all_f2_classes(K):
            if 2 * x.degree > n:
                continue
            y = steenrod.sq(K, x.degree, x)
            z = cx.cup_product(K, x, x)
            assert y.coords == z.coords


def test_sq_vanishes_above_degree(fixtures):
    for K in fixtures.values():
        for x in all_f2_classes(K):
            y = steenrod.sq(K, x.degree + 1, x)
            assert y.is_zero


def test_sq_additive(fixtures, rng):
    for name in ("RP2", "T2", "K2", "CP2"):
        K = fixtures[name]
        n = K.dimension
        for q in range(n + 1):
            h = K.cohomology_f2(q)
            if h.dim == 0:
                continue
            for _ in range(6):
                xm = 0
                ym = 0
                for b in h.basis:
                    if rng.random() < 0.5:
                        xm ^= b
                    if rng.random() < 0.5:
                        ym ^= b
                for k in range(0, q + 1):
                    sx = steenrod.sq(K, k, cx.f2_class(K, q, xm))
                    sy = steenrod.sq(K, k, cx.f2_class(K, q, ym))
                    sxy = steenrod.sq(K, k, cx.f2_class(K, q, xm ^ ym))
                    assert sxy.coords == (sx.coords ^ sy.coords)


def test_cartan_formula(fixtures):
    # Sq^k(x u y) = sum_j Sq^j x u Sq^{k-j} y
    for name in ("RP2", "T2", "K2", "CP2"):
        K = fixtures[name]
        n = K.dimension
        cls = all_f2_classes(K)
        for x in cls:
            for y in cls:
                if x.degree + y.degree > n:
                    continue
                xy = cx.cup_product(K, x, y)
                for k in range(0, n - x.degree - y.degree + 1):
                    lhs = steenrod.sq(K, k, xy)
                    acc = 0
                    for j in range(0, k + 1):
                        sx = steenrod.sq(K, j, x)
                        sy = steenrod.sq(K, k - j, y)
                        acc ^= cx.cup_product(K, sx, sy).coords
                    assert lhs.coords == acc, (name, x.degree, y.degree, k)


def test_adem_relations(fixtures):
    # Sq^a Sq^b = sum_j C(b-1-j, a-2j) Sq^{a+b-j} Sq^j  for a < 2b
    for name in ("RP2", "K2", "CP2", "S2xS2"):
        K = fixtures[name]
        n = K.dimension
        for x in all_f2_classes(K):
            for b in range(1, n + 1):
                for a in range(1, 2 * b):
                    if x.degree + a + b > n:
                        continue
                    lhs = steenrod.sq(K, a, steenrod.sq(K, b, x))
                    acc = 0
                    for j in range(0, a // 2 + 1):
                        if binom2(b - 1 - j, a - 2 * j):
                            acc ^= steenrod.sq(
                                K, a + b - j, steenrod.sq(K, j, x)).coords
                    assert lhs.coords == acc, (name, a, b, x.degree)


def test_binom2_lucas():
    import math
    for m in range(0, 12):
        for n in range(0, 12):
            want = math.comb(m, n) % 2 if m >= n >= 0 else 0
            assert binom2(m, n) == want


def test_sq_errors(fixtures):
    K = fixtures["T2"]
    x = cx.f2_class(K, 0, K.cohomology_f2(0).basis[0])
    with pytest.raises(ValueError, match="negative"):
        steenrod.sq(K, -1, x)


def pinned_in_coboundary_image(K, q, b):
    """Whether delta_q c = b has an integral solution, by the pinned
    diagonalization of delta_q alone."""
    dz = zlinalg.diagonalize(K.coboundary_z(q), K.n_simplices(q))
    return zlinalg.solve(dz, list(b)) is not None


def test_bockstein_rp2(fixtures):
    # beta(a) generates H^2(RP2; Z) = Z/2
    K = fixtures["RP2"]
    a = cx.f2_class(K, 1, K.cohomology_f2(1).basis[0])
    bz, zero = steenrod.bockstein(K, a)
    assert not zero
    assert len(bz) == K.n_simplices(2)
    assert not pinned_in_coboundary_image(K, 1, bz)


def test_bockstein_torus_vanishes(fixtures):
    K = fixtures["T2"]
    for b in K.cohomology_f2(1).basis:
        _, zero = steenrod.bockstein(K, cx.f2_class(K, 1, b))
        assert zero


def test_bockstein_order_two(fixtures):
    # 2 beta(x) = 0 in integral cohomology
    for name in ("RP2", "K2"):
        K = fixtures[name]
        for q in range(K.dimension):
            for b in K.cohomology_f2(q).basis:
                bz, _ = steenrod.bockstein(K, cx.f2_class(K, q, b))
                doubled = tuple(2 * v for v in bz)
                assert pinned_in_coboundary_image(K, q, doubled)


def test_bockstein_verdicts_match_both_ways(fixtures, pinned_calls):
    # beta of every F2 basis class, decided on delta_k with its unit pivots
    # eliminated first and with no H^k(K; Z) built, the same again once the
    # pinned elimination of H^k(K; Z) has run, and against the pinned
    # factor; and beta of a zero class, delta y mod 2, which needs no solve
    rng = random.Random(99)
    nonzero = 0
    for name, K0 in fixtures.items():
        K = cx.SimplicialComplex(K0.maximal_simplices)
        for q in range(K.dimension + 1):
            classes = [cx.f2_class(K, q, b) for b in K.cohomology_f2(q).basis]
            zero = 0
            for col in K.coboundary_f2(q - 1) if q else []:
                if rng.random() < 0.5:
                    zero ^= col
            classes.append(cx.f2_class(K, q, zero))
            front = [steenrod.bockstein(K, x) for x in classes]
            assert pinned_calls == []
            pinned_dz = zlinalg.diagonalize(K.coboundary_z(q),
                                            K.n_simplices(q))
            K.cohomology_z(q)
            pinned_calls.clear()
            assert [steenrod.bockstein(K, x) for x in classes] == front
            for bz, is_zero in front:
                solved = zlinalg.solve(pinned_dz, list(bz)) is not None
                assert is_zero == solved, (name, q)
                nonzero += not is_zero
    # RP2 and K2 have 2-torsion in H^2, hit by beta
    assert nonzero >= 2


def test_bockstein_rejects_non_cocycle(fixtures):
    K = fixtures["T2"]
    mask = 1  # a single edge is not an F2 cocycle on the torus
    x = cx.CohomologyClass(1, mask, 0)
    with pytest.raises(ValueError, match="not a cocycle mod 2"):
        steenrod.bockstein(K, x)


def test_bockstein_squared_zero(fixtures):
    # beta . reduce . beta = 0: Sq^1 Sq^1 = 0 as the F2 shadow
    for name in ("RP2", "K2", "CP2"):
        K = fixtures[name]
        for x in all_f2_classes(K):
            if x.degree + 2 > K.dimension:
                continue
            y = steenrod.sq(K, 1, steenrod.sq(K, 1, x))
            assert y.is_zero


def test_sq_naturality_under_relabeling(fixtures):
    rng = random.Random(5)
    for name in ("RP2", "K2", "T2"):
        K = fixtures[name]
        perm = list(K.vertices)
        rng.shuffle(perm)
        mapping = dict(zip(K.vertices, perm))
        L = cx.relabel(K, mapping)
        n = K.dimension
        for q in range(n + 1):
            for b in K.cohomology_f2(q).basis:
                tb = transport_f2_cochain(K, L, q, b, mapping)
                for k in range(0, n - q + 1):
                    sk = steenrod.sq(K, k, cx.f2_class(K, q, b))
                    sl = steenrod.sq(L, k, cx.f2_class(L, q, tb))
                    tsk = transport_f2_cochain(
                        K, L, q + k, sk.cocycle, mapping)
                    assert L.cohomology_f2(q + k).coords(tsk) == sl.coords
