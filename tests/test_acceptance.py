"""Acceptance gate: the ten headline checks, each with a time budget.

Every test prints one PASS line with its elapsed time so the suite run
doubles as an acceptance report (run with -s to see the lines).
"""

import itertools
import math
import random
import time

import pytest

from topinv import catalog, charclasses, intersection, steenrod, zlinalg
from topinv import complexes as cx
from topinv import quadforms as qf


def budget(name, t0, limit):
    dt = time.monotonic() - t0
    assert dt < limit, f"{name}: {dt:.2f}s exceeded {limit}s budget"
    print(f"PASS {name} ({dt:.2f}s, budget {limit}s)")


def random_closed_under_faces(rng, max_vertices=8):
    return catalog.random_complex(rng, max_vertices)


def all_f2_classes(K):
    out = []
    for k in range(K.dimension + 1):
        for b in K.cohomology_f2(k).basis:
            out.append(cx.f2_class(K, k, b))
    return out


def check_steenrod_axioms(K):
    n = K.dimension
    cls = all_f2_classes(K)
    for x in cls:
        q = x.degree
        # Sq^0 = id, squaring at the top, vanishing above the degree
        assert steenrod.sq(K, 0, x).coords == x.coords
        if 2 * q <= n:
            assert steenrod.sq(K, q, x).coords == \
                cx.cup_product(K, x, x).coords
        assert steenrod.sq(K, q + 1, x).is_zero
        assert steenrod.sq(K, q + 2, x).is_zero
    # Cartan on all cup-composable basis pairs
    for x in cls:
        for y in cls:
            if x.degree + y.degree > n:
                continue
            xy = cx.cup_product(K, x, y)
            for k in range(0, n - x.degree - y.degree + 1):
                lhs = steenrod.sq(K, k, xy)
                acc = 0
                for j in range(0, k + 1):
                    acc ^= cx.cup_product(
                        K, steenrod.sq(K, j, x),
                        steenrod.sq(K, k - j, y)).coords
                assert lhs.coords == acc
    # Adem in the composable range
    for x in cls:
        for b in range(1, n + 1):
            for a in range(1, 2 * b):
                if x.degree + a + b > n:
                    continue
                lhs = steenrod.sq(K, a, steenrod.sq(K, b, x))
                acc = 0
                for j in range(0, a // 2 + 1):
                    # j <= a // 2 <= b - 1, so both arguments are >= 0
                    if math.comb(b - 1 - j, a - 2 * j) % 2:
                        acc ^= steenrod.sq(
                            K, a + b - j, steenrod.sq(K, j, x)).coords
                assert lhs.coords == acc


def test_01_steenrod_axiom_suite(fixtures):
    t0 = time.monotonic()
    for name in ("RP2", "T2", "K2", "S2"):
        check_steenrod_axioms(fixtures[name])
    rng = random.Random(2024)
    for _ in range(20):
        check_steenrod_axioms(random_closed_under_faces(rng))
    budget("steenrod axiom suite", t0, 60)


def test_02_rp2_fixture(fixtures):
    t0 = time.monotonic()
    K = fixtures["RP2"]
    prof = charclasses.profile(K)
    assert prof.sw_nonzero_degrees == [0, 1, 2]       # w = 1 + a + a^2
    a = prof.sw[1]
    a2 = cx.cup_product(K, a, a)
    assert a2.coords == prof.sw[2].coords
    assert prof.sw_numbers == {(2,): 1, (1, 1): 1}
    ob = charclasses.obstructions(K)
    assert ob.orientable is False
    assert ob.null_cobordant is False
    assert prof.integral_sw_nonzero[1] is True        # W_2 = beta(w_1) != 0
    budget("RP2 fixture", t0, 1)


def test_03_torus_vs_klein(fixtures):
    t0 = time.monotonic()
    T, K = fixtures["T2"], fixtures["K2"]
    same, _ = charclasses.cobordant([T, K])
    assert same is True
    assert charclasses.obstructions(T).spin is True
    assert charclasses.obstructions(K).spin is False
    assert charclasses.obstructions(K).orientable is False
    budget("torus vs klein bottle", t0, 1)


def test_04_cp2(fixtures):
    t0 = time.monotonic()
    K = fixtures["CP2"]
    assert abs(intersection.signature(K)) == 1
    form = intersection.intersection_form(K)
    g = qf.QuadraticForm(form.gram)
    assert qf.is_even(g) is False                     # gram route
    v2 = charclasses.wu_classes(K)[2]
    assert not v2.is_zero                             # middle Wu route
    assert intersection.form_even(K) is False         # both routes, checked
    ob = charclasses.obstructions(K)
    assert ob.spin is False and ob.spin_c is True
    budget("9-vertex CP2", t0, 10)


def test_05_s2xs2(fixtures):
    t0 = time.monotonic()
    K = fixtures["S2xS2"]
    assert intersection.signature(K) == 0
    assert intersection.form_even(K) is True
    assert charclasses.wu_classes(K)[2].is_zero
    assert charclasses.obstructions(K).spin is True
    budget("S2 x S2", t0, 30)


def _random_form(rng):
    n = rng.randint(1, 6)
    diag = []
    for _ in range(n):
        v = 1
        for p in (2, 3, 5, 7, 11, 13):
            v *= p ** rng.randint(0, 2)
        if rng.random() < 0.3:
            from fractions import Fraction
            v = Fraction(1, v)
        if rng.random() < 0.5:
            v = -v
        diag.append(v)
    return qf.QuadraticForm(
        [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])


def test_06_reciprocity(rng):
    t0 = time.monotonic()
    forms = [_random_form(rng) for _ in range(220)]
    for f in forms:
        assert qf.reciprocity_residual(f) == 0
    budget("reciprocity on 220 random forms", t0, 5)


def test_07_signature_mod8_from_local(rng):
    t0 = time.monotonic()
    forms = [_random_form(rng) for _ in range(220)]
    forms.append(qf.QuadraticForm(catalog.e8_gram()))
    forms.append(qf.QuadraticForm(catalog.hyperbolic_gram()))
    for n in (1, 2, 5, 8):
        forms.append(qf.QuadraticForm(catalog.identity_gram(n)))
    for f in forms:
        assert qf.signature_mod8_from_local(f) == qf.real_signature(f) % 8
    budget("signature mod 8 local route", t0, 5)


def _random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            for k in range(n):
                m[i][k] += c * m[j][k]
    return m


def test_08_hasse_minkowski(rng):
    t0 = time.monotonic()
    i2 = qf.QuadraticForm(catalog.identity_gram(2))
    assert qf.rationally_equivalent(i2, qf.QuadraticForm([[2, 0], [0, 2]]))
    res = qf.rationally_equivalent(i2, qf.QuadraticForm([[1, 0], [0, -1]]))
    assert not res and res.failing == "signature"
    assert qf.rationally_equivalent(qf.QuadraticForm(catalog.e8_gram()),
                                    qf.QuadraticForm(catalog.identity_gram(8)))
    done = 0
    while done < 100:
        f = _random_form(rng)
        s = _random_unimodular(rng, f.dim)
        rows = [[sum(s[i][a] * f.gram[a][b] * s[j][b]
                     for a in range(f.dim) for b in range(f.dim))
                 for j in range(f.dim)] for i in range(f.dim)]
        g = qf.QuadraticForm(rows)
        assert qf.real_signature(f) == qf.real_signature(g)
        assert qf.oddity(f) == qf.oddity(g)
        for p in set(qf.relevant_odd_primes(f)) | set(qf.relevant_odd_primes(g)):
            lf, lg = qf.local_invariants(f, p), qf.local_invariants(g, p)
            assert lf.p_signature == lg.p_signature
            assert lf.p_excess == lg.p_excess
        assert qf.rationally_equivalent(f, g)
        done += 1
    budget("hasse-minkowski fixtures + 100 congruences", t0, 10)


def test_09_relabeling_invariance(fixtures):
    t0 = time.monotonic()
    rng = random.Random(4242)
    for name, K in fixtures.items():
        perm = list(K.vertices)
        rng.shuffle(perm)
        L = cx.relabel(K, dict(zip(K.vertices, perm)))
        p1 = intersection.panel(K)
        p2 = intersection.panel(L)
        assert p1.sw_numbers == p2.sw_numbers, name
        for field in ("dim", "orientable", "k_orientable_max", "spin",
                      "spin_c", "de_rham", "even_form"):
            assert getattr(p1, field) == getattr(p2, field), (name, field)
        # orientation is chosen per complex, so signatures match up to sign
        if p1.signature is None:
            assert p2.signature is None, name
        else:
            assert abs(p1.signature) == abs(p2.signature), name
    budget("relabeling invariance of panels", t0, 30)


def test_10_comparator_semantics(fixtures):
    t0 = time.monotonic()
    for name, K in fixtures.items():
        res = intersection.compare_panels(K, K)
        assert res.consistent, name
        assert res.differing == [], name
    res = intersection.compare_panels(fixtures["S2"], fixtures["CP2"])
    assert res.verdict == "distinguished by dimension"
    assert res.differing == ["dim"]
    budget("comparator semantics", t0, 5)
