import dataclasses
import itertools
import random

import pytest

from topinv import catalog, charclasses, cli, intersection, quadforms, zlinalg
from topinv import complexes as cx


def test_s4_empty_form(fixtures):
    K = fixtures["S4"]
    form = intersection.intersection_form(K)
    assert form.rank == 0
    assert form.gram == []
    assert intersection.signature(K) == 0
    assert intersection.signature_mod8(K) == 0
    assert intersection.form_even(K) is True


def test_cp2_form(fixtures):
    K = fixtures["CP2"]
    form = intersection.intersection_form(K)
    assert form.rank == 1
    assert form.gram in ([[1]], [[-1]])
    assert abs(intersection.signature(K)) == 1
    assert intersection.signature_mod8(K) in (1, 7)
    assert intersection.form_even(K) is False
    assert form.orientation_tag.startswith("+1 on ")


def test_s2xs2_form(fixtures):
    K = fixtures["S2xS2"]
    form = intersection.intersection_form(K)
    assert form.rank == 2
    # hyperbolic plane up to sign and basis order
    assert abs(zlinalg.det(form.gram)) == 1
    assert intersection.signature(K) == 0
    assert intersection.signature_mod8(K) == 0
    assert intersection.form_even(K) is True
    assert form.gram[0][0] == 0 and form.gram[1][1] == 0
    assert abs(form.gram[0][1]) == 1


def test_panel_form_matches_pinned_form(fixtures, monkeypatch):
    # the panel's unit-first basis and the pinned one the intersection verb
    # prints give congruent forms: unimodular, with the same invariants;
    # the panel and the comparator build no H^k(K; Z), and the verb builds
    # no unit-first form
    rng = random.Random(1707)
    bases = {name: fixtures[name] for name in ("CP2", "S2xS2", "S4")}
    bases["T2xT2"] = cx.product_complex(catalog.torus(), catalog.torus())
    for name, base in bases.items():
        copies = [base.maximal_simplices]
        for _ in range(3):
            image = rng.sample(range(2 * len(base.vertices)),
                               len(base.vertices))
            copies.append(cx.relabel(base, dict(zip(base.vertices, image)))
                          .maximal_simplices)
        for facets in copies:
            K, M, L = (cx.SimplicialComplex(facets) for _ in range(3))
            intersection.panel(K)
            assert intersection.compare_panels(K, M).consistent, name
            for X in (K, M):
                assert not [key for key in X._cache if key[0] == "hz"], name
            monkeypatch.setattr("topinv.cli._load", lambda name, path: L)
            assert cli.main(["intersection", "--json", "-"]) == 0
            assert ("pform",) not in L._cache, name
            new, pinned = intersection.panel_form(K), L._cache[("iform",)]
            assert abs(zlinalg.det(new.gram)) == 1, name
            f, g = new.quadratic_form, pinned.quadratic_form
            assert (new.rank, new.signature, new.signature_mod8,
                    new.even(K)) == (pinned.rank, pinned.signature,
                                     pinned.signature_mod8, pinned.even(L))
            assert quadforms.is_even(f) == quadforms.is_even(g), name
            assert quadforms.signature_mod8_from_local(f) == \
                quadforms.signature_mod8_from_local(g), name
            assert quadforms.rationally_equivalent(f, g).equivalent, name


def test_dimension_guard(fixtures):
    for name in ("S2", "S5", "T2"):
        with pytest.raises(cx.TopologyError, match="dimension not 4m"):
            intersection.intersection_form(fixtures[name])


def test_nonorientable_guard():
    # RP2 has the wrong dimension, so build a 4-dimensional non-orientable
    # example: RP2 x S2 via the staircase product
    K = cx.product_complex(catalog.projective_plane(), catalog.sphere(2))
    with pytest.raises(intersection.NonOrientableError):
        intersection.intersection_form(K)


def test_obstructions_do_not_depend_on_the_form_going_first():
    # the Bockstein of w_2 reads nothing the form leaves in the cache, so
    # the reports taken before and after it agree, and with the panel's
    complexes = dict(catalog.manifold_fixtures())
    complexes["RP2xS2"] = cx.product_complex(catalog.projective_plane(),
                                             catalog.sphere(2))
    for name, K in complexes.items():
        K = cx.SimplicialComplex(K.maximal_simplices)
        reports = []
        for _ in range(2):
            reports.append((charclasses.obstructions(K),
                            charclasses.integral_sw(K)))
            try:
                intersection.intersection_form(K)
            except cx.TopologyError:
                pass
        assert reports[0] == reports[1], name
        ob = reports[0][0]
        p = intersection.panel(K)
        assert (p.orientable, p.k_orientable_max, p.spin, p.spin_c,
                p.de_rham) == (ob.orientable, ob.k_orientable_max, ob.spin,
                               ob.spin_c, ob.de_rham), name


def test_orientation_flip_negates_gram(fixtures):
    # pairing against -[K] negates every entry; signature flips sign
    for name in ("CP2", "S2xS2"):
        K = fixtures[name]
        form = intersection.intersection_form(K)
        fc = K.fundamental_class_z()
        neg = tuple(-v for v in fc)
        gram2 = []
        for x in form.basis:
            row = []
            for y in form.basis:
                cup = cx.cup_cochain_z(K, 2 * form.m, 2 * form.m, x, y)
                row.append(sum(a * b for a, b in zip(cup, neg)))
            gram2.append(row)
        assert gram2 == [[-v for v in row] for row in form.gram]


def test_panel_field_presence(fixtures):
    for name, K in fixtures.items():
        p = intersection.panel(K)
        assert p.dim == K.dimension
        form_expected = K.dimension % 4 == 0 and K.dimension > 0 and \
            p.orientable
        for field in ("even_form", "signature_mod8", "signature"):
            if form_expected:
                assert getattr(p, field) is not None, (name, field)
            else:
                assert getattr(p, field) is None, (name, field)


def test_panel_reads_obstructions_and_its_form(fixtures):
    rp2 = catalog.projective_plane()
    shared = ["orientable", "k_orientable_max", "spin", "spin_c", "de_rham"]
    for name, K in {**fixtures,
                    "RP2xRP2": cx.product_complex(rp2, rp2)}.items():
        p = intersection.panel(K)
        ob = charclasses.obstructions(K)
        assert [f.name for f in dataclasses.fields(p)
                if hasattr(ob, f.name)] == shared
        assert [getattr(p, f) for f in shared] == [
            getattr(ob, f) for f in shared], name
        form_fields = [p.even_form, p.signature, p.signature_mod8]
        if p.signature is None:
            assert form_fields == [None] * 3, name
        else:
            form = intersection.panel_form(K)
            assert form_fields == [
                form.even(K), form.signature, form.signature_mod8], name


def test_panel_oracles(fixtures):
    p = intersection.panel(fixtures["CP2"])
    assert p.spin is False and p.spin_c is True
    assert p.even_form is False
    assert p.signature_mod8 in (1, 7)
    assert abs(p.signature) == 1
    q = intersection.panel(fixtures["S2xS2"])
    assert q.spin is True and q.even_form is True
    assert q.signature == 0 and q.signature_mod8 == 0
    assert intersection.panel(fixtures["T2"]).signature is None


def test_compare_distinguishes_cp2_from_s2xs2(fixtures):
    res = intersection.compare_panels(fixtures["CP2"], fixtures["S2xS2"])
    assert res.verdict == "distinguished"
    assert "sw_numbers" in res.differing
    assert "signature_mod8" in res.differing
    assert "spin" in res.differing
    assert not res.consistent


def test_compare_torus_klein(fixtures):
    res = intersection.compare_panels(fixtures["T2"], fixtures["K2"])
    assert res.verdict == "distinguished"
    assert "spin" in res.differing and "orientable" in res.differing
    assert "sw_numbers" not in res.differing


def test_compare_self_consistent(fixtures):
    for name, K in fixtures.items():
        res = intersection.compare_panels(K, K)
        assert res.consistent, name
        assert res.differing == [], name


def test_compare_dimension_mismatch(fixtures):
    res = intersection.compare_panels(fixtures["S2"], fixtures["S4"])
    assert res.verdict == "distinguished by dimension"
    assert res.differing == ["dim"]


def test_compare_symmetric(fixtures):
    names = list(fixtures)
    for a in names:
        for b in names:
            r1 = intersection.compare_panels(fixtures[a], fixtures[b])
            r2 = intersection.compare_panels(fixtures[b], fixtures[a])
            assert r1.verdict == r2.verdict, (a, b)
            assert set(r1.differing) == set(r2.differing), (a, b)


def test_signature_compared_up_to_sign(fixtures):
    # a mirror CP2 panel (signature -1) must not be distinguished from CP2
    p = intersection.panel(fixtures["CP2"])
    import dataclasses
    q = dataclasses.replace(
        p, signature=-p.signature,
        signature_mod8=(-p.signature_mod8) % 8)
    res = intersection.compare_panel_values(p, q)
    assert res.consistent
    assert res.differing == []


def test_forms_rationally_equivalent_both_signs(fixtures):
    CP2, S4, SS = fixtures["CP2"], fixtures["S4"], fixtures["S2xS2"]
    as_is, negated = intersection.forms_rationally_equivalent(CP2, CP2)
    assert as_is.equivalent
    assert not negated.equivalent          # <1> vs <-1> differ in signature
    assert negated.failing == "signature"
    as_is, negated = intersection.forms_rationally_equivalent(SS, SS)
    assert as_is.equivalent and negated.equivalent   # hyperbolic = -hyperbolic
    as_is, negated = intersection.forms_rationally_equivalent(CP2, SS)
    assert not as_is.equivalent and not negated.equivalent
    assert as_is.failing == "dimension"
    as_is, negated = intersection.forms_rationally_equivalent(S4, S4)
    assert as_is.equivalent and negated.equivalent   # empty forms


def test_panel_relabeling_invariant(fixtures):
    rng = random.Random(23)
    for name, K in fixtures.items():
        perm = list(K.vertices)
        rng.shuffle(perm)
        L = cx.relabel(K, dict(zip(K.vertices, perm)))
        res = intersection.compare_panels(K, L)
        assert res.consistent, (name, res.differing)
        assert res.differing == [], name


def test_t2xs2_panel_matches_kunneth_and_bounds():
    # a rung of the scale ladder: 336 facets, once a 68 s panel
    K = cx.product_complex(catalog.torus(), catalog.sphere(2))
    assert [K.n_simplices(k) for k in range(5)] == [28, 252, 728, 840, 336]
    # Kunneth: (1, 2, 1) x (1, 0, 1), and neither factor has torsion
    assert [(h.betti, h.torsion) for h in cx.homology(K, "Z")] == [
        (1, ()), (2, ()), (2, ()), (2, ()), (1, ())]
    p = intersection.panel(K)
    assert p.orientable and p.spin and p.spin_c and p.even_form
    # T2 x S2 bounds S1 x D2 x S2, so its signature and every
    # Stiefel-Whitney number vanish
    assert p.signature == 0 and p.signature_mod8 == 0
    assert len(p.sw_numbers) == 5 and set(p.sw_numbers.values()) == {0}


def test_t2xt2_panel_matches_kunneth_and_bounds():
    # the next rung: 1,176 facets, once an 8 s panel peaking at 542 MB
    K = cx.product_complex(catalog.torus(), catalog.torus())
    assert [K.n_simplices(k) for k in range(5)] == [49, 735, 2450, 2940, 1176]
    # Kunneth: (1, 2, 1) x (1, 2, 1), and neither factor has torsion
    assert [(h.betti, h.torsion) for h in cx.homology(K, "Z")] == [
        (1, ()), (4, ()), (6, ()), (4, ()), (1, ())]
    p = intersection.panel(K)
    assert p.orientable and p.spin and p.spin_c and p.even_form
    # T2 x T2 bounds T2 x D2 x S1, so its signature and every
    # Stiefel-Whitney number vanish
    assert p.signature == 0 and p.signature_mod8 == 0
    assert len(p.sw_numbers) == 5 and set(p.sw_numbers.values()) == {0}


def test_t2xt2_printed_gram_is_pinned():
    # the goldens print only rank 1 and 2 grams; this fixes the rank 6 one
    form = intersection.intersection_form(
        cx.product_complex(catalog.torus(), catalog.torus()))
    assert form.gram == [[0, 0, 1, 0, 1, -1], [0, 0, -1, 0, 0, 0],
                         [1, -1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
                         [1, 0, 1, 0, 0, 0], [-1, 0, 0, 1, 0, 0]]
    assert form.orientation_tag == "+1 on 0 1 3 10 24"


def _icosahedron():
    """The icosahedron's triangles, the antipodes of vertex 2p labeled
    2p + 1, from the vertices (0, +-1, +-phi) and their cyclic shifts,
    each coordinate exact as a + b phi with phi^2 = phi + 1."""
    def sq(a, b):
        return a * a + b * b, 2 * a * b + b * b

    def dist2(p, q):
        terms = [sq(x[0] - y[0], x[1] - y[1]) for x, y in zip(p, q)]
        return tuple(map(sum, zip(*terms)))

    pts = set()
    for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        base = [(0, 0), (s, 0), (0, t)]
        pts |= {tuple(base[r:] + base[:r]) for r in range(3)}
    label = {}
    for p in sorted(pts):
        if p not in label:
            label[p] = len(label)
            label[tuple((-a, -b) for a, b in p)] = len(label)
    return [tuple(label[p] for p in t)
            for t in itertools.combinations(sorted(pts), 3)
            if all(dist2(p, q) == (4, 0)
                   for p, q in itertools.combinations(t, 2))]


def _s2xs2_mod_antipodes():
    """(S2 x S2)/((x, y) ~ (-x, -y)): the staircase square of the
    icosahedron, whose triangles list their vertices in the order of
    their antipodal pairs, so the involution maps staircases to
    staircases; antipodes lie 3 edges apart, so the quotient is
    simplicial."""
    ico = cx.SimplicialComplex(_icosahedron())
    prod = cx.product_complex(ico, ico)

    def orbit(v):
        a, b = divmod(v, 12)  # the product labels (a, b) as 12 a + b
        return min(v, 12 * (a ^ 1) + (b ^ 1))
    return cx.SimplicialComplex({tuple(sorted(map(orbit, s)))
                                 for s in prod.maximal_simplices})


def test_even_form_with_nonzero_wu_class(tmp_path, capsys):
    # an even form does not force v_2 = 0: here H^2(M; F2) is all torsion
    # reductions, so the form has rank 0 and v_2 = w_2 != 0 (like the
    # Enriques surface, even and not spin)
    M = _s2xs2_mod_antipodes()
    assert [M.n_simplices(k) for k in range(5)] == [72, 810, 2540, 3000, 1200]
    assert [(h.betti, h.torsion) for h in cx.homology(M, "Z")] == [
        (1, ()), (0, (2,)), (0, (2,)), (0, ()), (1, ())]
    sw = charclasses.sw_classes(M)
    assert sw[1].is_zero and not sw[2].is_zero
    assert M.cohomology_f2(2).dim == 2
    p = intersection.panel(M)
    assert p.orientable and not p.spin and p.spin_c
    assert p.even_form is True and p.signature == 0 and p.signature_mod8 == 0
    assert set(p.sw_numbers.values()) == {0}
    path = tmp_path / "M.cx"
    path.write_text(cx.complex_text(M))
    capsys.readouterr()
    assert cli.main(["intersection", str(path)]) == 0
    out = capsys.readouterr().out
    assert "(rank 0," in out and "even: true" in out


def mapping_torus(K, phi):
    """K x [0, 3] with K x 3 glued to K x 0 through the vertex map phi:
    three layers of K, a staircase prism on each simplex between layers."""
    at = {v: i for i, v in enumerate(K.vertices)}

    def label(v, layer):
        return at[v] + len(at) * layer if layer < 3 else at[phi[v]]
    return cx.SimplicialComplex(
        tuple(label(v, layer) for v in s[:j + 1])
        + tuple(label(v, layer + 1) for v in s[j:])
        for s in K.maximal_simplices for layer in range(3)
        for j in range(len(s)))


def test_mapping_torus_of_cp2_fails_spin_c_and_has_de_rham_one():
    # an involution of CP2_9 whose mapping torus is orientable with
    # W_3 != 0: its only nonzero SW number is w_2 w_3, that of the
    # generator of N_5 = Z/2 (the Dold manifold P(1, 2))
    CP2 = catalog.complex_projective_plane()
    swap = {2: 3, 3: 2, 5: 6, 6: 5, 7: 9, 9: 7}
    phi = {v: swap.get(v, v) for v in CP2.vertices}
    assert {tuple(sorted(phi[v] for v in s))
            for s in CP2.maximal_simplices} == set(CP2.maximal_simplices)
    twisted = mapping_torus(CP2, phi)
    product = mapping_torus(CP2, {v: v for v in CP2.vertices})  # CP2 x S1
    assert [twisted.n_simplices(k) for k in range(6)] == [
        27, 243, 972, 1836, 1620, 540]
    p = intersection.panel(twisted)
    assert (p.orientable, p.spin, p.spin_c, p.de_rham) == (
        True, False, False, 1)
    assert {part for part, v in p.sw_numbers.items() if v} == {(3, 2)}
    q = intersection.panel(product)
    assert (q.orientable, q.spin, q.spin_c, q.de_rham) == (
        True, False, True, 0)
    assert set(q.sw_numbers.values()) == {0}
    res = intersection.compare_panels(twisted, product)
    assert res.verdict == "distinguished"
    assert res.differing == ["sw_numbers", "spin_c", "de_rham"]
    # de Rham = w_2 w_3 [M], also as the cup product on the cochains
    for K in (twisted, product, catalog.sphere(5),
              cx.product_complex(catalog.projective_plane(),
                                 catalog.sphere(3))):
        ws = charclasses.sw_classes(K)
        cup = cx.cup_cochain_f2(K, 2, 3, ws[2].cocycle, ws[3].cocycle)
        de_rham = charclasses.obstructions(K).de_rham
        assert de_rham == charclasses.sw_numbers(K)[(3, 2)]
        assert de_rham == (cup & K.fundamental_class_f2()).bit_count() % 2


def reference_compare(a, b):
    """The comparator's rules written out field by field."""
    if a.dim != b.dim:
        return intersection.PanelComparison(
            "distinguished by dimension", ["dim"])
    differing = []
    if a.sw_numbers != b.sw_numbers:
        differing.append("sw_numbers")
    for name in ("orientable", "k_orientable_max", "spin", "spin_c",
                 "de_rham", "even_form"):
        if getattr(a, name) != getattr(b, name):
            differing.append(name)
    sig8_differs = False
    if a.signature_mod8 is not None and b.signature_mod8 is not None:
        sig8_differs = (a.signature_mod8 != b.signature_mod8
                        and a.signature_mod8 != (-b.signature_mod8) % 8)
    elif (a.signature_mod8 is None) != (b.signature_mod8 is None):
        sig8_differs = True
    if sig8_differs:
        differing.append("signature_mod8")
    if (a.signature is None) != (b.signature is None) or (
            a.signature is not None and abs(a.signature) != abs(b.signature)):
        differing.append("signature")
    decisive = {"sw_numbers", "spin", "spin_c", "signature_mod8"}
    if decisive & set(differing):
        return intersection.PanelComparison("distinguished", differing)
    return intersection.PanelComparison(
        "consistent-with-profinite-isomorphism", differing)


def test_comparator_matches_reference_rules():
    import dataclasses
    base = intersection.InvariantPanel(
        dim=4, sw_numbers={(4,): 1, (3, 1): 0, (2, 2): 1, (2, 1, 1): 0,
                           (1, 1, 1, 1): 0},
        orientable=True, k_orientable_max=1, spin=False, spin_c=True,
        de_rham=None, even_form=False, signature_mod8=1, signature=1)
    other = dict(sw_numbers={**base.sw_numbers, (4,): 0}, orientable=False,
                 k_orientable_max=0, spin=True, spin_c=False, de_rham=1,
                 even_form=True, signature_mod8=3, signature=3)
    pairs = []
    sig8s, sigs = [None, *range(8)], [None, 0, 3, -3, 5]
    for s8a, s8b, sa, sb in itertools.product(sig8s, sig8s, sigs, sigs):
        pairs.append((dataclasses.replace(base, signature_mod8=s8a,
                                          signature=sa),
                      dataclasses.replace(base, signature_mod8=s8b,
                                          signature=sb)))
    assert len(pairs) == 2025
    for name, value in other.items():
        pairs.append((base, dataclasses.replace(base, **{name: value})))
    pairs.append((base, dataclasses.replace(base, **other)))
    pairs.append((base, dataclasses.replace(base, dim=5)))
    verdicts = set()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert intersection.compare_panel_values(x, y) == \
                reference_compare(x, y), (x, y)
        verdicts.add(reference_compare(a, b).verdict)
    assert len(verdicts) == 3
