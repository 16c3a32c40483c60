import random

import pytest

from topinv import catalog, charclasses, f2linalg, intersection, steenrod
from topinv import complexes as cx


def test_partitions_order_and_content():
    assert charclasses.partitions(0) == [()]
    assert charclasses.partitions(1) == [(1,)]
    assert charclasses.partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(1, 9):
        parts = charclasses.partitions(n)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sum(p) == n
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))
        assert parts == sorted(parts, reverse=True)


def test_sw_numbers_iterate_in_partition_order(fixtures):
    # the CLI lists the numbers in this order without sorting them
    for name, K in fixtures.items():
        assert list(charclasses.sw_numbers(K)) == charclasses.partitions(
            K.dimension), name


def test_wu_defining_property(fixtures):
    # <v_k u x, [K]> = <Sq^k x, [K]> for every x in H^(n-k)
    for name, K in fixtures.items():
        n = K.dimension
        fc = K.fundamental_class_f2()
        vs = charclasses.wu_classes(K)
        for k in range(n + 1):
            # the coordinates are the solve's own; reducing the cocycle
            # again must give them back
            assert vs[k].coords == K.cohomology_f2(k).coords(vs[k].cocycle)
            for x in K.cohomology_f2(n - k).basis:
                lhs = f2linalg.dot(
                    cx.cup_cochain_f2(K, k, n - k, vs[k].cocycle, x), fc)
                rhs = f2linalg.dot(steenrod.sq_on_mask(K, k, n - k, x), fc)
                assert lhs == rhs, (name, k)


def test_wu_uniqueness(fixtures):
    # the duality pairing is perfect, so a class with the Wu property is unique
    for name in ("RP2", "K2", "CP2"):
        K = fixtures[name]
        n = K.dimension
        fc = K.fundamental_class_f2()
        vs = charclasses.wu_classes(K)
        for k in range(n + 1):
            h = K.cohomology_f2(k)
            matches = []
            for coords in range(1 << h.dim):
                mask = 0
                for i, b in enumerate(h.basis):
                    if (coords >> i) & 1:
                        mask ^= b
                ok = all(
                    f2linalg.dot(cx.cup_cochain_f2(K, k, n - k, mask, x), fc)
                    == f2linalg.dot(steenrod.sq_on_mask(K, k, n - k, x), fc)
                    for x in K.cohomology_f2(n - k).basis)
                if ok:
                    matches.append(coords)
            assert matches == [vs[k].coords], (name, k)


def test_wu_vanishes_above_half_dimension(fixtures):
    for K in fixtures.values():
        n = K.dimension
        for k, v in enumerate(charclasses.wu_classes(K)):
            if 2 * k > n:
                assert v.is_zero


def test_rp2_profile(fixtures):
    p = charclasses.profile(fixtures["RP2"])
    assert p.wu_nonzero_degrees == [0, 1]
    assert p.sw_nonzero_degrees == [0, 1, 2]
    assert p.sw_numbers == {(2,): 1, (1, 1): 1}
    # W_2 = beta(w_1) is the nonzero class of H^2(RP2; Z) = Z/2
    assert p.integral_sw_nonzero == [False, True, False]


def test_torus_profile(fixtures):
    p = charclasses.profile(fixtures["T2"])
    assert p.wu_nonzero_degrees == [0]
    assert p.sw_nonzero_degrees == [0]
    assert all(v == 0 for v in p.sw_numbers.values())
    assert p.integral_sw_nonzero == [False, False, False]


def test_klein_profile(fixtures):
    K = fixtures["K2"]
    p = charclasses.profile(K)
    assert p.wu_nonzero_degrees == [0, 1]
    assert p.sw_nonzero_degrees == [0, 1]
    assert p.sw_numbers == {(2,): 0, (1, 1): 0}
    # w_1 lifts to an integral class (it is c_1 + c_2 in the RP2 # RP2
    # picture and the two Bocksteins cancel), so all W_k vanish ...
    assert p.integral_sw_nonzero == [False, False, False]
    # ... even though the Bockstein is nonzero somewhere on H^1
    flags = [steenrod.bockstein(K, cx.f2_class(K, 1, b))[1]
             for b in K.cohomology_f2(1).basis]
    assert not all(flags)


def test_cp2_profile(fixtures):
    p = charclasses.profile(fixtures["CP2"])
    assert p.wu_nonzero_degrees == [0, 2]
    assert p.sw_nonzero_degrees == [0, 2, 4]
    assert p.sw_numbers[(4,)] == 1
    assert p.sw_numbers[(2, 2)] == 1
    assert p.sw_numbers[(3, 1)] == 0
    assert p.sw_numbers[(2, 1, 1)] == 0
    assert p.sw_numbers[(1, 1, 1, 1)] == 0


def test_spheres_trivial_profile(fixtures):
    for name in ("S2", "S4", "S5"):
        p = charclasses.profile(fixtures[name])
        assert p.wu_nonzero_degrees == [0]
        assert p.sw_nonzero_degrees == [0]
        assert all(v == 0 for v in p.sw_numbers.values())
        assert not any(p.integral_sw_nonzero)


def test_s2xs2_profile(fixtures):
    p = charclasses.profile(fixtures["S2xS2"])
    assert p.wu_nonzero_degrees == [0]
    assert p.sw_nonzero_degrees == [0]
    assert all(v == 0 for v in p.sw_numbers.values())


OBSTRUCTION_ORACLES = {
    "S2": dict(orientable=True, spin=True, spin_c=True, null_cobordant=True),
    "S4": dict(orientable=True, spin=True, spin_c=True, null_cobordant=True),
    "S5": dict(orientable=True, spin=True, spin_c=True, null_cobordant=True),
    "RP2": dict(orientable=False, spin=False, spin_c=False,
                null_cobordant=False),
    "T2": dict(orientable=True, spin=True, spin_c=True, null_cobordant=True),
    "K2": dict(orientable=False, spin=False, spin_c=False,
               null_cobordant=True),
    "CP2": dict(orientable=True, spin=False, spin_c=True,
                null_cobordant=False),
    "S2xS2": dict(orientable=True, spin=True, spin_c=True,
                  null_cobordant=True),
}


def test_obstruction_oracles(fixtures):
    for name, K in fixtures.items():
        rep = charclasses.obstructions(K)
        for field, want in OBSTRUCTION_ORACLES[name].items():
            assert getattr(rep, field) == want, (name, field)


def test_spin_implies_spin_c(fixtures):
    for name, K in fixtures.items():
        rep = charclasses.obstructions(K)
        if rep.spin:
            assert rep.spin_c, name
        if rep.spin:
            assert rep.orientable, name


def test_k_orientable_max(fixtures):
    # spheres: all w_j vanish, so k saturates at the first 2^k - 1 >= n
    assert charclasses.obstructions(fixtures["S2"]).k_orientable_max == 2
    assert charclasses.obstructions(fixtures["S4"]).k_orientable_max == 3
    assert charclasses.obstructions(fixtures["S5"]).k_orientable_max == 3
    assert charclasses.obstructions(fixtures["T2"]).k_orientable_max == 2
    assert charclasses.obstructions(fixtures["RP2"]).k_orientable_max == 0
    assert charclasses.obstructions(fixtures["K2"]).k_orientable_max == 0
    # CP2: w_1 = 0 but w_2 != 0, so 1-orientable only
    assert charclasses.obstructions(fixtures["CP2"]).k_orientable_max == 1
    assert charclasses.obstructions(fixtures["S2xS2"]).k_orientable_max == 3


def test_de_rham_field(fixtures):
    for name, K in fixtures.items():
        rep = charclasses.obstructions(K)
        if K.dimension >= 5 and K.dimension % 4 == 1:
            assert rep.de_rham in (0, 1), name
        else:
            assert rep.de_rham is None, name
    assert charclasses.obstructions(fixtures["S5"]).de_rham == 0


def test_cobordant_pairs(fixtures):
    same, part = charclasses.cobordant(fixtures["T2"], fixtures["K2"])
    assert same and part is None
    same, part = charclasses.cobordant(fixtures["T2"], fixtures["RP2"])
    assert not same
    assert part == (2,)
    same, part = charclasses.cobordant(fixtures["S4"], fixtures["CP2"])
    assert not same
    assert part == (4,)
    with pytest.raises(cx.TopologyError, match="dimension mismatch"):
        charclasses.cobordant(fixtures["S2"], fixtures["S4"])


def _sw_numbers_by_nested_cups(K):
    """SW numbers as one cochain cup per partition factor, paired with [K]."""
    ws = charclasses.sw_classes(K)
    fc = K.fundamental_class_f2()
    out = {}
    for part in charclasses.partitions(K.dimension):
        deg = part[0] if part else 0
        mask = ws[deg].cocycle
        for p in part[1:]:
            mask = cx.cup_cochain_f2(K, deg, p, mask, ws[p].cocycle)
            deg += p
        out[part] = f2linalg.dot(mask, fc)
    return out


def test_sw_numbers_match_nested_cups(fixtures):
    complexes = dict(fixtures)
    complexes["RP2xS3"] = cx.product_complex(catalog.projective_plane(),
                                             catalog.sphere(3))
    complexes["K2xT2"] = cx.product_complex(catalog.klein_bottle(),
                                            catalog.torus())
    complexes["point"] = cx.SimplicialComplex([(0,)])
    for name, K in complexes.items():
        got = charclasses.sw_numbers(K)
        assert got == _sw_numbers_by_nested_cups(K), name
        assert list(got) == charclasses.partitions(K.dimension)
    # a product of two factors that is nonzero: w_2^2[CP2] = 1
    assert charclasses.sw_numbers(fixtures["CP2"])[(2, 2)] == 1


def test_panel_reads_sw_numbers_once(monkeypatch):
    calls = []
    partitions = charclasses.partitions

    def recording_partitions(n):
        calls.append(n)
        return partitions(n)

    monkeypatch.setattr(charclasses, "partitions", recording_partitions)
    K = cx.product_complex(catalog.klein_bottle(), catalog.torus())
    p = intersection.panel(K)
    # obstructions (null_cobordant) and the panel itself read one build
    assert calls == [K.dimension]
    assert p.sw_numbers is charclasses.sw_numbers(K)


def test_middle_wu_reads_squares_of_integral_reductions(fixtures):
    # <v_2m u xbar, [K]> = <xbar u xbar, [K]> for xbar the mod-2 reduction
    # of an integral middle-degree class
    for name in ("S4", "CP2", "S2xS2"):
        K = fixtures[name]
        n = K.dimension
        m = n // 2
        v = charclasses.wu_classes(K)[m]
        fc = K.fundamental_class_f2()
        for x in K.cohomology_z(m):
            xbar = sum(1 << j for j, v in enumerate(x) if v & 1)
            lhs = f2linalg.dot(
                cx.cup_cochain_f2(K, m, m, v.cocycle, xbar), fc)
            rhs = f2linalg.dot(cx.cup_cochain_f2(K, m, m, xbar, xbar), fc)
            assert lhs == rhs, name


def test_profile_relabeling_invariant(fixtures):
    rng = random.Random(17)
    for name, K in fixtures.items():
        perm = list(K.vertices)
        rng.shuffle(perm)
        L = cx.relabel(K, dict(zip(K.vertices, perm)))
        pk = charclasses.profile(K)
        pl = charclasses.profile(L)
        assert pk.sw_numbers == pl.sw_numbers, name
        assert pk.wu_nonzero_degrees == pl.wu_nonzero_degrees, name
        assert pk.sw_nonzero_degrees == pl.sw_nonzero_degrees, name
        assert pk.integral_sw_nonzero == pl.integral_sw_nonzero, name
        assert charclasses.obstructions(K) == charclasses.obstructions(L), name


def test_wu_rejects_non_duality_complex():
    disk_like = cx.SimplicialComplex([(0, 1, 2), (0, 1, 3)])
    with pytest.raises(cx.TopologyError):
        charclasses.wu_classes(disk_like)
