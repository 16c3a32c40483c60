import gc
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from topinv import catalog, charclasses, cli, factoring, intersection
from topinv import complexes as cx
from topinv import quadforms as qf


@pytest.fixture()
def files(tmp_path, fixtures):
    paths = {}
    for name, K in fixtures.items():
        p = tmp_path / f"{name}.cx"
        p.write_text(cx.complex_text(K))
        paths[name] = str(p)
    for name, gram in [("I2", [[1, 0], [0, 1]]),
                       ("D1m1", [[1, 0], [0, -1]]),
                       ("E8", catalog.e8_gram()),
                       ("I8", catalog.identity_gram(8)),
                       ("H", catalog.hyperbolic_gram())]:
        p = tmp_path / f"{name}.qf"
        p.write_text(qf.gram_text(qf.QuadraticForm(gram)))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_text(files, capsys):
    code, out, err = run(capsys, "homology", files["RP2"])
    assert code == 0
    assert "H_1 = Z^0 + Z/2" in out
    code, out, err = run(capsys, "homology", "--ring", "F2", files["RP2"])
    assert code == 0
    assert "H_1 = F2^1" in out


def test_wu_sw_sparse_support(files, capsys):
    code, out, err = run(capsys, "wu", files["RP2"])
    assert code == 0
    assert "v_0 = (" in out and "v_1 = (" in out and "v_2 = 0" in out
    # supports are printed as simplex lists, never dense 0/1 vectors
    assert "[" not in out
    code, out, err = run(capsys, "sw", files["RP2"])
    assert code == 0
    assert "w_2 = (" in out


def test_sw_numbers_text(files, capsys):
    code, out, err = run(capsys, "sw-numbers", files["RP2"])
    assert code == 0
    assert "(2,): 1" in out.replace("(2)", "(2,)") or "(2): 1" in out


def test_obstructions_text(files, capsys):
    code, out, err = run(capsys, "obstructions", files["CP2"])
    assert code == 0
    assert "orientable: true" in out
    assert "spin: false" in out
    assert "spin_c: true" in out
    assert "de_rham: n/a" in out
    code, out, err = run(capsys, "obstructions", files["S5"])
    assert "de_rham: 0" in out


def test_cobordant_exit_codes(files, capsys):
    code, out, err = run(capsys, "cobordant", files["T2"], files["K2"])
    assert code == 0
    assert "cobordant: true" in out
    code, out, err = run(capsys, "cobordant", files["T2"], files["RP2"])
    assert code == 2
    assert "cobordant: false" in out
    assert "first differing partition: (2)" in out or \
        "first differing partition: (2,)" in out


def test_intersection_text(files, capsys):
    code, out, err = run(capsys, "intersection", files["CP2"])
    assert code == 0
    assert "rank 1" in out
    assert "signature: 1" in out or "signature: -1" in out
    assert "even: false" in out
    code, out, err = run(capsys, "intersection", files["T2"])
    assert code == 1
    assert "dimension not 4m" in err


def test_qf_report(files, capsys):
    code, out, err = run(capsys, "qf", files["E8"])
    assert code == 0
    assert "signature: 8" in out
    assert "even: true" in out
    assert "reciprocity residual: 0" in out


def test_qf_equiv_exit_codes(files, capsys):
    code, out, err = run(capsys, "qf-equiv", files["E8"], files["I8"])
    assert code == 0
    assert "rationally equivalent" in out
    code, out, err = run(capsys, "qf-equiv", files["I2"], files["D1m1"])
    assert code == 2
    assert "not rationally equivalent (failing: signature)" in out
    code, out, err = run(capsys, "qf-equiv", files["H"], files["D1m1"])
    assert code == 0


def test_qf_factors_each_odd_part_once(files, capsys, monkeypatch, tmp_path):
    # the splitter's calls from an empty cache: no earlier test's results
    factoring.prime_factors.cache_clear()
    seen = []
    find_factor = factoring._find_factor
    monkeypatch.setattr(factoring, "_find_factor",
                        lambda n: seen.append(n) or find_factor(n))
    # E8 has determinant 1: nothing to factor
    code, out, err = run(capsys, "qf", files["E8"], "--json")
    assert code == 0 and seen == []
    # the determinant 3 * (1009 * 1013)^2 * 1019 * 1021 * 1031 leaves a
    # cofactor past 10**6 after trial division, which gcds with the
    # diagonal cut into 1009 * 1013 and 1019 * 1021 * 1031: the splitter
    # takes the first once and the second twice, its composite part again
    big = [[0] * 3 for _ in range(3)]
    for i, v in enumerate((1009 * 1013, 3 * 1009 * 1013, 1019 * 1021 * 1031)):
        big[i][i] = v
    path = tmp_path / "big.qf"
    path.write_text(qf.gram_text(qf.QuadraticForm(big)))
    code, out, err = run(capsys, "qf", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["reciprocity_residual"] == 0
    assert [e["p"] for e in report["p_excess"]] == [3, 1009, 1013, 1019,
                                                     1021, 1031]
    assert len(seen) == 3 and seen[:2] == [1009 * 1013, 1019 * 1021 * 1031]
    assert len(set(seen)) == len(seen)
    # a congruent copy P^T B P, P = I plus ones below the diagonal
    p = [[int(j in (i, i - 1)) for j in range(3)] for i in range(3)]
    g = [[sum(p[a][i] * big[a][b] * p[b][j] for a in range(3) for b in range(3))
          for j in range(3)] for i in range(3)]
    copy = tmp_path / "big_copy.qf"
    copy.write_text(qf.gram_text(qf.QuadraticForm(g)))
    code, out, err = run(capsys, "qf-equiv", str(path), str(copy), "--json")
    assert code == 0
    # the copy's diagonal cuts its determinant into the same pieces, and
    # the process-wide cache hands back their primes: the second verb
    # splits nothing again
    assert len(seen) == 3


def test_panel_text(files, capsys):
    code, out, err = run(capsys, "panel", files["S2xS2"])
    assert code == 0
    assert "even_form: true" in out
    assert "signature: 0 (mod 8: 0)" in out
    code, out, err = run(capsys, "panel", files["K2"])
    assert code == 0
    assert "orientable: false" in out
    assert "signature" not in out.split("orientable")[1]


def test_compare_exit_codes(files, capsys):
    code, out, err = run(capsys, "compare", files["CP2"], files["S2xS2"])
    assert code == 2
    assert out.startswith("distinguished by: ")
    assert "sw_numbers" in out
    code, out, err = run(capsys, "compare", files["T2"], files["T2"])
    assert code == 0
    assert out.startswith("consistent-with-profinite-isomorphism")
    code, out, err = run(capsys, "compare", files["S2"], files["S4"])
    assert code == 2
    assert "distinguished by dimension" in out
    code, out, err = run(capsys, "compare", files["T2"], files["K2"])
    assert code == 2


def test_json_stable_roundtrip(files, capsys):
    for argv in (["homology", "--json", files["RP2"]],
                 ["wu", "--json", files["RP2"]],
                 ["sw-numbers", "--json", files["CP2"]],
                 ["obstructions", "--json", files["K2"]],
                 ["intersection", "--json", files["CP2"]],
                 ["qf", "--json", files["E8"]],
                 ["panel", "--json", files["S2xS2"]],
                 ["compare", "--json", files["T2"], files["K2"]],
                 ["cobordant", "--json", files["T2"], files["RP2"]],
                 ["qf-equiv", "--json", files["I2"], files["D1m1"]]):
        code = cli.main(argv)
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out
        if argv[0] in ("compare", "cobordant", "qf-equiv"):
            assert code == 2
        else:
            assert code == 0


def test_compare_json_carries_panels(files, capsys):
    cli.main(["compare", "--json", files["CP2"], files["S2xS2"]])
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "distinguished"
    assert len(data["panels"]) == 2
    assert data["panels"][0]["dim"] == 4
    assert {"sw_numbers", "signature_mod8", "spin"} <= set(data["differing"])


@pytest.mark.parametrize("verb, module, invariant", [
    ("compare", intersection, "panel"),
    ("cobordant", charclasses, "sw_numbers")])
def test_two_complex_verbs_hold_one_complex_at_a_time(
        files, capsys, monkeypatch, verb, module, invariant):
    # when the second complex's invariant starts, the first complex and its
    # memoized F2 cohomology are gone, freed by reference counts alone
    real, refs, dead = getattr(module, invariant), [], []

    def recording(K):
        dead.append([ref() is None for ref in refs])
        out = real(K)
        refs.append(weakref.ref(K))
        refs.extend(weakref.ref(v) for key, v in K._cache.items()
                    if key[0] == "hf2")
        return out

    monkeypatch.setattr(module, invariant, recording)
    gc.disable()
    try:
        assert cli.main([verb, files["CP2"], files["S2xS2"]]) == 2
    finally:
        gc.enable()
    capsys.readouterr()
    assert dead[0] == [] and len(dead[1]) > 1 and all(dead[1])


def test_input_errors_exit_1(files, capsys, tmp_path):
    code, out, err = run(capsys, "homology", str(tmp_path / "missing.cx"))
    assert code == 1
    assert "error:" in err
    bad = tmp_path / "bad.cx"
    bad.write_text("2\n0 1 1\n")
    code, out, err = run(capsys, "homology", str(bad))
    assert code == 1
    assert "duplicate vertex" in err
    badform = tmp_path / "bad.qf"
    badform.write_text("dim 1\nzebra\n")
    code, out, err = run(capsys, "qf", str(badform))
    assert code == 1
    assert "rational" in err


def test_exponent_gram_entry_exits_1_with_one_line(capsys, tmp_path):
    p = tmp_path / "exp.qf"
    p.write_text("dim 1\n1e9\n")
    code, out, err = run(capsys, "qf", str(p))
    assert code == 1 and out == ""
    assert err.startswith("error: bad rational entry") and err.count("\n") == 1


def test_dimension_hint_mismatch_exits_1_with_one_line(capsys, tmp_path):
    p = tmp_path / "s2_hint7.cx"
    p.write_text("7\n" + cx.complex_text(catalog.sphere(2)).split("\n", 1)[1])
    code, out, err = run(capsys, "homology", str(p))
    assert code == 1 and out == ""
    assert err == ("error: dimension hint 7 differs from the largest "
                   "facet's dimension 2\n")


def test_non_ascii_integer_tokens_exit_1_with_one_line(capsys, tmp_path):
    # int() reads 1_0 as 10, and the full-width and Arabic-Indic ones as 1
    p = tmp_path / "tok.cx"
    for tok in ("1_0", "+1", "\uff11", "\u0661"):
        facets = ["0 2 3", f"0 2 {tok}", f"0 3 {tok}", f"2 3 {tok}"]
        for text, message in (
                ("\n".join(["2", *facets]),
                 f"error: malformed simplex line: '0 2 {tok}'\n"),
                (f"{tok}\n0 1\n",
                 f"error: malformed dimension hint line: '{tok}'\n")):
            p.write_text(text + "\n", encoding="utf-8")
            code, out, err = run(capsys, "homology", str(p))
            assert (code, out, err) == (1, "", message), tok


def test_non_ascii_separators_exit_1_with_one_line(capsys, tmp_path):
    for verb, text, message in (
            ("homology", "2\x1c0 1 2",
             "malformed dimension hint line: '2\\x1c0 1 2'"),
            ("homology", "2\n0\u30001 2",
             "malformed simplex line: '0\\u30001 2'"),
            ("qf", "dim 1\u20281", "malformed dimension header: "
             "'dim 1\\u20281'")):
        p = tmp_path / "sep.txt"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, verb, str(p))
        assert (code, out, err) == (1, "", f"error: {message}\n"), text


def test_integers_past_the_digit_limit_exit_1_with_one_line(capsys,
                                                            tmp_path):
    # int() and str() refuse more digits than sys.get_int_max_str_digits();
    # each input that would reach that limit is named, never echoed
    limit = sys.get_int_max_str_digits()
    big = "7" * (limit + 1)
    p = tmp_path / "big.txt"
    for verb, text, what in (
            ("qf", f"dim {big}\n1\n", "dimension header"),
            ("qf", f"dim 2\n1 0\n0 -{big}\n", "Gram entry"),
            ("qf", f"dim 2\n1 0\n0 {big}/3\n", "Gram entry"),
            ("qf-equiv", f"dim 1\n1/{big}\n", "Gram entry"),
            ("qf", f"dim 1\n1 x{big}\n", "Gram entry"),
            ("homology", f"{big}\n0 1\n", "dimension hint"),
            ("panel", f"1\n0 1\n1 -{big}\n", "vertex label"),
            ("homology", f"1 # {big}\n0 1{big}x\n", "vertex label")):
        p.write_text(text)
        paths = [str(p)] * (2 if verb == "qf-equiv" else 1)
        assert run(capsys, verb, *paths) == (
            1, "", f"error: {what} has more than {limit} digits\n"), what
    # runs in comments and runs of the limit itself are read
    p.write_text(f"0 # {big}\n{big[1:]}\n")
    assert run(capsys, "homology", str(p))[:2] == (
        0, "homology over Z (dimension 0)\n  H_0 = Z^1\n")
    # a valid gram of 4,295-digit entries whose determinant has 8,590
    e = 3**9000
    p.write_text(f"dim 2\n{e} 0\n0 {e}\n")
    for flags in ([], ["--json"]):
        assert run(capsys, "qf", str(p), *flags) == (
            1, "", f"error: determinant has more than {limit} digits\n")


def test_long_simplex_homology_is_acyclic(capsys, tmp_path):
    # a two-line file whose one 12-simplex has 2^13 - 1 faces
    p = tmp_path / "d12.cx"
    p.write_text("12\n" + " ".join(map(str, range(13))) + "\n")
    code, out, err = run(capsys, "homology", "--json", str(p))
    assert code == 0 and err == ""
    assert [(h["betti"], h["torsion"]) for h in json.loads(out)["summaries"]
            ] == [(1, [])] + [(0, [])] * 12


def test_intersection_payload_reads_the_form(files, fixtures, capsys):
    keys = ("m", "rank", "gram", "signature", "signature_mod8",
            "orientation_tag")
    for name in ("CP2", "S2xS2"):
        code, out, err = run(capsys, "intersection", "--json", files[name])
        K = fixtures[name]
        form = intersection.intersection_form(K)
        assert code == 0 and json.loads(out) == {
            **{key: getattr(form, key) for key in keys}, "even": form.even}


def test_homology_refuses_past_the_face_bound(capsys, tmp_path):
    def write(name, facets):
        p = tmp_path / f"{name}.cx"
        p.write_text(cx.complex_text(cx.SimplicialComplex(facets)))
        return str(p)

    # a one-line 24-vertex simplex has 2^24 - 1 faces: refused unbuilt
    big = write("d23", [range(24)])
    for ring in ("Z", "F2"):
        t = time.perf_counter()
        code, out, err = run(capsys, "homology", "--ring", ring, big)
        assert time.perf_counter() - t < 1
        assert (code, out, err) == (
            1, "", f"error: too many faces: at least {2**24 - 1} in all, "
            f"above the bound of {cx.MAX_FACES}\n")
    # three 17-vertex simplices on a shared 16-vertex face: each within the
    # bound, together 2^16 - 1 + 3 * 2^16 faces, refused on the count
    fan = write("fan", [(*range(16), 16 + i) for i in range(3)])
    code, out, err = run(capsys, "homology", fan)
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("error: too many faces: at least ")
    assert err.endswith(f" in all, above the bound of {cx.MAX_FACES}\n")
    # a 12-vertex simplex still answers
    code, out, err = run(capsys, "homology", write("d11", [range(12)]))
    assert code == 0 and err == "" and "H_11 = Z^0" in out


def test_every_complex_verb_refuses_past_the_face_bound(files, capsys,
                                                       tmp_path,
                                                       monkeypatch):
    # the boundary of the 17-simplex: each 17-vertex facet is within the
    # bound, their 2^18 - 2 faces together are not; every verb reads its
    # faces through the one build, so all refuse with homology's line, and
    # none enumerates a face tuple to count them.  cobordant checks
    # dimensions first, and every closed 16-dimensional pseudo-manifold is
    # past the bound, so it gets the file twice
    p = tmp_path / "d17.cx"
    p.write_text(cx.complex_text(catalog.sphere(16)))
    d17, s2 = str(p), files["S2"]
    d19 = cx.complex_text(catalog.sphere(18))  # written before the patch
    # compare reads S2 whole before d17: its cut patterns are cached first
    assert run(capsys, "compare", s2, s2)[0] == 0

    def no_faces(*args):
        raise AssertionError("a face was built")

    monkeypatch.setattr(cx.itertools, "combinations", no_faces)
    for argv in (["homology", d17], ["homology", "--ring", "F2", d17],
                 ["wu", d17], ["sw", d17], ["sw-numbers", d17],
                 ["obstructions", d17], ["intersection", d17],
                 ["panel", d17], ["cobordant", d17, d17],
                 ["compare", d17, s2], ["compare", s2, d17]):
        t = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t < 1, argv
        assert (code, out) == (1, ""), argv
        count = int(re.fullmatch(
            r"error: too many faces: at least (\d+) in all, above the "
            rf"bound of {cx.MAX_FACES}\n", err)[1])
        # the count passes the bound by at most one pick's faces, of at
        # most C(18, 9) distinct faces of a degree
        assert cx.MAX_FACES < count <= cx.MAX_FACES + math.comb(18, 9), argv
    # the boundary of the 19-simplex: one facet has 2^19 - 1 faces, so it
    # is refused before any face is built
    p.write_text(d19)
    for verb in ("homology", "panel", "sw-numbers"):
        assert run(capsys, verb, d17) == (
            1, "", f"error: too many faces: at least {2**19 - 1} in all, "
            f"above the bound of {cx.MAX_FACES}\n"), verb
    # two lines, a simplex of 30 vertices and one of 15 others: the parser
    # keeps both by vertex incidence, enumerating no face, and the first
    # is refused unbuilt
    p.write_text("29\n" + " ".join(map(str, range(30))) + "\n"
                 + " ".join(map(str, range(30, 45))) + "\n")
    t = time.perf_counter()
    assert run(capsys, "panel", d17) == (
        1, "", f"error: too many faces: at least {2**30 - 1} in all, "
        f"above the bound of {cx.MAX_FACES}\n")
    assert time.perf_counter() - t < 1


def test_non_pseudo_manifold_exits_1_with_one_line(capsys, tmp_path):
    for base, extra, verbs, facet in (
            (catalog.sphere(2), "0 10", ("panel", "wu"), "(0, "),
            (catalog.sphere(4), "0 10 11", ("panel", "wu", "intersection"),
             "(0, "),
            # a second, disjoint S2: not strongly connected
            (catalog.sphere(2), "10 11 12\n10 11 13\n10 12 13\n11 12 13",
             ("panel",), "(10, 11, 12) is not reached"),
            # two points
            (cx.SimplicialComplex([(0,)]), "1",
             ("panel", "wu", "sw", "sw-numbers", "obstructions"),
             "(1,) is not reached (a 0-dimensional one is a single vertex)")):
        p = tmp_path / f"bad{base.dimension}.cx"
        p.write_text(cx.complex_text(base) + extra + "\n")
        for verb in verbs:
            code, out, err = run(capsys, verb, str(p))
            assert code == 1 and out == ""
            assert err.startswith(
                "error: not a pseudo-manifold: facet " + facet)
            assert err.count("\n") == 1 and "-1-faces" not in err
        code, out, err = run(capsys, "homology", str(p))
        assert code == 0


def test_usage_errors_exit_1_not_2(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
    assert cli.main(["no-such-verb"]) == 1
    capsys.readouterr()
    assert cli.main(["homology"]) == 1
    capsys.readouterr()


def test_parser_built_once_per_process(files, capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "homology", files["S2"])[0] == 0
    assert run(capsys, "homology", "--ring", "F2", files["T2"])[0] == 0
    assert cli.build_parser.cache_info().misses == 1
    # the shared parser still maps a usage error to exit 1, after a success
    code, out, err = run(capsys, "homology")
    assert code == 1 and "usage: topinv homology" in err
    assert run(capsys, "homology", files["RP2"])[0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "compare" in out and "qf-equiv" in out


def _imports(*argv, run=("-m", "topinv.cli")) -> tuple[set[str], str]:
    """The modules a fresh `python *run *argv` imports, and its stdout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-X", "importtime", *run, *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert "topinv" in names  # every run imports the package
    return names, proc.stdout


def test_each_verb_imports_only_the_modules_it_runs(files, fixtures,
                                                     tmp_path):
    def submodules(names):
        return {n for n in names if n.startswith("topinv.")}

    assert submodules(_imports(run=("-c", "import topinv"))[0]) == set()
    names, out = _imports("-h")
    assert submodules(names) == set() and "qf-equiv" in out
    complex_side = {"topinv.complexes", "topinv.zlinalg", "topinv.f2linalg",
                    "topinv.intersection"}
    # no verb loads sympy: quadforms splits its own cofactors
    for argv in (["qf", files["E8"]], ["qf-equiv", files["E8"], files["I8"]]):
        names, out = _imports(*argv, "--json")
        assert "topinv.quadforms" in names
        assert not names & (complex_side | {"sympy"})
        assert json.loads(out)
    # 4-dimensional, so only w_1 != 0 keeps panel from building a form
    path = tmp_path / "RP2xRP2.cx"
    path.write_text(cx.complex_text(
        cx.product_complex(fixtures["RP2"], fixtures["RP2"])))
    for verb in ("panel", "sw-numbers"):
        names, out = _imports(verb, str(path), "--json")
        assert "topinv.charclasses" in names, verb
        assert not names & {"topinv.quadforms", "topinv.zlinalg",
                            "fractions", "sympy"}, verb
        assert json.loads(out)["sw_numbers"], verb
    names, out = _imports("panel", files["CP2"], "--json")
    assert {"topinv.quadforms", "topinv.zlinalg"} <= names
    assert "sympy" not in names
    assert json.loads(out)["signature_mod8"] is not None


def test_invariant_sweep_script_lists_every_fixture():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable,
                           str(root / "scripts" / "invariant_sweep.py"),
                           "--random", "5"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0 and proc.stderr == ""
    table, tail = proc.stdout.split("\n\n")
    header, *rows = table.splitlines()
    assert header.split()[0] == "name"
    assert [r.split()[0] for r in rows] == list(catalog.manifold_fixtures())
    assert tail.startswith("random complexes with an F2 fundamental class: ")
    assert tail.rstrip().endswith("/5")


def test_ladder_script_rungs_run():
    # each op the ladder times, on S2xS2: the child's script must keep up
    # with the API it calls
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "ladder", root / "scripts" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    for op in ("panel", "intersection", "homology Z", "homology F2",
               "compare", "cobordant", "faces"):
        proc = subprocess.run(
            [sys.executable, "-c",
             ladder.CHILD.format(build="catalog.s2xs2()", op=op)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(root / "src")))
        assert proc.returncode == 0 and proc.stderr == "", (op, proc.stderr)
        out = json.loads(proc.stdout.splitlines()[-1])
        keys = {"op", "f_vector", "s", "peak_rss_mb"}
        if op == "intersection":
            keys |= {"gram", "signature", "signature_mod8", "even"}
            assert (out["signature"], out["signature_mod8"],
                    out["even"]) == (0, 0, True)
        if op in ("compare", "cobordant"):  # S2xS2 and a relabeled copy agree
            keys.add("exit")
            assert out["exit"] == 0
        assert set(out) == keys and out["op"] == op
        assert out["f_vector"] == [16, 84, 216, 240, 96], op
    # a refused rung reports the refusal line in place of an f-vector
    proc = subprocess.run(
        [sys.executable, "-c",
         ladder.CHILD.format(build=ladder.RUNGS["S16 panel"][0], op="panel")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")))
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"op", "refused", "s", "peak_rss_mb"}
    assert re.fullmatch(r"too many faces: at least \d+ in all, above the "
                        rf"bound of {cx.MAX_FACES}", out["refused"])


def test_no_verb_imports_sympy(files, tmp_path):
    # complex verbs never factor, and E8 has determinant 1, so neither
    # loads the splitter either
    names = _imports("panel", files["CP2"])[0]
    assert not names & {"sympy", "topinv.factoring"}
    names, out = _imports("qf", files["E8"], "--json")
    assert not names & {"sympy", "topinv.factoring"}
    assert json.loads(out)["p_excess"] == []
    # 1009 * 1013 is past 10**6 with no prime factor below 1000, so it
    # reaches the splitter
    path = tmp_path / "big.qf"
    path.write_text(f"dim 1\n{1009 * 1013}\n")
    names, out = _imports("qf", str(path), "--json")
    assert "sympy" not in names and "topinv.factoring" in names
    assert [e["p"] for e in json.loads(out)["p_excess"]] == [1009, 1013]
    # a dense dim-32 form, whose diagonal has cofactors of 20 digits and
    # more, and whose determinant has a 21-digit prime
    rng = random.Random(32)
    g = [[0] * 32 for _ in range(32)]
    for i in range(32):
        for j in range(i, 32):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    form = qf.QuadraticForm(g)
    path = tmp_path / "dense32.qf"
    path.write_text(qf.gram_text(form))
    names, out = _imports("qf", str(path), "--json")
    assert "sympy" not in names
    report = json.loads(out)
    assert report["reciprocity_residual"] == 0
    assert max(len(str(d.numerator)) for d in form.diagonal) >= 20
    assert [e["p"] for e in report["p_excess"]] == sorted(
        p for p in sympy.factorint(form.det.numerator) if p > 2)


def test_cofactor_over_the_splitting_budget_exits_1_with_one_line(tmp_path):
    # two 25-digit primes: past Pollard-Brent's steps and ECM's curves
    path = tmp_path / "semiprime49.qf"
    path.write_text(
        f"dim 1\n{sympy.nextprime(10**24) * sympy.nextprime(3 * 10**24)}\n")
    assert len(path.read_bytes()) == 56
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (["qf", str(path)], ["qf-equiv", str(path), str(path)]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "topinv.cli", *argv],
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ, PYTHONPATH=src))
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 1 and proc.stdout == "", argv
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "49-digit" in proc.stderr


def test_cofactor_past_the_split_bound_is_refused_at_once(tmp_path):
    # the budget counts steps, whose cost grows with the cofactor: a gram
    # of 2,500-digit entries once ran past 60 s before the bound
    rng = random.Random(2026)
    a, c = (rng.randrange(10**2499, 10**2500) for _ in range(2))
    b = rng.randrange(10**2399, 10**2400)
    path = tmp_path / "huge.qf"
    path.write_text(qf.gram_text(qf.QuadraticForm([[a, b], [b, c]])))
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in (["qf", str(path)], ["qf-equiv", str(path), str(path)]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "topinv.cli", *argv],
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ, PYTHONPATH=src))
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == 1 and proc.stdout == "", argv
        assert proc.stderr == (
            "error: cannot factor a cofactor of more than 100 digits\n")


def test_primes_and_composites_around_the_split_bound(capsys, tmp_path,
                                                       monkeypatch):
    # a prime past the bound is still found, by the primality test alone
    p = sympy.nextprime(10**100)
    path = tmp_path / "prime101.qf"
    path.write_text(f"dim 1\n{p}\n")
    code, out, err = run(capsys, "qf", str(path), "--json")
    assert code == 0 and err == ""
    assert [e["p"] for e in json.loads(out)["p_excess"]] == [p]
    # a 101-digit composite is refused before a single rho step
    n = sympy.nextprime(10**50) * sympy.nextprime(10**50 + 10**10)
    assert len(str(n)) == 101
    steps = []
    monkeypatch.setattr(factoring, "_brent",
                        lambda *a: steps.append(a) or (1, 0))
    factoring.prime_factors.cache_clear()
    with pytest.raises(qf.FormError, match="more than 100 digits"):
        factoring.prime_factors(n)
    assert steps == []


def test_primes_in_separate_entries_are_not_split(capsys, tmp_path,
                                                  monkeypatch):
    # the determinant of diag(a, b) is the composite a * b: 101 digits for
    # two 51-digit primes, past the split bound, and 80 digits for two
    # 40-digit ones, which can run the splitting budget out; 2^2203 - 1 is
    # a 664-digit prime whose square has 1,327 digits, past the bound of
    # any primality test.  The diagonal cuts each determinant into primes,
    # which are answered by the primality test alone.
    def no_split(n):
        raise AssertionError(f"split a {len(str(n))}-digit cofactor")
    monkeypatch.setattr(factoring, "_find_factor", no_split)
    a51 = sympy.nextprime(10**50)
    a40 = sympy.nextprime(10**39)
    q = 2**2203 - 1
    for a, b in ((a51, sympy.nextprime(a51)), (a40, sympy.nextprime(a40)),
                 (q, q)):
        path = tmp_path / "primes.qf"
        path.write_text(f"dim 2\n{a} 0\n0 {b}\n")
        for argv in (["qf", str(path)], ["qf-equiv", str(path), str(path)]):
            code, out, err = run(capsys, *argv, "--json")
            assert code == 0 and err == "", argv
        code, out, err = run(capsys, "qf", str(path), "--json")
        report = json.loads(out)
        assert [e["p"] for e in report["p_excess"]] == sorted({a, b})
        assert report["reciprocity_residual"] == 0


def test_point_gets_one_report_from_every_sw_verb(capsys, tmp_path):
    # partitions(0) is [()], the empty partition: <w_0, [pt]> = 1
    p = tmp_path / "pt.cx"
    p.write_text("0\n0\n")
    reports = {}
    for argv in (["sw-numbers", str(p)], ["obstructions", str(p)],
                 ["panel", str(p)], ["compare", str(p), str(p)],
                 ["cobordant", str(p), str(p)]):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == "", argv
        reports[argv[0]] = json.loads(out)
    assert reports["sw-numbers"]["sw_numbers"] == [
        {"partition": [], "value": 1}]
    assert reports["obstructions"]["null_cobordant"] is False
    assert reports["cobordant"]["cobordant"] is True


# Fuzzed input files: free text, and lines of tokens near the two formats
# (vertex labels, a dimension line, comments, Gram headers and rationals),
# kept small so a parsed complex has at most 5 vertices per simplex.
# Integer tokens past int()'s digit limit are drawn too, alone, in p/q
# and inside other tokens.
_free_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
_DIGIT_LIMIT = sys.get_int_max_str_digits()
_long_ints = st.builds(lambda sign, digit, n: sign + digit * n,
                       st.sampled_from(["", "-"]),
                       st.sampled_from("0123456789"),
                       st.integers(_DIGIT_LIMIT + 1, _DIGIT_LIMIT + 50))
_complex_tokens = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(
    ["x", "#", "", "-0", "+1", "1.0", "007", "9" * 30, "1_0", "\uff11"]),
    _long_ints, _long_ints.map(lambda t: t + "x"))
_gram_tokens = st.one_of(st.sampled_from(
    ["0", "1", "2", "-1", "1/2", "-3/4", "0.5", "1e3", "1/0", "x", "nan", "#",
     "-0", "007", "2/4", "-0/3", "0/0", "\uff11"]),
    _long_ints, _long_ints.map(lambda t: t + "/3"),
    _long_ints.map(lambda t: "1/" + t.lstrip("-")))


def _token_lines(tokens):
    return st.lists(st.lists(tokens, max_size=5).map(" ".join),
                    max_size=7).map("\n".join)


@st.composite
def _gram_texts(draw):
    """A 'dim n' header over up to n + 1 rows of up to n + 1 entries."""
    n = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_gram_tokens, min_size=n, max_size=n + 1)
                         .map(" ".join), min_size=n, max_size=n + 1))
    return "\n".join([f"dim {n}", *rows])


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check_fuzzed_run(argv):
    code, err = _main_quietly(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        # a token past the digit limit is named, not repeated
        assert not re.search(f"[0-9]{{{_DIGIT_LIMIT + 1}}}", err), err[:80]


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(_free_text, _token_lines(_complex_tokens)),
       verb=st.sampled_from([["homology"], ["homology", "--ring", "F2"],
                             ["wu"], ["sw"], ["sw-numbers"], ["obstructions"],
                             ["intersection"], ["panel"], ["cobordant"],
                             ["compare"]]),
       json_flag=st.booleans())
def test_fuzzed_complex_text_exits_cleanly(tmp_path_factory, text, verb,
                                           json_flag):
    try:
        cx.parse_complex(text)
    except cx.ParseError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzz.cx"
    path.write_text(text, encoding="utf-8")
    paths = [str(path)] * (2 if verb[0] in ("cobordant", "compare") else 1)
    _check_fuzzed_run([*verb, *paths] + ["--json"] * json_flag)


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(_free_text, _token_lines(_gram_tokens), _gram_texts()),
       verb=st.sampled_from(["qf", "qf-equiv"]), json_flag=st.booleans())
def test_fuzzed_gram_text_exits_cleanly(tmp_path_factory, text, verb,
                                        json_flag):
    try:
        qf.parse_gram(text)
    except qf.FormError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzz.qf"
    path.write_text(text, encoding="utf-8")
    paths = [str(path)] * (2 if verb == "qf-equiv" else 1)
    _check_fuzzed_run([verb, *paths] + ["--json"] * json_flag)
