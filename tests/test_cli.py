import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from topinv import catalog, cli, factoring, intersection
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
    # trial division by the primes below 1000 settles every part of E8
    code, out, err = run(capsys, "qf", files["E8"], "--json")
    assert code == 0 and seen == []
    # cofactors of 10**6 or more reach the splitter: 1009 * 1013 once
    # (3 * 1009 * 1013 is then explained by primes already found), and
    # 1019 * 1021 * 1031, split once and its composite part once more
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
    assert len(seen) == 3 and seen[0] == 1009 * 1013
    assert len(set(seen)) == len(seen)
    # a congruent copy P^T B P, P = I plus ones below the diagonal
    p = [[int(j in (i, i - 1)) for j in range(3)] for i in range(3)]
    g = [[sum(p[a][i] * big[a][b] * p[b][j] for a in range(3) for b in range(3))
          for j in range(3)] for i in range(3)]
    copy = tmp_path / "big_copy.qf"
    copy.write_text(qf.gram_text(qf.QuadraticForm(g)))
    code, out, err = run(capsys, "qf-equiv", str(path), str(copy), "--json")
    assert code == 0
    # the process-wide cache hands back the three splits' primes: the
    # second verb splits nothing again
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
            **{key: getattr(form, key) for key in keys}, "even": form.even(K)}


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


def test_no_verb_imports_sympy(files, tmp_path):
    # complex verbs never factor, and trial division settles E8's 3, 5, 7,
    # so neither loads the splitter either
    names = _imports("panel", files["CP2"])[0]
    assert not names & {"sympy", "topinv.factoring"}
    names, out = _imports("qf", files["E8"], "--json")
    assert not names & {"sympy", "topinv.factoring"}
    assert [e["p"] for e in json.loads(out)["p_excess"]] == [3, 5, 7]
    # 1009 * 1013 is past 10**6 with no prime factor below 1000, so it
    # reaches the splitter
    path = tmp_path / "big.qf"
    path.write_text(f"dim 1\n{1009 * 1013}\n")
    names, out = _imports("qf", str(path), "--json")
    assert "sympy" not in names and "topinv.factoring" in names
    assert [e["p"] for e in json.loads(out)["p_excess"]] == [1009, 1013]
    # a dense dim-32 form, whose diagonal has cofactors of 20 digits and more
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
        {p for d in form.diagonal for part in (abs(d.numerator), d.denominator)
         for p in sympy.factorint(part) if p > 2})


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
_free_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
_complex_tokens = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(
    ["x", "#", "", "-0", "+1", "1.0", "007", "9" * 30, "1_0", "\uff11"]))
_gram_tokens = st.sampled_from(
    ["0", "1", "2", "-1", "1/2", "-3/4", "0.5", "1e3", "1/0", "x", "nan", "#",
     "-0", "007", "2/4", "-0/3", "0/0", "\uff11"])


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
