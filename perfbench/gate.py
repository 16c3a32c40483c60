"""Correctness gate: every op's JSON report against expected values.

Complex ops are checked against ``expected.json`` (the invariants of each
base complex, which any relabeling keeps) and against oracles that do not
come from the program: the top Stiefel-Whitney number equals the Euler
characteristic mod 2 (taken from the f-vector), every f2-nonorientable input
is non-orientable, two relabelings of one complex get the same panel, and a
comparison's differing fields and verdict follow from the two expected
panels.  Gram ops are checked against what the plan derived when it built
the form, plus reciprocity (residual 0) and the agreement of the local and
Sylvester signatures mod 8.

``check`` returns the list of problems of one op; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json")
                      .read_text())["complexes"]
NONORIENTABLE = {"RP2xRP2", "RP2xS3", "RP2xK2", "K2xT2"}
PANEL_FIELDS = ("dim", "orientable", "k_orientable_max", "spin", "spin_c",
                "de_rham", "even_form")
DECISIVE = {"sw_numbers", "spin", "spin_c", "signature_mod8"}
CONSISTENT = "consistent-with-profinite-isomorphism"


def check(op: dict, rec: dict) -> list[str]:
    if rec["status"] != "ok":
        return [f"{rec['status']} (budget {rec['budget_s']} s) "
                f"{rec['stderr']}".rstrip()]
    exp = op["expect"]
    want_exit = _expected_exit(exp)
    problems = []
    if rec["exit"] != want_exit:
        problems.append(f"exit {rec['exit']}, expected {want_exit}: "
                        f"{rec['stderr'][-200:]}")
    try:
        payload = json.loads(rec["stdout"])
    except ValueError:
        return problems + ["stdout is not a JSON report"]
    try:
        return problems + _CHECKS[exp["check"]](payload, exp)
    except (KeyError, TypeError, IndexError) as e:
        return problems + [f"report lacks a field: {type(e).__name__} {e}"]


def check_sizes(sizes: dict) -> list[str]:
    """Input sizes against the stored f-vectors, so every run measures the
    same complexes."""
    return [f"{name} f-vector {s['f_vector']}, expected "
            f"{EXPECTED[name]['f_vector']}"
            for name, s in sizes.items()
            if "f_vector" in s and s["f_vector"] != EXPECTED[name]["f_vector"]]


def _expected_exit(exp: dict) -> int:
    if exp["check"] == "compare":
        return 0 if _verdict(*exp["bases"]) == CONSISTENT else 2
    if exp["check"] == "qf-equiv":
        return 0 if exp["equivalent"] else 2
    return 0


def _euler(base: str) -> int:
    return sum((-1) ** k * n for k, n in enumerate(EXPECTED[base]["f_vector"]))


def _sw_map(entries) -> dict:
    return {",".join(map(str, x["partition"])): x["value"] for x in entries}


def _panel(p: dict, base: str) -> list[str]:
    e = EXPECTED[base]
    out = [f"{base} {f}={p.get(f)!r}, expected {e[f]!r}"
           for f in PANEL_FIELDS if p.get(f) != e[f]]
    out += _sw_numbers(p["sw_numbers"], base)
    if base in NONORIENTABLE and p["orientable"] is not False:
        out.append(f"{base} reported orientable")
    sig, sig8 = p["signature"], p["signature_mod8"]
    if e["abs_signature"] is None:
        if sig is not None or sig8 is not None:
            out.append(f"{base} has no intersection form, got signature {sig}")
    elif sig is None or abs(sig) != e["abs_signature"] or sig8 != sig % 8:
        out.append(f"{base} signature {sig} (mod 8: {sig8}), expected "
                   f"+-{e['abs_signature']}")
    return out


def _sw_numbers(entries, base: str) -> list[str]:
    sw = _sw_map(entries)
    out = []
    if sw != EXPECTED[base]["sw_numbers"]:
        out.append(f"{base} sw_numbers {sw}")
    top = sw.get(str(EXPECTED[base]["dim"]))
    if top != _euler(base) % 2:
        out.append(f"{base} top SW number {top} != Euler characteristic "
                   f"{_euler(base)} mod 2")
    return out


def _unsigned(p: dict) -> dict:
    q = dict(p)
    if q["signature"] is not None:
        q["signature"] = abs(q["signature"])
        q["signature_mod8"] = q["signature"] % 8
    return q


def _differing(a: str, b: str) -> list[str]:
    """Fields on which the expected panels of two bases differ, in report
    order; signatures are compared up to sign."""
    ea, eb = EXPECTED[a], EXPECTED[b]
    out = []
    if ea["sw_numbers"] != eb["sw_numbers"]:
        out.append("sw_numbers")
    out += [f for f in PANEL_FIELDS[1:] if ea[f] != eb[f]]
    sa, sb = ea["abs_signature"], eb["abs_signature"]
    if (sa is None) != (sb is None) or (
            sa is not None and sa % 8 not in (sb % 8, -sb % 8)):
        out.append("signature_mod8")
    if sa != sb:
        out.append("signature")
    return out


def _verdict(a: str, b: str) -> str:
    if EXPECTED[a]["dim"] != EXPECTED[b]["dim"]:
        return "distinguished by dimension"
    return ("distinguished" if DECISIVE & set(_differing(a, b))
            else CONSISTENT)


def _compare(p: dict, exp: dict) -> list[str]:
    a, b = exp["bases"]
    out = _panel(p["panels"][0], a) + _panel(p["panels"][1], b)
    if p["verdict"] != _verdict(a, b):
        out.append(f"verdict {p['verdict']!r}, expected {_verdict(a, b)!r}")
    if p["differing"] != _differing(a, b):
        out.append(f"differing {p['differing']}, expected {_differing(a, b)}")
    if a == b and _unsigned(p["panels"][0]) != _unsigned(p["panels"][1]):
        out.append(f"two relabelings of {a} got different panels")
    return out


def _homology(p: dict, exp: dict) -> list[str]:
    got = [[h["degree"], h["betti"], h["torsion"]] for h in p["summaries"]]
    want = EXPECTED[exp["base"]]["homology_z"]
    return [] if p["ring"] == "Z" and got == want else [
        f"homology {got}, expected {want}"]


def _sw_report(p: dict, exp: dict) -> list[str]:
    base = exp["base"]
    out = _sw_numbers(p["sw_numbers"], base)
    if p["n"] != EXPECTED[base]["dim"]:
        out.append(f"n={p['n']}, expected {EXPECTED[base]['dim']}")
    return out


def _qf(p: dict, exp: dict) -> list[str]:
    out = [f"{f}={p[f]!r}, expected {exp[f]!r}"
           for f in ("dim", "det", "oddity", "even")
           if f in exp and p[f] != exp[f]]
    if exp["signature"] is not None and p["signature"] != exp["signature"]:
        out.append(f"signature {p['signature']}, expected {exp['signature']}")
    if "p_excess" in exp:
        nonzero = {str(x["p"]): x["excess"] for x in p["p_excess"]
                   if x["excess"]}
        if nonzero != exp["p_excess"]:
            out.append(f"nonzero p-excesses {nonzero}, "
                       f"expected {exp['p_excess']}")
    if p["reciprocity_residual"] != 0:
        out.append(f"reciprocity residual {p['reciprocity_residual']}")
    if p["signature_mod8"] != p["signature"] % 8:
        out.append(f"local signature mod 8 {p['signature_mod8']} != "
                   f"Sylvester {p['signature']} mod 8")
    return out


def _qf_equiv(p: dict, exp: dict) -> list[str]:
    got = (p["equivalent"], p["failing"])
    want = (exp["equivalent"], exp["failing"])
    return [] if got == want else [f"qf-equiv {got}, expected {want}"]


_CHECKS = {"panel": lambda p, exp: _panel(p, exp["base"]),
           "compare": _compare, "homology": _homology,
           "sw-numbers": _sw_report, "qf": _qf, "qf-equiv": _qf_equiv}
