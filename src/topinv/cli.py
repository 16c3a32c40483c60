"""Command-line front end for complex and Gram-matrix reports.

Every verb is one row of VERBS: its name, its handler, the names of its
input files and its help.  main parses the files and calls the handler,
which returns (payload, lines, exit code); main prints the payload as
JSON under --json and the lines otherwise.

Comparison verbs signal their verdict through the exit code: 0 when the
inputs are equivalent or consistent, 2 when an invariant distinguishes
them, 1 on input errors.  --json emits a stable machine report.  The
obstructions, qf-equiv, panel and compare payloads are dataclasses.asdict
of ObstructionReport, EquivalenceResult, InvariantPanel and
PanelComparison (compare adds both panels; a panel lists its SW numbers
in sw_numbers' order), homology's are asdict of each HomologySummary, and
intersection's are IntersectionForm's attributes by name, plus even.  The
other verbs keep the hand-named keys that tests/golden/ holds them to:
qf names its p-adic entries excess and antisquares, and cobordant, wu,
sw and sw-numbers build their payloads field by field.

Nothing of the program is imported at module level: _load and each
handler import the modules they call, so -h loads none, qf and qf-equiv
load quadforms alone, and the complex verbs load only the modules their
answer runs (see the package docstring).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .complexes import CohomologyClass, SimplicialComplex
    from .intersection import InvariantPanel


def _load(name: str, path: str):
    """Parse the input file of the argument `name`: a Gram matrix for
    gram, gram1 and gram2, a complex otherwise."""
    if name.startswith("gram"):
        from .quadforms import parse_gram as parse
    else:
        from .complexes import parse_complex as parse
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _fmt(value) -> str:
    """A report field as text: booleans lower-case, None as n/a."""
    if isinstance(value, bool):
        return str(value).lower()
    return "n/a" if value is None else str(value)


def _support_str(K: SimplicialComplex, cls: CohomologyClass) -> str:
    """An F2 class as the sum of the simplices of its cocycle."""
    if cls.is_zero:
        return "0"
    return " + ".join("(" + " ".join(map(str, s)) + ")"
                      for s in cls.support(K))


def _class_json(K: SimplicialComplex, cls: CohomologyClass) -> dict:
    """An F2 class: its coordinate bits and the simplices of its cocycle."""
    return {
        "degree": cls.degree,
        "coords": [(cls.coords >> i) & 1
                   for i in range(K.cohomology_f2(cls.degree).dim)],
        "support": [list(s) for s in cls.support(K)],
    }


def _numbers_json(numbers: dict) -> list:
    """SW numbers as a list, in sw_numbers' own order."""
    return [{"partition": list(part), "value": v}
            for part, v in numbers.items()]


def _panel_json(p: InvariantPanel) -> dict:
    return {**dataclasses.asdict(p), "sw_numbers": _numbers_json(p.sw_numbers)}


def _fmt_partition(part) -> str:
    return "(" + ",".join(map(str, part)) + ")"


# ---- verb handlers: (args, *inputs) -> (payload, lines, exit code) ----

def _cmd_homology(args, K):
    from .complexes import homology
    summaries = homology(K, args.ring)
    payload = {"ring": args.ring,
               "summaries": [dataclasses.asdict(h) for h in summaries]}
    lines = [f"homology over {args.ring} (dimension {K.dimension})"]
    for h in summaries:
        tor = " + ".join(f"Z/{t}" for t in h.torsion)
        desc = f"Z^{h.betti}" if args.ring == "Z" else f"F2^{h.betti}"
        lines.append(f"  H_{h.degree} = {desc}" + (f" + {tor}" if tor else ""))
    return payload, lines, 0


def _classes_report(args, K, kind: str):
    from . import charclasses
    classes, sym = ((charclasses.wu_classes(K), "v") if kind == "wu"
                    else (charclasses.sw_classes(K), "w"))
    payload = {"n": K.dimension,
               kind: [_class_json(K, c) for c in classes]}
    lines = [f"{sym}-classes of a dimension-{K.dimension} complex"]
    for k, c in enumerate(classes):
        lines.append(f"  {sym}_{k} = {_support_str(K, c)}")
    return payload, lines, 0


def _cmd_sw_numbers(args, K):
    from . import charclasses
    numbers = charclasses.sw_numbers(K)
    payload = {"n": K.dimension, "sw_numbers": _numbers_json(numbers)}
    lines = [f"Stiefel-Whitney numbers (dimension {K.dimension})"]
    for part, v in numbers.items():
        lines.append(f"  {_fmt_partition(part)}: {v}")
    return payload, lines, 0


def _cmd_obstructions(args, K):
    from . import charclasses
    payload = dataclasses.asdict(charclasses.obstructions(K))
    return payload, [f"{k}: {_fmt(v)}" for k, v in payload.items()], 0


def _cmd_cobordant(args, k1, k2):
    from . import charclasses
    same, part = charclasses.cobordant(k1, k2)
    payload = {"cobordant": same,
               "first_differing": None if part is None else list(part)}
    lines = [f"cobordant: {_fmt(same)}"]
    if not same:
        lines.append(f"first differing partition: {_fmt_partition(part)}")
    return payload, lines, 0 if same else 2


def _cmd_intersection(args, K):
    from . import intersection
    form = intersection.intersection_form(K)
    # signature, signature_mod8, even: the order their cross-checks raise in
    payload = {key: getattr(form, key) for key in (
        "m", "rank", "gram", "signature", "signature_mod8", "orientation_tag")}
    payload["even"] = form.even(K)
    lines = [f"intersection form in degree {2 * form.m} "
             f"(rank {form.rank}, orientation {form.orientation_tag})"]
    for row in form.gram:
        lines.append("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    lines.append(f"signature: {form.signature}")
    lines.append(f"signature mod 8: {form.signature_mod8}")
    lines.append(f"even: {_fmt(payload['even'])}")
    return payload, lines, 0


def _cmd_qf(args, F):
    from . import quadforms
    locs = [quadforms.local_invariants(F, p)
            for p in quadforms.relevant_odd_primes(F)]
    payload = {
        "dim": F.dim,
        "det": str(F.det),
        "signature": quadforms.real_signature(F),
        "oddity": quadforms.oddity(F),
        "p_excess": [{"p": l.p, "excess": l.p_excess,
                      "p_signature": l.p_signature,
                      "antisquares": l.antisquare_count} for l in locs],
        "reciprocity_residual": quadforms.reciprocity_residual(F),
        "signature_mod8": quadforms.signature_mod8_from_local(F),
        "even": quadforms.is_even(F) if F.is_integral else None,
    }
    lines = [f"{k}: {payload[k]}" for k in ("dim", "det", "signature",
                                            "oddity")]
    for l in locs:
        lines.append(f"p = {l.p}: p-signature {l.p_signature}, "
                     f"p-excess {l.p_excess}, antisquares {l.antisquare_count}")
    lines.append(f"reciprocity residual: {payload['reciprocity_residual']}")
    lines.append(f"signature mod 8 (local): {payload['signature_mod8']}")
    if payload["even"] is not None:
        lines.append(f"even: {_fmt(payload['even'])}")
    return payload, lines, 0


def _cmd_qf_equiv(args, f, g):
    from . import quadforms
    res = quadforms.rationally_equivalent(f, g)
    line = ("rationally equivalent" if res
            else f"not rationally equivalent (failing: {res.failing})")
    return dataclasses.asdict(res), [line], 0 if res else 2


def _cmd_panel(args, K):
    from . import intersection
    p = intersection.panel(K)
    nz = [part for part, v in p.sw_numbers.items() if v]
    lines = [f"invariant panel (dimension {p.dim})",
             "  sw_numbers nonzero at: "
             + (", ".join(map(_fmt_partition, nz)) if nz else "none")]
    for field in ("orientable", "k_orientable_max", "spin", "spin_c",
                  "de_rham", "even_form"):
        value = getattr(p, field)
        if value is not None:
            lines.append(f"  {field}: {_fmt(value)}")
    if p.signature is not None:
        lines.append(f"  signature: {p.signature} "
                     f"(mod 8: {p.signature_mod8})")
    return _panel_json(p), lines, 0


def _cmd_compare(args, k1, k2):
    from . import intersection
    p1 = intersection.panel(k1)
    p2 = intersection.panel(k2)
    cmp = intersection.compare_panel_values(p1, p2)
    payload = {**dataclasses.asdict(cmp),
               "panels": [_panel_json(p1), _panel_json(p2)]}
    if cmp.consistent:
        lines = [cmp.verdict]
        if cmp.differing:
            lines.append("note, differing non-decisive fields: "
                         + ", ".join(cmp.differing))
    elif cmp.verdict == "distinguished by dimension":
        lines = [cmp.verdict]
    else:
        lines = ["distinguished by: " + ", ".join(cmp.differing)]
    return payload, lines, 0 if cmp.consistent else 2


# (verb, handler, input names, help), in the order -h lists them
VERBS = [
    ("homology", _cmd_homology, ["complex"], "betti numbers and torsion"),
    ("wu", functools.partial(_classes_report, kind="wu"), ["complex"],
     "Wu classes"),
    ("sw", functools.partial(_classes_report, kind="sw"), ["complex"],
     "Stiefel-Whitney classes"),
    ("sw-numbers", _cmd_sw_numbers, ["complex"], "Stiefel-Whitney numbers"),
    ("obstructions", _cmd_obstructions, ["complex"],
     "orientability, spin, spin_c, de Rham obstructions"),
    ("intersection", _cmd_intersection, ["complex"],
     "middle-degree intersection form"),
    ("panel", _cmd_panel, ["complex"], "full invariant panel"),
    ("cobordant", _cmd_cobordant, ["complex1", "complex2"],
     "compare all Stiefel-Whitney numbers"),
    ("compare", _cmd_compare, ["complex1", "complex2"],
     "compare full invariant panels"),
    ("qf", _cmd_qf, ["gram"], "local invariants of a Gram matrix"),
    ("qf-equiv", _cmd_qf_equiv, ["gram1", "gram2"],
     "rational equivalence of two Gram matrices"),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every main()
    call: parse_args leaves it unchanged, and callers must not add to it."""
    parser = argparse.ArgumentParser(
        prog="topinv",
        description="exact invariants of triangulated manifolds and forms")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a stable machine-readable report")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, handler, inputs, hlp in VERBS:
        p = sub.add_parser(verb, parents=[common], help=hlp)
        for name in inputs:
            p.add_argument(name)
        p.set_defaults(handler=handler, inputs=inputs)
    sub.choices["homology"].add_argument("--ring", choices=["Z", "F2"],
                                         default="Z")
    return parser


def main(argv=None) -> int:
    # argparse exits with code 2 on usage errors, which would collide with
    # the "distinguished" exit code; remap those to 1
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        inputs = [_load(name, getattr(args, name)) for name in args.inputs]
        payload, lines, code = args.handler(args, *inputs)
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print("\n".join(lines))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
