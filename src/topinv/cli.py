"""Command-line front end for complex and Gram-matrix reports.

Comparison verbs signal their verdict through the exit code: 0 when the
inputs are equivalent or consistent, 2 when an invariant distinguishes
them, 1 on input errors.  --json emits a stable machine report whose
keys are the field names of the underlying dataclasses.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import charclasses, intersection, quadforms
from .complexes import (CohomologyClass, SimplicialComplex, homology,
                        parse_complex)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_complex(path: str) -> SimplicialComplex:
    return parse_complex(_read(path))


def _load_form(path: str) -> quadforms.QuadraticForm:
    return quadforms.parse_gram(_read(path))


def _emit(args, payload, lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _support_str(K: SimplicialComplex, cls: CohomologyClass) -> str:
    simp = cls.support(K)
    if not simp:
        return "0"
    if cls.ring == "F2":
        return " + ".join("(" + " ".join(map(str, s)) + ")" for s in simp)
    parts = []
    for i, v in enumerate(cls.cocycle):
        if v:
            s = K.simplices(cls.degree)[i]
            parts.append(f"{v}*(" + " ".join(map(str, s)) + ")")
    return " + ".join(parts)


def _class_json(K: SimplicialComplex, cls: CohomologyClass) -> dict:
    if cls.ring == "F2":
        coords = [(cls.coords >> i) & 1
                  for i in range(K.cohomology_f2(cls.degree).dim)]
    else:
        coords = list(cls.coords)
    return {
        "degree": cls.degree,
        "coords": coords,
        "support": [list(s) for s in cls.support(K)],
    }


def _numbers_json(numbers: dict, n: int) -> list:
    return [{"partition": list(part), "value": numbers[part]}
            for part in charclasses.partitions(n)]


def _panel_json(p: intersection.InvariantPanel) -> dict:
    return {**dataclasses.asdict(p),
            "sw_numbers": _numbers_json(p.sw_numbers, p.dim)}


def _fmt_partition(part) -> str:
    return "(" + ",".join(map(str, part)) + ")"


# ---- verb handlers ----

def _cmd_homology(args) -> int:
    K = _load_complex(args.complex)
    summaries = homology(K, args.ring)
    payload = {"ring": args.ring,
               "summaries": [dataclasses.asdict(h) for h in summaries]}
    lines = [f"homology over {args.ring} (dimension {K.dimension})"]
    for h in summaries:
        tor = " + ".join(f"Z/{t}" for t in h.torsion)
        desc = f"Z^{h.betti}" if args.ring == "Z" else f"F2^{h.betti}"
        lines.append(f"  H_{h.degree} = {desc}" + (f" + {tor}" if tor else ""))
    _emit(args, payload, lines)
    return 0


def _classes_report(args, kind: str) -> int:
    K = _load_complex(args.complex)
    if kind == "wu":
        classes = charclasses.wu_classes(K)
        sym = "v"
    else:
        classes = charclasses.sw_classes(K)
        sym = "w"
    payload = {"n": K.dimension,
               kind: [_class_json(K, c) for c in classes]}
    lines = [f"{sym}-classes of a dimension-{K.dimension} complex"]
    for k, c in enumerate(classes):
        if c.is_zero:
            lines.append(f"  {sym}_{k} = 0")
        else:
            lines.append(f"  {sym}_{k} = {_support_str(K, c)}")
    _emit(args, payload, lines)
    return 0


def _cmd_wu(args) -> int:
    return _classes_report(args, "wu")


def _cmd_sw(args) -> int:
    return _classes_report(args, "sw")


def _cmd_sw_numbers(args) -> int:
    K = _load_complex(args.complex)
    numbers = charclasses.sw_numbers(K)
    payload = {"n": K.dimension,
               "sw_numbers": _numbers_json(numbers, K.dimension)}
    lines = [f"Stiefel-Whitney numbers (dimension {K.dimension})"]
    for part in charclasses.partitions(K.dimension):
        lines.append(f"  {_fmt_partition(part)}: {numbers[part]}")
    _emit(args, payload, lines)
    return 0


def _cmd_obstructions(args) -> int:
    K = _load_complex(args.complex)
    ob = charclasses.obstructions(K)
    payload = dataclasses.asdict(ob)
    lines = [
        f"orientable: {str(ob.orientable).lower()}",
        f"k_orientable_max: {ob.k_orientable_max}",
        f"spin: {str(ob.spin).lower()}",
        f"spin_c: {str(ob.spin_c).lower()}",
        f"de_rham: {'n/a' if ob.de_rham is None else ob.de_rham}",
        f"null_cobordant: {str(ob.null_cobordant).lower()}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_cobordant(args) -> int:
    k1 = _load_complex(args.complex1)
    k2 = _load_complex(args.complex2)
    same, part = charclasses.cobordant(k1, k2)
    payload = {"cobordant": same,
               "first_differing": None if part is None else list(part)}
    if same:
        _emit(args, payload, ["cobordant: true"])
        return 0
    _emit(args, payload, [
        "cobordant: false",
        f"first differing partition: {_fmt_partition(part)}"])
    return 2


def _cmd_intersection(args) -> int:
    K = _load_complex(args.complex)
    form = intersection.intersection_form(K)
    sig = intersection.signature(K)
    sig8 = intersection.signature_mod8(K)
    even = intersection.form_even(K)
    payload = {
        "m": form.m,
        "rank": form.rank,
        "gram": [list(r) for r in form.gram],
        "signature": sig,
        "signature_mod8": sig8,
        "even": even,
        "orientation_tag": form.orientation_tag,
    }
    lines = [f"intersection form in degree {2 * form.m} "
             f"(rank {form.rank}, orientation {form.orientation_tag})"]
    for row in form.gram:
        lines.append("  [" + " ".join(f"{x:3d}" for x in row) + "]")
    lines.append(f"signature: {sig}")
    lines.append(f"signature mod 8: {sig8}")
    lines.append(f"even: {str(even).lower()}")
    _emit(args, payload, lines)
    return 0


def _cmd_qf(args) -> int:
    F = _load_form(args.gram)
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
    lines = [
        f"dim: {F.dim}",
        f"det: {F.det}",
        f"signature: {payload['signature']}",
        f"oddity: {payload['oddity']}",
    ]
    for l in locs:
        lines.append(f"p = {l.p}: p-signature {l.p_signature}, "
                     f"p-excess {l.p_excess}, antisquares {l.antisquare_count}")
    lines.append(f"reciprocity residual: {payload['reciprocity_residual']}")
    lines.append(f"signature mod 8 (local): {payload['signature_mod8']}")
    if payload["even"] is not None:
        lines.append(f"even: {str(payload['even']).lower()}")
    _emit(args, payload, lines)
    return 0


def _cmd_qf_equiv(args) -> int:
    f = _load_form(args.gram1)
    g = _load_form(args.gram2)
    res = quadforms.rationally_equivalent(f, g)
    payload = {"equivalent": res.equivalent, "failing": res.failing}
    if res:
        _emit(args, payload, ["rationally equivalent"])
        return 0
    _emit(args, payload,
          [f"not rationally equivalent (failing: {res.failing})"])
    return 2


def _cmd_panel(args) -> int:
    K = _load_complex(args.complex)
    p = intersection.panel(K)
    payload = _panel_json(p)
    lines = [f"invariant panel (dimension {p.dim})"]
    nz = [part for part, v in p.sw_numbers.items() if v]
    lines.append("  sw_numbers nonzero at: " +
                 (", ".join(_fmt_partition(x)
                            for x in sorted(nz, reverse=True)) if nz else "none"))
    lines.append(f"  orientable: {str(p.orientable).lower()}")
    lines.append(f"  k_orientable_max: {p.k_orientable_max}")
    lines.append(f"  spin: {str(p.spin).lower()}")
    lines.append(f"  spin_c: {str(p.spin_c).lower()}")
    if p.de_rham is not None:
        lines.append(f"  de_rham: {p.de_rham}")
    if p.even_form is not None:
        lines.append(f"  even_form: {str(p.even_form).lower()}")
    if p.signature is not None:
        lines.append(f"  signature: {p.signature} "
                     f"(mod 8: {p.signature_mod8})")
    _emit(args, payload, lines)
    return 0


def _cmd_compare(args) -> int:
    k1 = _load_complex(args.complex1)
    k2 = _load_complex(args.complex2)
    p1 = intersection.panel(k1)
    p2 = intersection.panel(k2)
    cmp = intersection.compare_panel_values(p1, p2)
    payload = {
        "verdict": cmp.verdict,
        "differing": cmp.differing,
        "panels": [_panel_json(p1), _panel_json(p2)],
    }
    if cmp.consistent:
        lines = ["consistent-with-profinite-isomorphism"]
        if cmp.differing:
            lines.append("note, differing non-decisive fields: "
                         + ", ".join(cmp.differing))
        _emit(args, payload, lines)
        return 0
    if cmp.verdict == "distinguished by dimension":
        _emit(args, payload, ["distinguished by dimension"])
    else:
        _emit(args, payload,
              ["distinguished by: " + ", ".join(cmp.differing)])
    return 2


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

    p = sub.add_parser("homology", parents=[common],
                       help="betti numbers and torsion")
    p.add_argument("complex")
    p.add_argument("--ring", choices=["Z", "F2"], default="Z")
    p.set_defaults(func=_cmd_homology)

    for verb, fn, hlp in [
            ("wu", _cmd_wu, "Wu classes"),
            ("sw", _cmd_sw, "Stiefel-Whitney classes"),
            ("sw-numbers", _cmd_sw_numbers, "Stiefel-Whitney numbers"),
            ("obstructions", _cmd_obstructions,
             "orientability, spin, spin_c, de Rham obstructions"),
            ("intersection", _cmd_intersection,
             "middle-degree intersection form"),
            ("panel", _cmd_panel, "full invariant panel")]:
        p = sub.add_parser(verb, parents=[common], help=hlp)
        p.add_argument("complex")
        p.set_defaults(func=fn)

    p = sub.add_parser("cobordant", parents=[common],
                       help="compare all Stiefel-Whitney numbers")
    p.add_argument("complex1")
    p.add_argument("complex2")
    p.set_defaults(func=_cmd_cobordant)

    p = sub.add_parser("compare", parents=[common],
                       help="compare full invariant panels")
    p.add_argument("complex1")
    p.add_argument("complex2")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("qf", parents=[common],
                       help="local invariants of a Gram matrix")
    p.add_argument("gram")
    p.set_defaults(func=_cmd_qf)

    p = sub.add_parser("qf-equiv", parents=[common],
                       help="rational equivalence of two Gram matrices")
    p.add_argument("gram1")
    p.add_argument("gram2")
    p.set_defaults(func=_cmd_qf_equiv)

    return parser


def main(argv=None) -> int:
    # argparse exits with code 2 on usage errors, which would collide with
    # the "distinguished" exit code; remap those to 1
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
