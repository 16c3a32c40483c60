"""Outside-in tracing of topinv's public functions, for the traced run.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper that
records a span: name, start, end, parent span and the id of the op it ran
in.  A function imported by name into another module (``from .complexes
import cup_cochain_f2``) is replaced there too, so every call site is seen.
``uninstall`` puts the originals back, so untraced and traced rounds run in
one process.  Nothing under ``src/`` is changed.

Self time is a span's duration minus the time its child spans cover.  The
tracer also keeps the counters of the per-layer metrics: faces enumerated,
matrix cells given to ``zlinalg.diagonalize``, memo hits and misses of
``SimplicialComplex._memo``, and the largest number handed to
``relevant_odd_primes`` for factoring.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path, metric prefix)
TRACED = [
    ("cli", "main", "cli.main"),
    ("complexes", "SimplicialComplex.__init__",
     "complexes.SimplicialComplex.__init__"),
    *[("complexes", f"SimplicialComplex.{m}", f"complexes.{m}") for m in (
        "simplices", "boundary_z", "coboundary_z", "coboundary_f2",
        "cohomology_f2", "cohomology_z", "fundamental_class_f2",
        "fundamental_class_z")],
    *[("complexes", f, f"complexes.{f}") for f in (
        "is_poincare_f2", "cup_cochain_f2", "cup_cochain_z", "parse_complex")],
    *[("f2linalg", f, f"f2linalg.{f}") for f in (
        "kernel_basis", "rank", "solve_square")],
    *[("zlinalg", f, f"zlinalg.{f}") for f in (
        "diagonalize", "kernel_basis", "solve", "matvec", "invariant_factors",
        "det")],
    *[("steenrod", f, f"steenrod.{f}") for f in (
        "cup_i", "sq_on_mask", "bockstein")],
    *[("charclasses", f, f"charclasses.{f}") for f in (
        "wu_classes", "sw_classes", "sw_numbers", "obstructions")],
    *[("intersection", f, f"intersection.{f}") for f in (
        "intersection_form", "signature", "signature_mod8", "form_even",
        "panel", "compare_panel_values")],
    ("quadforms", "QuadraticForm.__init__", "quadforms.QuadraticForm.__init__"),
    *[("quadforms", f, f"quadforms.{f}") for f in (
        "parse_gram", "local_invariants", "relevant_odd_primes",
        "rationally_equivalent", "reciprocity_residual",
        "signature_mod8_from_local")],
]

COUNTERS = ("complexes.faces", "zlinalg.diagonalize.cells",
            "complexes.memo.hits", "complexes.memo.misses",
            "quadforms.factor.max_digits")

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in TRACED]
        self._stack: list[list] = []     # [span id, child seconds]
        self.reset()
        self.spans: list[tuple] = []     # (id, parent, name index, start, end, op)
        self.keep_spans = False
        self.op_id = 0
        self._next_id = 0
        self._patches = self._plan_patches()

    def reset(self) -> None:
        """Zero the per-function totals and counters."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.root_s = 0.0                # time inside outermost spans
        self.counters = dict.fromkeys(COUNTERS, 0)

    # ---- install / uninstall ----

    def _plan_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every replacement."""
        mods = {m: importlib.import_module(f"topinv.{m}")
                for m in {m for m, _, _ in TRACED}}
        topinv_mods = [m for name, m in sys.modules.items()
                       if name == "topinv" or name.startswith("topinv.")]
        patches = []
        for idx, (mod, path, name) in enumerate(TRACED):
            owner, attr = mods[mod], path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, idx, _PRE.get(name))
            if owner is mods[mod]:
                # every topinv namespace that imported the function by name
                patches += [(m, attr, orig, wrapper) for m in topinv_mods
                            if m.__dict__.get(attr) is orig]
            else:
                patches.append((owner, attr, orig, wrapper))
        cx = mods["complexes"].SimplicialComplex
        patches.append((cx, "_memo", cx._memo, self._memo(cx._memo)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # ---- wrappers ----

    def _wrap(self, fn, idx, pre):
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(self.counters, args, kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.root_s += dur
                if self.keep_spans and len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, parent, idx, t0, t1, self.op_id))
        return wrapper

    def _memo(self, orig):
        def memo(cx, key, build):
            c = self.counters
            if key in cx._cache:
                c["complexes.memo.hits"] += 1
                return cx._cache[key]
            c["complexes.memo.misses"] += 1
            value = orig(cx, key, build)
            if key[0] == "simp":
                c["complexes.faces"] += len(value)
            return value
        return memo

    # ---- results ----

    def snapshot(self) -> dict:
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "root_s": self.root_s, "counters": dict(self.counters)}

    def span_tree(self) -> list[dict]:
        return [{"id": s, "parent": p, "name": self.names[i], "start": a,
                 "end": b, "op": op} for s, p, i, a, b, op in self.spans]


def _count_cells(counters, args, kwargs):
    a = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    counters["zlinalg.diagonalize.cells"] += (
        len(a) * (len(a[0]) if a else (ncols or 0)))


def _count_digits(counters, args, kwargs):
    form = args[0]
    digits = max((len(str(abs(x))) for d in form.diagonal
                  for x in (d.numerator, d.denominator)), default=0)
    if digits > counters["quadforms.factor.max_digits"]:
        counters["quadforms.factor.max_digits"] = digits


_PRE = {"zlinalg.diagonalize": _count_cells,
        "quadforms.relevant_odd_primes": _count_digits}
