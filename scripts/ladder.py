"""Time the slow rungs of the integral and F2 sides, each in a fresh process.

Usage: PYTHONPATH=src python scripts/ladder.py

Builds S2xS2xS2, CP2xT2, S4xS4, T2xT2 and K2xK2 with the staircase
product_complex and times panel on each, and on S4xS4 also integral
homology and what the intersection verb computes: the checked form on
the pinned basis.  T2xT2 is aspherical and orientable, with b_2 = 6: its
panel clears the most rows of delta_2 (SimplicialComplex._walk_tree)
and of im delta_1 (_spanning_forest).  K2xK2 is non-orientable
(w_1 != 0), so its panel runs the F2 pipeline alone and never reaches the
integral engine.  "simplex17 F2" is F2 homology of one 16-simplex, whose
131,071 faces are the most MAX_FACES allows: the F2 side's peak memory,
which grows with the product of adjacent face counts while one
coboundary is eliminated.  "S16 panel" is panel on the boundary of the
17-simplex, whose 262,142 faces are past MAX_FACES: the cost of a
refusal.  "CP2xT2 compare" runs the compare verb through cli.main on
CP2xT2 and a relabeled copy (the vertex order reversed), both written to
files before the timing: its peak is that of two such complexes parsed
and panelled in one process.  "CP2xT2 cobordant" runs the cobordant verb
on the same two files, which takes the SW numbers of each.  "CP2xT2
faces" and "S4xS4 faces" time the face build and every codimension-1
face table (SimplicialComplex._facet_tables), which the build gives;
every other rung builds its faces, and with them those tables, before
its timer starts.  Each rung runs in its own interpreter, so no
memoized elimination carries over: the child builds its complex and
its faces, then times the call alone
with time.perf_counter and reports the process's peak RSS (ru_maxrss).
Prints one JSON line, {name: {"op", "f_vector", "s", "peak_rss_mb"}},
with the printed "gram", "signature", "signature_mod8" and "even", read
off the built form, too on the intersection rung, and "exit", the verb's
exit code, on a compare or cobordant rung.
A rung whose faces are refused reports "refused", the error line, in
place of "f_vector", and "s" times the refused build.
"""

import json
import subprocess
import sys

RUNGS = {
    "S2xS2xS2": ("product_complex(catalog.s2xs2(), catalog.sphere(2))",
                 "panel"),
    "CP2xT2": ("product_complex(catalog.complex_projective_plane(), "
               "catalog.torus())", "panel"),
    "CP2xT2 compare": ("product_complex(catalog.complex_projective_plane(), "
                       "catalog.torus())", "compare"),
    "CP2xT2 cobordant": ("product_complex("
                         "catalog.complex_projective_plane(), "
                         "catalog.torus())", "cobordant"),
    "CP2xT2 faces": ("product_complex(catalog.complex_projective_plane(), "
                     "catalog.torus())", "faces"),
    "S4xS4 faces": ("product_complex(catalog.sphere(4), catalog.sphere(4))",
                    "faces"),
    "S4xS4": ("product_complex(catalog.sphere(4), catalog.sphere(4))",
              "homology Z"),
    "S4xS4 panel": ("product_complex(catalog.sphere(4), catalog.sphere(4))",
                    "panel"),
    "S4xS4 intersection": ("product_complex(catalog.sphere(4), "
                           "catalog.sphere(4))", "intersection"),
    "T2xT2 panel": ("product_complex(catalog.torus(), catalog.torus())",
                    "panel"),
    "K2xK2": ("product_complex(catalog.klein_bottle(), catalog.klein_bottle())",
              "panel"),
    "simplex17 F2": ("SimplicialComplex([tuple(range(17))])", "homology F2"),
    "S16 panel": ("catalog.sphere(16)", "panel"),
}

CHILD = """
import contextlib, io, json, resource, tempfile, time
from topinv import catalog, cli, intersection
from topinv.complexes import (SimplicialComplex, TopologyError, complex_text,
                              homology, product_complex, relabel)
K = {build}
out = {{"op": {op!r}}}
t = time.perf_counter()
try:
    out["f_vector"] = [K.n_simplices(k) for k in range(K.dimension + 1)]
except TopologyError as e:
    out["refused"] = str(e)
    out["s"] = round(time.perf_counter() - t, 3)
else:
    with tempfile.TemporaryDirectory() as tmp:
        verb = {op!r} in ("compare", "cobordant")
        if verb:  # K and a relabeled copy as files; K dropped
            argv = [{op!r}, tmp + "/a.cx", tmp + "/b.cx"]
            for path, L in zip(argv[1:], (K, relabel(
                    K, dict(zip(K.vertices, reversed(K.vertices)))))):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(complex_text(L))
            del K, L
        if {op!r} != "faces":  # faces times the build above too
            t = time.perf_counter()
        if verb:
            with contextlib.redirect_stdout(io.StringIO()):
                out["exit"] = cli.main(argv)
        elif {op!r} == "panel":
            intersection.panel(K)
        elif {op!r} == "faces":
            for n in range(K.dimension + 1):
                K._facet_tables(n)
        elif {op!r} == "intersection":
            form = intersection.intersection_form(K)
            out.update(gram=form.gram, signature=form.signature,
                       signature_mod8=form.signature_mod8, even=form.even)
        else:
            homology(K, {op!r}.split()[1])
        out["s"] = round(time.perf_counter() - t, 3)  # before the cleanup
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({{**out, "peak_rss_mb": round(rss, 1)}}))
"""


def main() -> int:
    out = {}
    for name, (build, op) in RUNGS.items():
        code = CHILD.format(build=build, op=op)
        res = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True)
        out[name] = json.loads(res.stdout.splitlines()[-1])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
