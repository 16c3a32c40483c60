"""Self-test of the benchmark's correctness gate and expected values.

    python3 perfbench/selftest.py        (from the root of a topinv checkout)

1. Re-derives the characteristic-class fields of ``expected.json`` from the
   Whitney product formula w(M x N) = w(M) w(N) over the mod-2 cohomology
   rings of the factors, written out here by hand, so the stored values do
   not come from the program under test.
2. Runs real ops through the worker and the gate, then shows that a
   deliberately wrong expected value, a wrong verdict and a timeout are
   each counted as a failure.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


# ---- mod-2 cohomology rings ----

class Ring:
    """Mod-2 cohomology ring of a closed manifold: a basis with degrees,
    products of basis elements (None for zero), the total Stiefel-Whitney
    class as a set of basis elements, and the top class."""

    def __init__(self, deg, mul, w, top):
        self.deg, self._mul, self.w, self.top = deg, mul, set(w), top

    def mul(self, x, y):
        return self._mul(x, y)

    def times(self, xs: set, ys: set) -> set:
        out: set = set()
        for x in xs:
            for y in ys:
                m = self.mul(x, y)
                if m is not None:
                    out ^= {m}
        return out

    def __mul__(self, other: "Ring") -> "Ring":
        deg = {(a, b): da + db for a, da in self.deg.items()
               for b, db in other.deg.items()}

        def mul(x, y):
            p, q = self.mul(x[0], y[0]), other.mul(x[1], y[1])
            return None if p is None or q is None else (p, q)
        return Ring(deg, mul, {(a, b) for a in self.w for b in other.w},
                    (self.top, other.top))


def _table_ring(deg, table, w, top):
    def mul(x, y):
        if x == "1":
            return y
        if y == "1":
            return x
        return table.get((x, y))
    return Ring(deg, mul, w, top)


def truncated(step: int) -> Ring:
    """F2[h]/h^3 with |h| = step and w = (1+h)^3 = 1 + h + h^2: the
    projective planes RP2 (step 1) and CP2 (step 2)."""
    deg = {"1": 0, "h": step, "h2": 2 * step}
    return _table_ring(deg, {("h", "h"): "h2"}, {"1", "h", "h2"}, "h2")


def sphere(n: int) -> Ring:
    return _table_ring({"1": 0, "s": n}, {}, {"1"}, "s")


TORUS = _table_ring({"1": 0, "x": 1, "y": 1, "u": 2},
                    {("x", "y"): "u", ("y", "x"): "u"}, {"1"}, "u")
# the Klein bottle RP2 # RP2: a1^2 = a2^2 = u, a1 a2 = 0, w = 1 + a1 + a2
KLEIN = _table_ring({"1": 0, "a1": 1, "a2": 1, "u": 2},
                    {("a1", "a1"): "u", ("a2", "a2"): "u"},
                    {"1", "a1", "a2"}, "u")
RP2, CP2 = truncated(1), truncated(2)

RINGS = {"CP2": CP2, "S2xS2": sphere(2) * sphere(2),
         "S1xS3": sphere(1) * sphere(3), "T3": sphere(1) * TORUS,
         "RP2xRP2": RP2 * RP2, "RP2xS3": RP2 * sphere(3),
         "RP2xK2": RP2 * KLEIN, "K2xT2": KLEIN * TORUS}


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(p, *rest) for p in range(min(n, cap), 0, -1)
            for rest in partitions(n - p, p)]


def derived_panel(R: Ring) -> dict:
    """Fields of a panel that follow from the total SW class alone."""
    n = R.deg[R.top]
    w = [{b for b in R.w if R.deg[b] == k} for k in range(n + 1)]

    def zero(j):
        return j > n or not w[j]

    sw = {}
    for part in partitions(n):
        prod = w[part[0]]
        for p in part[1:]:
            prod = R.times(prod, w[p])
        sw[",".join(map(str, part))] = int(R.top in prod)
    k = 0
    while 2 ** k - 1 < n and all(zero(j) for j in range(1, 2 ** (k + 1))):
        k += 1
    orientable = zero(1)
    return {
        "dim": n, "sw_numbers": sw, "orientable": orientable,
        "k_orientable_max": k, "spin": orientable and zero(2),
        # in dimension 4 the middle Wu class is v2 = w2 + w1^2
        "even_form": (zero(2) if orientable and n == 4 else None),
        "de_rham": (int(R.top in R.times(w[2], w[n - 2]))
                    if n >= 5 and n % 4 == 1 else None),
        "euler": sum((-1) ** d for d in R.deg.values()),
    }


# ---- checks ----

def check_expected(gate) -> list[str]:
    bad = []
    for base, R in RINGS.items():
        e = gate.EXPECTED[base]
        d = derived_panel(R)
        d["euler"] -= sum((-1) ** k * f for k, f in enumerate(e["f_vector"]))
        for field, value in d.items():
            want = 0 if field == "euler" else e[field]
            if value != want:
                bad.append(f"{base} {field}: expected.json {want!r}, "
                           f"product formula {value!r}")
    return bad


def check_gate(gate, workloads, worker) -> list[str]:
    import topinv.cli as cli
    import signal
    signal.signal(signal.SIGALRM, worker._alarm)
    bad = []

    def expect(label, op, rec, should_fail):
        problems = gate.check(op, rec)
        if bool(problems) != should_fail:
            bad.append(f"{label}: gate returned {problems or 'pass'}")
        print(f"  {'ok ' if bool(problems) == should_fail else 'BAD'} "
              f"{label}: {'failed' if problems else 'passed'}"
              + (f" ({problems[0][:70]})" if problems else ""))

    z = workloads.build("z-orientable", 0)["rounds"][0]
    qf = workloads.build("qf-forms", 0)["rounds"][0]
    ops = {op["kind"]: op for op in z + qf}
    for kind in ("panel CP2", "compare T3 T3'", "qf E8^1",
                 "qf-equiv E8 I7+<3>"):
        expect(f"correct {kind}", ops[kind], worker.run_op(cli, ops[kind]),
               False)

    op = ops["panel CP2"]
    rec = worker.run_op(cli, op)
    saved = copy.deepcopy(gate.EXPECTED["CP2"])
    try:
        gate.EXPECTED["CP2"]["abs_signature"] = 2
        expect("wrong expected signature of CP2", op, rec, True)
        gate.EXPECTED["CP2"]["sw_numbers"]["2,2"] = 0
        gate.EXPECTED["CP2"]["abs_signature"] = 1
        expect("wrong expected SW number of CP2", op, rec, True)
    finally:
        gate.EXPECTED["CP2"] = saved

    op = copy.deepcopy(ops["qf E8^1"])
    op["expect"]["det"] = "2"
    expect("wrong expected det of E8", op, worker.run_op(cli, op), True)

    op = copy.deepcopy(ops["qf-equiv E8 I7+<3>"])
    op["expect"].update(equivalent=True, failing=None)
    expect("wrong expected verdict", op, worker.run_op(cli, op), True)

    op = dict(ops["panel S2xS2"], budget_s=0.05)
    rec = worker.run_op(cli, op)
    expect(f"op over budget ({rec['status']})", op, rec, True)
    return bad


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "topinv" / "cli.py").is_file():
        print("selftest: run from the root of a topinv checkout",
              file=sys.stderr)
        return 1
    sys.path[:0] = [str(src), str(HERE)]
    import gate
    import worker
    import workloads

    print("expected.json against the product formula:")
    bad = check_expected(gate)
    print(f"  {'ok ' if not bad else 'BAD'} {len(RINGS)} base complexes")
    print("gate on real ops:")
    bad += check_gate(gate, workloads, worker)
    for line in bad:
        print(f"FAILED {line}")
    print("selftest", "passed" if not bad else "FAILED")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
