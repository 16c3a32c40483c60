"""Seeded inputs, op lists and expected results of the three workloads.

``build`` writes every input file of a run under ``inputs/<workload>/s<seed>/``
before anything is timed, and returns the run's plan: a list of rounds, each
round one instance of the workload's fixed op list, plus the reference op
(the worker's warm-up, and the op timed in a fresh process) and, for
qf-forms, the known-defect probe.  Every op carries what the correctness
gate expects of it.

The same seed gives byte-identical inputs.  Each op of each round reads its
own freshly relabeled copy of a complex, so one run averages over many
vertex orders; the order changes the cost of the dense integral elimination.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("z-orientable", "f2-nonorientable", "qf-forms")

# Instance sets generated per run; a run that completes more rounds cycles.
ROUNDS = {"z-orientable": 8, "f2-nonorientable": 6, "qf-forms": 4}

OP_BUDGET_S = 20.0     # per-op time budget of every timed op
PROBE_BUDGET_S = 4.0   # budget of the dense dim-64 known-defect probe


# ---- complexes ----

def _base_complexes(names) -> dict:
    """Facets and f-vectors of the named base complexes, built with the
    library's catalog and staircase product, cached across runs."""
    from topinv import catalog
    from topinv.complexes import product_complex

    S, RP2 = catalog.sphere, catalog.projective_plane
    recipes = {
        "CP2": catalog.complex_projective_plane,
        "S2xS2": catalog.s2xs2,
        "S1xS3": lambda: product_complex(S(1), S(3)),
        "T3": lambda: product_complex(S(1), catalog.torus()),
        "RP2xRP2": lambda: product_complex(RP2(), RP2()),
        "RP2xS3": lambda: product_complex(RP2(), S(3)),
        "RP2xK2": lambda: product_complex(RP2(), catalog.klein_bottle()),
        "K2xT2": lambda: product_complex(catalog.klein_bottle(),
                                         catalog.torus()),
    }
    cache = HERE / "inputs" / "base"
    cache.mkdir(parents=True, exist_ok=True)
    out = {}
    for name in names:
        path = cache / f"{name}.json"
        if not path.is_file():
            K = recipes[name]()
            data = {"facets": [list(s) for s in K.maximal_simplices],
                    "f_vector": [K.n_simplices(k)
                                 for k in range(K.dimension + 1)]}
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(data))
            tmp.replace(path)
        out[name] = json.loads(path.read_text())
    return out


def _relabeled_text(facets, rng: random.Random) -> str:
    """The complex file of a seeded vertex relabeling, lines shuffled."""
    verts = sorted({v for s in facets for v in s})
    image = rng.sample(range(2 * len(verts)), len(verts))
    mapping = dict(zip(verts, image))
    lines = [" ".join(str(mapping[v]) for v in s) for s in facets]
    rng.shuffle(lines)
    return "\n".join([str(len(facets[0]) - 1)] + lines) + "\n"


# ---- Gram matrices ----

def _block_diag(block, k):
    b = len(block)
    out = [[0] * (b * k) for _ in range(b * k)]
    for t in range(k):
        for i in range(b):
            for j in range(b):
                out[t * b + i][t * b + j] = block[i][j]
    return out


def _e8():
    a = [[0] * 8 for _ in range(8)]
    for i in range(8):
        a[i][i] = 2
    for i in range(6):
        a[i][i + 1] = a[i + 1][i] = -1
    a[4][7] = a[7][4] = -1
    return a


def _unimodular(n: int, rng: random.Random):
    """A seeded integer matrix of determinant +-1: a unit upper triangular
    matrix with one random +-1 entry above the diagonal of each column, with
    its rows and columns permuted.

    The congruent copy's diagonal entries then stay at about 16 digits or
    fewer.  With three entries per column they reach about 24 digits, and
    factoring them took from 0.04 s to 1.2 s depending on the seed, which
    made a run's figures depend on the seed drawn; the dense forms already
    carry the cost of factoring large diagonal entries.
    """
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(1, n):
        u[rng.randrange(c)][c] = rng.choice((-1, 1))
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[u[i][j] for j in cols] for i in rows]


def _congruent(g, rng):
    """P^T G P for a seeded unimodular P."""
    n = len(g)
    p = _unimodular(n, rng)
    pt = list(zip(*p))
    gp = [[sum(g[i][k] * p[k][j] for k in range(n) if g[i][k])
           for j in range(n)] for i in range(n)]
    gpt = list(zip(*gp))
    return [[sum(a * b for a, b in zip(pt[i], gpt[j])) for j in range(n)]
            for i in range(n)]


def _dense(n: int, rng: random.Random):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    return g


def _leading_minors(g) -> list[int]:
    """Leading principal minors by fraction-free Bareiss elimination
    without pivoting; stops at the first zero minor."""
    m = [list(r) for r in g]
    n = len(m)
    minors = []
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            break
        minors.append(m[k][k])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return minors


def _bareiss_det(g) -> int:
    """Determinant with row pivoting (fraction-free)."""
    m = [list(r) for r in g]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _gram_text(g) -> str:
    return "\n".join([f"dim {len(g)}"] + [" ".join(map(str, r)) for r in g]) + "\n"


def _form_expect(g, family: str) -> dict:
    """What a qf report of this Gram matrix must say.

    Congruent copies keep determinant, signature, evenness and every rational
    invariant of the form they copy: E8^k and I_8k are rationally the same
    positive definite unimodular form (oddity 0, no p-excess), and
    I_(8k-1) + <3> has oddity 2 and 3-excess 2.  Dense forms get their
    determinant from Bareiss elimination and, when no leading minor
    vanishes, their signature from Jacobi's sign-change rule.
    """
    n = len(g)
    if family == "dense":
        minors = _leading_minors(g)
        sig = None
        if len(minors) == n:
            seq = [1] + minors
            neg = sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))
            sig = n - 2 * neg
        return {"dim": n, "det": str(_bareiss_det(g)), "signature": sig,
                "even": all(g[i][i] % 2 == 0 for i in range(n))}
    det = 3 if family == "odd" else 1
    return {"dim": n, "det": str(det), "signature": n,
            "oddity": 2 if family == "odd" else 0,
            "even": family == "E8",
            "p_excess": {"3": 2} if family == "odd" else {}}


# ---- plans ----

def _op(kind, verb, files, expect, budget=OP_BUDGET_S):
    return {"kind": kind, "argv": [verb, *files, "--json"],
            "expect": expect, "budget_s": budget}


class _Writer:
    """Writes input files of one run and records their sizes."""

    def __init__(self, root: Path, bases: dict):
        self.root = root
        self.bases = bases
        self.sizes: dict[str, dict] = {}

    def complex(self, fname, base, rng):
        path = self.root / f"{fname}.cx"
        path.write_text(_relabeled_text(self.bases[base]["facets"], rng))
        self.sizes[base] = {"f_vector": self.bases[base]["f_vector"]}
        return os.path.relpath(path)

    def form(self, fname, name, g):
        path = self.root / f"{fname}.qf"
        path.write_text(_gram_text(g))
        self.sizes[name] = {"gram_dim": len(g)}
        return os.path.relpath(path)


def _panel(base):
    return {"check": "panel", "base": base}


def _z_round(w: _Writer, r: int, rng) -> list:
    c = lambda tag, base: w.complex(f"r{r}-{tag}", base, rng)  # noqa: E731
    return [
        _op("panel CP2", "panel", [c("cp2", "CP2")], _panel("CP2")),
        _op("panel S1xS3", "panel", [c("s1s3", "S1xS3")], _panel("S1xS3")),
        _op("panel T3", "panel", [c("t3", "T3")], _panel("T3")),
        _op("panel S2xS2", "panel", [c("s2s2", "S2xS2")], _panel("S2xS2")),
        _op("compare S2xS2 CP2", "compare",
            [c("cmp-s2s2", "S2xS2"), c("cmp-cp2", "CP2")],
            {"check": "compare", "bases": ["S2xS2", "CP2"]}),
        _op("compare T3 T3'", "compare",
            [c("cmp-t3a", "T3"), c("cmp-t3b", "T3")],
            {"check": "compare", "bases": ["T3", "T3"]}),
        _op("homology Z S2xS2", "homology",
            [c("hom-s2s2", "S2xS2"), "--ring", "Z"],
            {"check": "homology", "base": "S2xS2"}),
    ]


def _f2_round(w: _Writer, r: int, rng) -> list:
    c = lambda tag, base: w.complex(f"r{r}-{tag}", base, rng)  # noqa: E731
    return [
        _op("panel RP2xRP2", "panel", [c("rp2rp2", "RP2xRP2")],
            _panel("RP2xRP2")),
        _op("panel RP2xS3", "panel", [c("rp2s3", "RP2xS3")], _panel("RP2xS3")),
        _op("panel RP2xK2", "panel", [c("rp2k2", "RP2xK2")], _panel("RP2xK2")),
        _op("panel K2xT2", "panel", [c("k2t2", "K2xT2")], _panel("K2xT2")),
        _op("compare RP2xK2 K2xT2", "compare",
            [c("cmp-rp2k2", "RP2xK2"), c("cmp-k2t2", "K2xT2")],
            {"check": "compare", "bases": ["RP2xK2", "K2xT2"]}),
        _op("sw-numbers RP2xS3", "sw-numbers", [c("sw-rp2s3", "RP2xS3")],
            {"check": "sw-numbers", "base": "RP2xS3"}),
    ]


def _dense_form(n: int, rng):
    g = _dense(n, rng)
    while _bareiss_det(g) == 0:      # a singular form is an input error
        g = _dense(n, rng)
    return g


def _qf_round(w: _Writer, r: int, rng) -> list:
    """One round of qf ops.  The forms up to dim 32 come three times a
    round: a form's cost varies by up to a third with its seeded P (and
    tenfold for a dense form), so one copy would make a run's figures depend
    on the copy drawn.  The dim-64 forms come once, to keep the round short.
    """
    ops = []

    def form(tag, name, g, family):
        return (w.form(f"r{r}-{tag}", name, g), {"check": "qf",
                                                 **_form_expect(g, family)})

    def equiv(kind, f, g, equivalent, failing=None):
        ops.append(_op(kind, "qf-equiv", [f[0], g[0]],
                       {"check": "qf-equiv", "equivalent": equivalent,
                        "failing": failing}))

    for k, reps in ((1, 3), (4, 3), (8, 1)):
        n = 8 * k
        e8, ident = _block_diag(_e8(), k), _block_diag([[1]], n)
        for c in range(reps):
            a = form(f"a{n}-{c}", f"E8^{k}", _congruent(e8, rng), "E8")
            b = form(f"b{n}-{c}", f"E8^{k}", _congruent(e8, rng), "E8")
            i = form(f"i{n}-{c}", f"I{n}", _congruent(ident, rng), "I")
            ops.append(_op(f"qf E8^{k}", "qf", [a[0]], a[1]))
            ops.append(_op(f"qf I{n}", "qf", [i[0]], i[1]))
            equiv(f"qf-equiv E8^{k} E8^{k}'", a, b, True)
            if k < 8:   # at k = 8 the E8^8 pair alone keeps a round short
                equiv(f"qf-equiv E8^{k} I{n}", b, i, True)
            if k == 1:
                odd = _block_diag([[1]], 8)
                odd[7][7] = 3
                o = form(f"odd8-{c}", "I7+<3>", _congruent(odd, rng), "odd")
                equiv("qf-equiv E8 I7+<3>", a, o, False, "oddity")
    for n in (8, 32):
        for c in range(3):
            d = form(f"dense{n}-{c}", f"dense{n}", _dense_form(n, rng),
                     "dense")
            ops.append(_op(f"qf dense{n}", "qf", [d[0]], d[1]))
    return ops


_ROUND = {"z-orientable": _z_round, "f2-nonorientable": _f2_round,
          "qf-forms": _qf_round}
_BASES = {"z-orientable": ["CP2", "S1xS3", "T3", "S2xS2"],
          "f2-nonorientable": ["RP2xRP2", "RP2xS3", "RP2xK2", "K2xT2"],
          "qf-forms": []}
# the op a user would type once: timed in a fresh process, and run once
# untimed in the worker to warm it up
_REFERENCE = {"z-orientable": "panel CP2", "f2-nonorientable": "panel RP2xS3",
              "qf-forms": "qf E8^1"}


def build(workload: str, seed: int) -> dict:
    """Generate the inputs of one run and return its plan."""
    if workload not in _ROUND:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    root = HERE / "inputs" / workload / f"s{seed}"
    root.mkdir(parents=True, exist_ok=True)
    for old in root.iterdir():
        old.unlink()
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(root, _base_complexes(_BASES[workload]))
    rounds = [_ROUND[workload](w, r, rng) for r in range(ROUNDS[workload])]
    ref = next(op for op in rounds[0] if op["kind"] == _REFERENCE[workload])
    probe = []
    if workload == "qf-forms":
        # known defect: factoring the ~60-digit diagonal entries of a dense
        # dim-64 form takes minutes, so this op times out at this budget
        g = _dense_form(64, rng)
        probe.append(_op("qf dense64", "qf", [w.form("probe-dense64",
                                                     "dense64", g)],
                         {"check": "qf", **_form_expect(g, "dense")},
                         budget=PROBE_BUDGET_S))
    return {"workload": workload, "seed": seed, "rounds": rounds,
            "reference": ref, "probe": probe, "sizes": w.sizes}

