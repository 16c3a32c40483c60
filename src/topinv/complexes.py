"""Finite simplicial complexes with exact F2 and integral (co)homology.

A complex is stored by its maximal simplices; every face is implied.
Cochains over F2 are bitmasks over the lexicographically sorted list of
k-simplices, cochains over Z are integer tuples over the same basis.
All arithmetic is exact.

zlinalg is imported inside the integral paths alone (free_cocycles,
cohomology_z and homology over Z; steenrod.bockstein imports it too),
so F2 answers never load it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import operator
from collections.abc import Container
from dataclasses import dataclass

from . import f2linalg, faces
from .textformat import INT, INT_ROW, content_lines


class ParseError(ValueError):
    pass


class TopologyError(ValueError):
    pass


class NonOrientableError(TopologyError):
    pass


# The most faces a complex builds, all degrees together, so every verb
# refuses alike: scripts/ladder.py's largest, CP2xT2, has 103,194, and a
# facet of 18 or more vertices alone is past it.
MAX_FACES = 1 << 17


@functools.lru_cache(maxsize=None)
def cut_patterns(n: int, i: int, p: int) -> tuple:
    """(even blocks, odd blocks) of vertex positions of an n-simplex for
    each choice of i+1 cuts (see steenrod), keeping those whose even part
    has p+1 positions.  For i = 0 the one pattern is the front p-face and
    the back (n-p)-face."""
    pats = []
    for cuts in itertools.combinations(range(n + 1), i + 1):
        xpos: list[int] = []
        ypos: list[int] = []
        prev = 0
        for t, c in enumerate(cuts + (n,)):
            (xpos if t % 2 == 0 else ypos).extend(range(prev, c + 1))
            prev = c
        if len(xpos) == p + 1:
            pats.append((tuple(xpos), tuple(ypos)))
    return tuple(pats)


class SimplicialComplex:
    """A finite abstract simplicial complex given by maximal simplices."""

    def __init__(self, simplices):
        cleaned = set()
        for s in simplices:
            t = tuple(sorted(s))
            if len(set(t)) != len(t):
                raise ParseError("duplicate vertex in simplex")
            if not t:
                raise ParseError("empty simplex")
            cleaned.add(t)
        if not cleaned:
            raise ParseError("complex has no simplices")
        # drop a listed simplex that a larger listed one holds, looked for
        # among the listed simplices at its vertex in the fewest of them; a
        # pure complex has no larger one, so it does no work
        maximal = cleaned
        if len({len(s) for s in cleaned}) > 1:
            holders = collections.defaultdict(list)
            for s in cleaned:
                for v in s:
                    holders[v].append(s)
            maximal = {t for t in cleaned if not any(
                len(s) > len(t) and set(t).issubset(s)
                for s in min(map(holders.__getitem__, t), key=len))}
        self.maximal_simplices: tuple[tuple[int, ...], ...] = tuple(sorted(maximal))
        self.dimension: int = max(len(s) for s in maximal) - 1
        self.vertices: tuple[int, ...] = tuple(
            sorted({v for s in maximal for v in s}))
        self._width = (len(self.vertices) - 1).bit_length()  # a rank's bits
        self._cache: dict = {}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def simplices(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All k-simplices in lexicographic order, decoded from their codes
        for the readers that print them."""
        return self._memo(("simp", k), lambda: tuple(zip(*(
            map(self.vertices.__getitem__, r) for r in self._ranks(k)))))

    def _codes(self, k: int) -> tuple[int, dict[int, int]]:
        """(packed, index) of the k-simplices (see faces.build), their
        vertex ranks in fields of _width bits; the first request for any
        degree builds every degree and the codimension-1 face tables, and
        refuses past MAX_FACES with the build's own count, keeping none."""
        if ("code", k) not in self._cache and 0 <= k <= self.dimension:
            built = faces.build(self.maximal_simplices, self.vertices,
                                self._width, MAX_FACES)
            if isinstance(built, int):
                raise TopologyError(f"too many faces: at least {built} in "
                                    f"all, above the bound of {MAX_FACES}")
            degrees, tables = built
            for j, d in enumerate(degrees):
                self._cache["code", j] = d
            for (n, pos), t in tables.items():
                self._cache["face", n, pos] = t
        return self._cache.get(("code", k), (0, {}))

    def _ranks(self, k: int) -> list[list[int]]:
        """The vertex ranks of the k-simplices, one list a position."""
        packed, index = self._codes(k)
        return list(faces.pick(packed, len(index), self._width, k,
                               [(i,) for i in range(k + 1)]))

    def simplex_index(self, k: int) -> dict[tuple[int, ...], int]:
        """The position of each k-simplex, as the code index's own ints."""
        return self._memo(("idx", k), lambda: dict(zip(
            self.simplices(k), self._codes(k)[1].values())))

    def n_simplices(self, k: int) -> int:
        return len(self._codes(k)[1])

    def face_table(self, n: int, pos: tuple[int, ...]) -> tuple[int, ...]:
        """Entry s is the index of the face of the n-simplex s spanned by
        its vertices at positions pos, among the (len(pos)-1)-simplices:
        the very int object the code index (and simplex_index) maps that
        face to.  Every reader (skip tests, Counters, dict keys,
        itemgetter) then shares those ints, where an array would box a new
        one at each read.  The face build keeps every codimension-1 table;
        any other is picked out of the packed n-simplices the same way."""
        packed, index = self._codes(n)

        def build():
            f, = faces.pick(packed, len(index), self._width, n, [pos])
            return tuple(map(self._codes(len(pos) - 1)[1].__getitem__, f))
        return self._memo(("face", n, pos), build)

    def gather(self, n: int, pos: tuple[int, ...], x: int) -> int:
        """Mask over n-simplices whose bit s is the bit of the cochain x at
        the face of s on positions pos; bits of x past the faces are ignored.

        One string pass: x's bits in ascending order, picked by
        operator.itemgetter over the face table, read back by int(_, 2).
        """
        if len(pos) == n + 1:  # every position: the face of s is s itself
            return x & ((1 << self.n_simplices(n)) - 1)
        pick = operator.itemgetter(*self.face_table(n, pos))
        bits = format(x, f"0{self.n_simplices(len(pos) - 1)}b")[::-1]
        # with one n-simplex, pick returns a lone character; join takes both
        return int("".join(pick(bits))[::-1], 2)

    # ---- boundary and coboundary matrices ----

    def boundary_z(self, k: int) -> list[list[int]]:
        """Matrix of the boundary C_k -> C_{k-1}, rows over (k-1)-simplices,
        dense, off the face tables."""
        def build():
            rows = [[0] * self.n_simplices(k)
                    for _ in range(self.n_simplices(k - 1))]
            for i, table in enumerate(self._facet_tables(k)):
                for j, f in enumerate(table):
                    rows[f][j] = (-1) ** i
            return rows
        return self._memo(("bdz", k), build)

    def coboundary_z(self, k: int) -> list[dict[int, int]]:
        """Matrix of delta: C^k -> C^{k+1} as sparse rows, one per
        (k+1)-simplex: {index of its i-th face: (-1)^i}, off the face tables,
        so keyed by simplex_index(k)'s own ints, which all rows share."""
        def build():
            if not 0 <= k < self.dimension:
                return [{} for _ in range(self.n_simplices(k + 1))]
            signs = (1, -1) * (k + 2)
            return [dict(zip(f, signs))
                    for f in zip(*self._facet_tables(k + 1))]
        return self._memo(("cbz", k), build)

    def coboundary_f2(self, k: int, skip: Container[int] = ()) -> list[int]:
        """Columns of delta over F2: one mask over (k+1)-simplices per
        k-simplex, left 0 for the indices in skip, the columns that
        F2Cohomology(k) clears.  Not kept, since it eliminates them once."""
        cols = [0] * self.n_simplices(k)
        if not 0 <= k < self.dimension:
            return cols
        for table in self._facet_tables(k + 1):
            for t, f in enumerate(table):
                if f not in skip:
                    cols[f] |= 1 << t
        return cols

    def free_cocycles(self, k: int) -> list[tuple[int, ...]]:
        """Cocycles whose classes are a basis of H^k(K; Z)/torsion, units
        first: modulo the unit pivots of im delta_(k-1), a cochain is 0 on
        their columns, so delta_k drops them; kernel_quotient reads the
        generators off what delta_k's own units leave, and back-substitution
        fills in those units' columns.  No answer prints this basis.  Both
        steps skip rows the others span: delta_k's at _walk_tree and, for
        k = 2, delta_1's columns at a spanning forest of the 1-skeleton."""
        from . import zlinalg
        nk = self.n_simplices(k)
        image_pivots, image, _ = zlinalg.eliminate_units(zlinalg.transpose(
            self.coboundary_z(k - 1), self.n_simplices(k - 1)), nk,
            skip=self._spanning_forest() if k == 2 else ())
        off, tree = {j for j, _ in image_pivots}, self._walk_tree(k)
        pivots, rest, _ = zlinalg.eliminate_units(
            [{c: x for c, x in r.items() if c not in off}
             for i, r in enumerate(self.coboundary_z(k)) if i not in tree], nk)
        free = sorted(set(range(nk)) - off - {j for j, _ in pivots})
        at = dict(zip(free, range(len(free))))
        dz = zlinalg.diagonalize(
            [{at[c]: x for c, x in row.items()} for row in rest], len(free))
        image_at = zlinalg.transpose(image, nk)
        out = []
        for y in zlinalg.kernel_quotient(
                dz, [image_at[c] for c in free], len(image)):
            x = [0] * nk
            for c, v in zip(free, y):
                x[c] = v
            for j, row in reversed(pivots):  # x[j] = 0 until row . x = 0
                x[j] = -row[j] * sum(v * x[c] for c, v in row.items())
            out.append(tuple(x))
        return out

    def _spanning_forest(self) -> frozenset[int]:
        """Indices of the edges of a spanning forest of the 1-skeleton."""
        root, forest = list(range(len(self.vertices))), set()
        for e, (a, b) in enumerate(zip(*self._ranks(1))):
            while root[a] != a:
                root[a] = a = root[root[a]]
            while root[b] != b:
                root[b] = b = root[root[b]]
            if a != b:
                root[a] = b
                forest.add(e)
        return frozenset(forest)

    # ---- cohomology structures ----

    def cohomology_f2(self, k: int) -> "F2Cohomology":
        return self._memo(("hf2", k), lambda: F2Cohomology(self, k))

    def cohomology_z(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Cocycles whose classes are a basis of H^k(K; Z)/torsion, read by
        kernel_quotient off the pinned elimination of delta_k: the basis
        the intersection verb prints its gram on; the form is kept, not
        this basis.  The torsion of H^k is that of H_(k-1), which homology
        gives."""
        from . import zlinalg
        dz = zlinalg.diagonalize(self.coboundary_z(k), self.n_simplices(k))
        return tuple(map(tuple, zlinalg.kernel_quotient(
            dz, self.coboundary_z(k - 1), self.n_simplices(k - 1))))

    def _facet_tables(self, n: int) -> list[tuple[int, ...]]:
        """The n+1 face tables of the n-simplices on their (n-1)-faces,
        face i leaving out the vertex at position i, each a tuple of
        simplex_index(n - 1)'s own ints; none for n = 0."""
        return [self.face_table(n, faces.ridge(n, i))
                for i in range(n + 1)] if n else []

    def _pseudo_manifold_gate(self) -> None:
        """Raise TopologyError unless K is a pseudo-manifold: every facet of
        the top dimension, every (n-1)-face in exactly two facets, and the
        facets strongly connected.  The incidences are counted; with two
        facets on every face, each column of delta_(n-1) over F2 is
        e_s + e_t, so dim H^n(K; F2) is the number of components of the
        dual graph, and only a complex with more than one is walked, to
        name the first facet the walk cannot reach."""
        def build():
            n = self.dimension
            for s in self.maximal_simplices:
                if len(s) != n + 1:
                    raise TopologyError(f"not a pseudo-manifold: facet {s} "
                                        f"is not {n}-dimensional")
            counts = collections.Counter(
                itertools.chain.from_iterable(self._facet_tables(n)))
            if set(counts.values()) - {2}:
                f = min(f for f, c in counts.items() if c != 2)
                raise TopologyError(f"not a pseudo-manifold: face "
                                    f"{self.simplices(n - 1)[f]} lies in "
                                    f"{counts[f]} facets")
            if self.cohomology_f2(n).dim != 1:
                self._facet_walk()
            return True
        self._memo(("pm",), build)

    def _facet_walk(self) -> tuple[int, ...] | None:
        """Facet signs, +1 on the first, that sum to a cycle, or None if K is
        non-orientable; raises TopologyError if a facet is not reached.  Run
        past the incidence checks of _pseudo_manifold_gate only."""
        def build():
            n = self.dimension
            tables = self._facet_tables(n)
            ends = [[] for _ in range(self.n_simplices(n - 1))]
            for i, table in enumerate(tables):
                for s, f in enumerate(table):
                    ends[f].append((s, i))
            # face i of s is face j of t: t gets -sign(s) (-1)^(i+j) to cancel
            signs = [1] + [0] * (self.n_simplices(n) - 1)
            stack, orientable, tree = [0], True, []
            while stack:
                s = stack.pop()
                for i, table in enumerate(tables):
                    a, b = ends[table[s]]
                    t, j = b if a == (s, i) else a
                    sign = signs[s] if (i + j) % 2 else -signs[s]
                    if not signs[t]:
                        signs[t] = sign
                        stack.append(t)
                        tree.append(table[s])
                    orientable &= signs[t] == sign
            if 0 in signs:
                missed = self.simplices(n)[signs.index(0)]
                how = (f"across {n - 1}-faces" if n else
                       "(a 0-dimensional one is a single vertex)")
                raise TopologyError(f"not a pseudo-manifold: facet {missed} "
                                    f"is not reached {how}")
            self._cache[("tree",)] = tree  # read by _walk_tree
            return tuple(signs) if orientable else None
        return self._memo(("fcz",), build)

    def _walk_tree(self, k: int) -> frozenset[int]:
        """Rows of delta_k that the others span over Z: for k = n - 2 on a
        pseudo-manifold, the facet walk's tree ridges, read off the face
        tables, so simplex_index(k + 1)'s own ints.  Each lies in its
        facet and that facet's parent alone, so delta_(n-1) delta_k = 0
        gives their rows from the others, leaves first."""
        with contextlib.suppress(TopologyError):  # not a pseudo-manifold
            if k == self.dimension - 2:
                self._pseudo_manifold_gate()
                self._facet_walk()
                return frozenset(self._cache[("tree",)])
        return frozenset()

    def fundamental_class_f2(self) -> int:
        """Mask of the F2 fundamental cycle: all top simplices."""
        self._pseudo_manifold_gate()
        return (1 << self.n_simplices(self.dimension)) - 1

    def fundamental_class_z(self) -> tuple[int, ...]:
        """Integral fundamental cycle, +1 on the lex-first top simplex."""
        self._pseudo_manifold_gate()
        signs = self._facet_walk()
        if signs is None:
            raise NonOrientableError("non-orientable: no top homology over Z")
        return signs


class F2Cohomology:
    """H^k(K; F2) with a fixed cocycle basis and coordinate reduction.

    delta_k is eliminated once, for its kernel here; the echelon rows of
    its image are kept as image_rows until H^(k+1) takes them over, not a
    copy, as the start of its own echelon, and sets image_rows to None.

    Clearing: the columns of delta_k at the leading bits of im delta_(k-1)
    are skipped, not eliminated.  A row b = e_j + (lower terms) of that
    image has delta_k b = 0, so column j depends on earlier columns.  Each
    kernel vector left, z_j = e_j + (lower terms) for a dependent column j
    at which no image row leads, gives a new class: the image B lies in
    ker delta_k, so the cocycles in the span E_j of the first j+1 cochains
    meet B only in the elements of B within E_j, whose leading bits are
    image leads.  So every residue is nonzero, the basis is the residues
    in order, and dim = dim ker delta_k - rank delta_(k-1) = len(ker).
    """

    def __init__(self, K: SimplicialComplex, k: int):
        # coboundaries first (taken over, expression 0), then each new
        # cocycle residue as generator i, basis vector i
        image = {}
        if k >= 1:
            prev = K.cohomology_f2(k - 1)
            image, prev.image_rows = prev.image_rows, None
        ker, self.image_rows = f2linalg.kernel_basis(
            K.coboundary_f2(k, image), image)
        ech = f2linalg.Echelon(image)
        basis: list[int] = []
        for z in ker:
            res, _ = ech.residue(z)
            ech.insert(res, len(basis))
            basis.append(res)
        self._ech = ech
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, z: int) -> int:
        """Coordinates of a cocycle mask over the basis, as a mask."""
        res, expr = self._ech.residue(z)
        if res:
            raise ValueError("not a cocycle")
        return expr

    def rep(self, coords: int) -> int:
        """The cocycle of the basis vectors that coords names."""
        return functools.reduce(operator.xor, (
            b for i, b in enumerate(self.basis) if coords >> i & 1), 0)


@dataclass
class CohomologyClass:
    """An F2 cohomology class of degree k: a representative cocycle and
    its coordinates over the H^k(K; F2) basis, both bitmasks."""

    degree: int
    cocycle: int
    coords: int

    @property
    def is_zero(self) -> bool:
        return self.coords == 0

    def support(self, K: SimplicialComplex) -> list[tuple[int, ...]]:
        """Simplices of K where the representative cocycle is nonzero."""
        simp = K.simplices(self.degree)
        return [simp[i] for i in range(len(simp)) if (self.cocycle >> i) & 1]


def f2_class(K: SimplicialComplex, k: int, mask: int) -> CohomologyClass:
    return CohomologyClass(k, mask, K.cohomology_f2(k).coords(mask))


# ---- module-level operations ----

@dataclass(frozen=True)
class HomologySummary:
    degree: int
    betti: int
    torsion: tuple[int, ...]


def homology(K: SimplicialComplex, ring: str = "Z") -> list[HomologySummary]:
    """Homology of K in all degrees 0..dim, exact, over ring "Z" or "F2";
    K's face build refuses past MAX_FACES before any degree is reduced."""
    if ring not in ("Z", "F2"):
        raise ValueError(f"unknown ring: {ring!r}")
    n = K.dimension
    if ring == "F2":
        # over a field dim H_k = dim H^k
        return [HomologySummary(k, K.cohomology_f2(k).dim, ())
                for k in range(n + 1)]
    from . import zlinalg
    # boundary_(k+1) is the transpose of delta_k: same rank, same factors.
    # No basis is read, so the unit pivots go first, in any order.  Degrees
    # run top down, and delta_k drops the rows of the unit-pivot columns of
    # delta_(k+1): such a pivot row is the boundary of a chain with a unit
    # on its column j, so d d = 0 puts row j of delta_k in the span of the
    # others, and since it is 0 on earlier pivots' columns, in the span of
    # the rows kept.  Rank and invariant factors see only that lattice.
    ranks, torsion = [0] * (n + 2), [()] * (n + 1)
    cleared: set[int] = set()
    for k in reversed(range(n)):
        pivots, rest, _ = zlinalg.eliminate_units(
            [row for i, row in enumerate(K.coboundary_z(k))
             if i not in cleared], K.n_simplices(k))
        dz = zlinalg.diagonalize(rest, K.n_simplices(k))
        ranks[k + 1] = len(pivots) + dz.rank
        cleared = {j for j, _ in pivots}
        del pivots  # not held while the next degree is eliminated
        torsion[k] = tuple(
            f for f in zlinalg.invariant_factors(dz.diag) if f > 1)
    return [HomologySummary(k, K.n_simplices(k) - ranks[k] - ranks[k + 1],
                            torsion[k]) for k in range(n + 1)]


def cup_cochain_f2(K: SimplicialComplex, p: int, q: int, x: int, y: int,
                   i: int = 0) -> int:
    """Cochain-level x cup_i y (cup_0: the cup product) of F2 cochains of
    degrees p and q, a mask over the (p+q-i)-simplices: the xor over the
    cut patterns of gathered x on the even blocks and y on the odd ones."""
    n = p + q - i
    if n > K.dimension or n < 0:
        return 0
    out = 0
    for xpos, ypos in cut_patterns(n, i, p):
        out ^= K.gather(n, xpos, x) & K.gather(n, ypos, y)
    return out


def cup_cochain_z(K: SimplicialComplex, p: int, q: int, x, y) -> tuple[int, ...]:
    """Cochain-level cup product over Z (front face times back face)."""
    n = p + q
    if n > K.dimension:
        return ()
    front = K.face_table(n, tuple(range(p + 1)))
    back = K.face_table(n, tuple(range(p, n + 1)))
    return tuple(x[f] * y[b] for f, b in zip(front, back))


def cup_product(K: SimplicialComplex, x: CohomologyClass,
                y: CohomologyClass) -> CohomologyClass:
    """Cup product of F2 cohomology classes."""
    mask = cup_cochain_f2(K, x.degree, y.degree, x.cocycle, y.cocycle)
    return f2_class(K, x.degree + y.degree, mask)


def pairing(K: SimplicialComplex, x: CohomologyClass) -> int:
    """Evaluation of a top-degree class against the fundamental cycle."""
    if x.degree != K.dimension:
        raise ValueError("pairing requires a top-degree class")
    return f2linalg.dot(x.cocycle, K.fundamental_class_f2())


@dataclass
class PoincareReport:
    """Ranks of the cup-product pairing matrices against the F2 fundamental
    cycle, one per degree; perfect means every pairing is unimodular."""

    perfect: bool
    ranks: tuple[int, ...]
    dims: tuple[int, ...]
    first_degenerate: int | None

    def __bool__(self) -> bool:
        return self.perfect


def duality_pairing_f2(K: SimplicialComplex, k: int) -> list[int]:
    """Matrix of <x cup y, [K]> for x, y in the H^k and H^(n-k) bases.

    Row i is a mask over the H^(n-k) basis for the i-th H^k basis class.
    Callers build it for 2k <= n only: the matrix of degree n-k is the
    transpose, since the cup product is commutative on F2 cohomology.
    """
    def build():
        # <x cup y, [K]> = parity(x on front faces & y on back faces & [K]),
        # so each basis class is gathered once, not once per pair
        n = K.dimension
        fc = K.fundamental_class_f2()
        front, back = tuple(range(k + 1)), tuple(range(k, n + 1))
        ys = [K.gather(n, back, yb) for yb in K.cohomology_f2(n - k).basis]
        rows = []
        for xb in K.cohomology_f2(k).basis:
            xf = K.gather(n, front, xb) & fc
            rows.append(sum(f2linalg.dot(xf, y) << j for j, y in enumerate(ys)))
        return rows
    return K._memo(("pair", k), build)


def is_poincare_f2(K: SimplicialComplex) -> PoincareReport:
    """Whether the F2 cup pairing H^k x H^(n-k) -> F2 is perfect in all degrees."""
    n = K.dimension
    ranks, dims, first_bad = [], [], None
    for k in range(n + 1):
        dk = K.cohomology_f2(k).dim
        r = (f2linalg.rank(duality_pairing_f2(K, k)) if 2 * k <= n
             else ranks[n - k])
        ranks.append(r)
        dims.append(dk)
        if (dk != K.cohomology_f2(n - k).dim or r != dk) and first_bad is None:
            first_bad = k
    return PoincareReport(first_bad is None, tuple(ranks), tuple(dims), first_bad)


# ---- construction helpers ----

def parse_complex(text: str) -> SimplicialComplex:
    """Parse the complex file format: a dimension hint line, which must
    equal the largest facet's dimension, then one maximal simplex per line
    as vertex labels parted by spaces or tabs, both ASCII integers
    -?[0-9]+, in the line layout of content_lines."""
    lines = content_lines(text, ParseError, "dimension hint", "vertex label")
    if not lines:
        raise ParseError("empty complex file")
    if not INT.fullmatch(lines[0]):
        raise ParseError(f"malformed dimension hint line: {lines[0]!r}")
    simplices = []
    for line in lines[1:]:
        if not INT_ROW.fullmatch(line):
            raise ParseError(f"malformed simplex line: {line!r}")
        simplices.append(tuple(map(int, line.split())))
    if not simplices:
        raise ParseError("complex file lists no simplices")
    K = SimplicialComplex(simplices)
    if int(lines[0]) != K.dimension:
        raise ParseError(f"dimension hint {int(lines[0])} differs from the "
                         f"largest facet's dimension {K.dimension}")
    return K


def complex_text(K: SimplicialComplex) -> str:
    lines = [str(K.dimension)]
    lines += [" ".join(str(v) for v in s) for s in K.maximal_simplices]
    return "\n".join(lines) + "\n"


def relabel(K: SimplicialComplex, mapping: dict[int, int]) -> SimplicialComplex:
    """The same complex with vertices renamed by an injective mapping."""
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("relabeling not injective")
    return SimplicialComplex(
        tuple(mapping[v] for v in s) for s in K.maximal_simplices)


def product_complex(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of the product of the underlying spaces.

    Vertices are the pairs (v, w) relabeled by their lexicographic rank;
    each pair of maximal simplices contributes one facet per monotone
    staircase path.
    """
    pairs = sorted((a, b) for a in K.vertices for b in L.vertices)
    lab = {pr: i for i, pr in enumerate(pairs)}
    facets = []
    for s in K.maximal_simplices:
        p = len(s) - 1
        for t in L.maximal_simplices:
            q = len(t) - 1
            for ks in itertools.combinations(range(p + q), p):
                # i of the first m steps go along s: those in ks
                steps = itertools.accumulate(
                    (m in ks for m in range(p + q)), initial=0)
                facets.append(tuple(lab[s[i], t[m - i]]
                                    for m, i in enumerate(steps)))
    return SimplicialComplex(facets)
