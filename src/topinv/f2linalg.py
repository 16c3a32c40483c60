"""Linear algebra over F2 on bitmask-encoded vectors.

A vector in F2^n is an int whose bit i is the i-th coordinate.  A linear
map is given by the list of images of the domain basis vectors, i.e. a
list of column masks.  Addition is xor, scalar multiplication is trivial,
and the dot product is the parity of the bitwise and.
"""

from __future__ import annotations

from collections.abc import Container


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


class Echelon:
    """Incremental echelon basis with expression tracking.

    Rows are kept with distinct leading bits.  Each stored row r satisfies
    r = xor of the generator vectors named by its expression mask, so a
    vector that reduces to zero yields an explicit linear combination.
    """

    def __init__(self, rows: dict[int, int] | None = None):
        """Empty, or taking over rows handed back by kernel_basis (not a
        copy: the caller gives them up), each with expression 0.  Only
        nonzero expressions are stored."""
        self._rows: dict[int, int] = {} if rows is None else rows
        self._expr: dict[int, int] = {}

    def residue(self, v: int, expr: int = 0) -> tuple[int, int]:
        """Reduce v against the stored rows; return (residue, expression)."""
        rows, exprs = self._rows, self._expr
        while v:
            b = v.bit_length() - 1
            row = rows.get(b)
            if row is None:
                break
            v ^= row
            expr ^= exprs.get(b, 0)
        return v, expr

    def insert(self, v: int, expr: int = 0) -> int | None:
        """Insert a generator; return its expression mask if dependent.

        `expr` names the generator (typically 1 << j for the j-th one).
        Returns None when v enlarges the span, otherwise the expression of
        v over previously inserted generators, including `expr` itself.
        """
        res, expr = self.residue(v, expr)
        if res == 0:
            return expr
        b = res.bit_length() - 1
        self._rows[b] = res
        if expr:
            self._expr[b] = expr
        return None

    @property
    def rank(self) -> int:
        return len(self._rows)


def rank(vectors: list[int]) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def kernel_basis(columns: list[int], skip: Container[int] = ()
                 ) -> tuple[list[int], dict[int, int]]:
    """Kernel of the map with the given columns, as masks over column
    indices, and the echelon rows of its image (leading bit -> row).

    Columns whose index is in `skip` are not inserted and get no kernel
    vector.  A caller skips only columns it knows to be dependent on the
    earlier ones (clearing: the leading bits of im delta_(k-1) among the
    columns of delta_k).  A dependent column stores no row, and the rows
    and kernel vectors of the others involve only independent columns,
    so the rows and the remaining kernel vectors are those of the full
    elimination, without the cost of reducing the skipped columns to zero.

    The expression of a row, the columns that sum to it, is kept sparse:
    a row that is a column no earlier row reduced keeps only that column's
    index (in `alone`); only a row formed by a reduction keeps a mask (in
    `exprs`).  The rows never depend on the expressions.
    """
    rows: dict[int, int] = {}
    alone: dict[int, int] = {}
    exprs: dict[int, int] = {}
    ker = []
    for j, v in enumerate(columns):
        if j in skip:
            continue
        expr = 0  # the earlier columns reduced into column j
        while v:
            b = v.bit_length() - 1
            row = rows.get(b)
            if row is None:
                break
            v ^= row
            e = exprs.get(b)
            expr ^= (1 << alone[b]) if e is None else e
        if not v:
            ker.append(expr | 1 << j)
            continue
        rows[b] = v
        if expr:
            exprs[b] = expr | 1 << j
        else:
            alone[b] = j
    return ker, rows


def solve_square(columns: list[int], b: int) -> int | None:
    """One solution mask x with xor of columns[i] over bits of x equal to b.

    Returns None when b is outside the column span.  With independent
    columns (an invertible square system) the solution is unique; free
    coordinates are otherwise set to zero.
    """
    ech = Echelon()
    for j, c in enumerate(columns):
        ech.insert(c, 1 << j)
    res, expr = ech.residue(b)
    return None if res else expr
