"""Linear algebra over F2 on bitmask-encoded vectors.

A vector in F2^n is an int whose bit i is the i-th coordinate.  A linear
map is given by the list of images of the domain basis vectors, i.e. a
list of column masks.  Addition is xor, scalar multiplication is trivial,
and the dot product is the parity of the bitwise and.  Every reduction
runs through Echelon.residue, the one elimination loop.
"""

from __future__ import annotations

from collections.abc import Container


def dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


class Echelon:
    """Incremental echelon basis with sparse expression tracking.

    rows maps each leading bit to its row; the leading bits are distinct.
    The expression of a row is the mask of the generators that sum to it,
    kept sparse: a row that is generator j, reduced by no earlier row,
    keeps only j; a row formed by a reduction keeps a mask; a row taken
    over at construction keeps nothing, which means expression 0.  The
    rows never depend on the expressions.
    """

    def __init__(self, rows: dict[int, int] | None = None):
        """Empty, or taking over rows, not a copy: the caller gives them up."""
        self.rows: dict[int, int] = {} if rows is None else rows
        self._alone: dict[int, int] = {}
        self._expr: dict[int, int] = {}

    def residue(self, v: int) -> tuple[int, int]:
        """Reduce v against the rows; return (residue, expression), where
        v xor residue is the sum of the generators the expression names."""
        rows, alone, exprs = self.rows, self._alone, self._expr
        expr = 0
        while v:
            b = v.bit_length() - 1
            row = rows.get(b)
            if row is None:
                break
            v ^= row
            e = exprs.get(b)
            if e is None:
                j = alone.get(b)
                if j is not None:
                    expr ^= 1 << j
            else:
                expr ^= e
        return v, expr

    def insert(self, v: int, j: int) -> int | None:
        """Insert v as generator j; return None when v enlarges the span,
        otherwise the relation it gives, as an expression: j xor the
        earlier generators that sum to v."""
        res, expr = self.residue(v)
        if res == 0:
            return expr ^ 1 << j
        b = res.bit_length() - 1
        self.rows[b] = res
        if expr:
            self._expr[b] = expr ^ 1 << j
        else:
            self._alone[b] = j
        return None


def rank(vectors: list[int]) -> int:
    return len(kernel_basis(vectors)[1])


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
    """
    ech = Echelon()
    ker = []
    for j, v in enumerate(columns):
        if j not in skip and (z := ech.insert(v, j)) is not None:
            ker.append(z)
    return ker, ech.rows


def solve_square(columns: list[int], b: int) -> int | None:
    """One solution mask x with xor of columns[i] over bits of x equal to b.

    Returns None when b is outside the column span.  With independent
    columns (an invertible square system) the solution is unique; free
    coordinates are otherwise set to zero.
    """
    ech = Echelon()
    for j, c in enumerate(columns):
        ech.insert(c, j)
    res, expr = ech.residue(b)
    return None if res else expr
