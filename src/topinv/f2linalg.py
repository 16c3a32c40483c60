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
        """Empty, or a copy of rows handed back by kernel_basis, expression 0."""
        self._rows: dict[int, int] = dict(rows or {})
        self._expr: dict[int, int] = dict.fromkeys(self._rows, 0)

    def residue(self, v: int, expr: int = 0) -> tuple[int, int]:
        """Reduce v against the stored rows; return (residue, expression)."""
        rows, exprs = self._rows, self._expr
        while v:
            b = v.bit_length() - 1
            row = rows.get(b)
            if row is None:
                break
            v ^= row
            expr ^= exprs[b]
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
        self._rows[res.bit_length() - 1] = res
        self._expr[res.bit_length() - 1] = expr
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
    indices, and the echelon rows of its image (leading bit -> row): the
    rows do not depend on the expressions, so inserting the columns with
    expression 0 builds the same ones.

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
    for j, c in enumerate(columns):
        if j in skip:
            continue
        combo = ech.insert(c, 1 << j)
        if combo is not None:
            ker.append(combo)
    return ker, ech._rows


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
    if res != 0:
        return None
    return expr
