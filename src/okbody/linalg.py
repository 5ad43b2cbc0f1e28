"""Exact linear algebra over the rationals.

Vectors are plain sequences of rationals (``int`` or ``Fraction``).  One
fraction-free Gaussian elimination with first-nonzero pivoting serves
everything, so results are exact and deterministic: ranks, independent
subsets, pivot columns, kernels and span membership.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = Sequence[Fraction]


def _integer_row(row: Vector) -> list[int]:
    """The row scaled to integers by the lcm of its denominators."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


class Echelon:
    """A row echelon form grown one row at a time, with first-nonzero
    pivoting, computed fraction-free: each added row is scaled to integers,
    eliminated against the echelon rows by integer cross-multiplication and
    divided by its content.  ``rows`` holds the echelon rows (primitive
    integer rows, zero before their pivot and in the pivot columns of the
    rows before them) with their pivot columns; the pivots are the first
    nonzero positions of the nonzero vectors in the span of the rows added
    so far, whatever their order."""

    def __init__(self, length: int):
        self.length = length
        self.rows: list[tuple[list[int], int]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[int]:
        """The pivot columns, in increasing order."""
        return sorted(pivot for _vec, pivot in self.rows)

    def add(self, row: Vector) -> bool:
        """Add a row; True when it is independent of the rows before it."""
        if len(row) != self.length:
            raise ValueError("rows of unequal length")
        vec = _integer_row(row)
        for evec, pivot in self.rows:
            b = vec[pivot]
            if b:
                a = evec[pivot]
                g = gcd(a, b)
                a, b = a // g, b // g
                vec = [a * v - b * e for v, e in zip(vec, evec)]
        content = gcd(*vec)
        if not content:
            return False
        pivot = next(i for i, v in enumerate(vec) if v)
        self.rows.append(([v // content for v in vec], pivot))
        return True

    def kernel(self) -> list[list[Fraction]]:
        """Basis of the right kernel {x : row . x = 0 for every row}: one
        vector per free column f, with x_f = 1 and zero on the other free
        columns."""
        length = self.length
        pivots = {pivot for _vec, pivot in self.rows}
        basis = []
        for f in range(length):
            if f in pivots:
                continue
            x = [Fraction(0)] * length
            x[f] = Fraction(1)
            # each echelon row is zero in the pivot columns of the rows
            # before it, so back-substitution from the last row fixes the
            # pivots
            for vec, pivot in reversed(self.rows):
                x[pivot] = -sum((vec[j] * x[j]
                                 for j in range(pivot + 1, length)
                                 if vec[j] and x[j]), Fraction(0)) / vec[pivot]
            basis.append(x)
        return basis


def _echelon(rows: Sequence[Vector]) -> tuple[Echelon, list[int]]:
    """The echelon form of the rows taken in input order, and the indices of
    the rows that are independent of the rows before them."""
    form = Echelon(len(rows[0]) if rows else 0)
    kept = [index for index, row in enumerate(rows) if form.add(row)]
    return form, kept


def rat_linear_solve(rows: Sequence[Vector], target: Vector
                     ) -> list[Fraction] | None:
    """Exact coefficients expressing ``target`` in the span of ``rows``,
    or None when the target is not in the span.

    All rows and the target must have equal length.  When the expression is
    not unique, a row that depends on the rows before it gets weight zero
    and the rows kept by independent_indices get their unique weights,
    deterministically.
    """
    if rows:
        length = len(rows[0])
        if any(len(r) != length for r in rows) or len(target) != length:
            raise ValueError("dimension mismatch")
    elif any(Fraction(v) for v in target):
        return None
    else:
        return []
    kept = independent_indices(rows)
    # (w, 1) spans the kernel of [kept rows as columns | -target] exactly
    # when target = sum w_i rows_i; the kept columns are independent, so
    # the last column is the only possible free one
    augmented = [[rows[i][j] for i in kept] + [-Fraction(target[j])]
                 for j in range(length)]
    kernel = kernel_basis(augmented, len(kept) + 1)
    if not kernel:
        return None
    weights = [Fraction(0)] * len(rows)
    for column, index in enumerate(kept):
        weights[index] = kernel[0][column]
    return weights


def rank(vectors: Sequence[Vector]) -> int:
    return _echelon(vectors)[0].rank


def independent_indices(vectors: Sequence[Vector]) -> list[int]:
    """Indices of a maximal linearly independent subset, chosen greedily in
    input order (deterministic)."""
    return _echelon(vectors)[1]


def pivot_columns(vectors: Sequence[Vector]) -> list[int]:
    """The pivot columns of the row echelon form, in increasing order: the
    set of first nonzero positions of the nonzero vectors in the span."""
    return _echelon(vectors)[0].pivots()


def kernel_basis(rows: Sequence[Vector], length: int) -> list[list[Fraction]]:
    """Basis of the right kernel {x : row . x = 0 for every row}: one vector
    per free column f, with x_f = 1 and zero on the other free columns."""
    form = Echelon(length)
    for row in rows:
        form.add(row)
    return form.kernel()
