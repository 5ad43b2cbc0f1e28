"""Exact linear algebra over the rationals.

Vectors are plain sequences of rationals (``int`` or ``Fraction``).  One
fraction-free Gaussian elimination with first-nonzero pivoting serves
everything, so results are exact and deterministic: ranks and pivot
columns, read off one ``Echelon``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .polynomials import _exact

Vector = Sequence[Fraction]


def _integer_row(row: Vector) -> list[int]:
    """The row scaled to integers by the lcm of its denominators; an entry
    that is not an int or a Fraction is a TypeError."""
    try:
        scale = lcm(*(v.denominator for v in row))
    except AttributeError:
        for v in row:
            _exact(v)
        raise
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

