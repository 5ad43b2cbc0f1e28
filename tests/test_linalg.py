from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
import hypothesis.strategies as st

from okbody.linalg import Echelon

from oracles import kernel_basis, row_reduce
from strategies import small_fractions

rationals = small_fractions(8, 6)


@st.composite
def large_fractions(draw):
    """The values of st.fractions(-10**9, 10**9, max_denominator=10**12):
    a denominator q, then a numerator in [-10**9 q, 10**9 q], drawn without
    the strategy that st.fractions builds for each q."""
    q = draw(st.integers(1, 10**12))
    return Fraction(draw(st.integers(-10**9 * q, 10**9 * q)), q)


large = large_fractions()


# -- the library's elimination -------------------------------------------------


def test_echelon_keeps_the_rows_that_raise_the_rank():
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
    form = Echelon(3)
    assert [form.add(row) for row in rows] == [True, False, True, False]
    assert form.rank == 2 and form.pivots() == [0, 1]


def test_inexact_entries_rejected():
    with pytest.raises(TypeError, match="0.5"):
        Echelon(2).add([0.5, 1])
    with pytest.raises(TypeError, match="'1/2'"):
        Echelon(2).add([1, "1/2"])


@st.composite
def matrices(draw):
    """A width and rows with large denominators, zero rows, repeated rows
    and combinations of earlier rows mixed in."""
    width = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), rationals, large)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "repeat", "combine")))
        if kind == "zero" or not rows:
            row = [Fraction(0)] * width
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(large)
            row = [x + c * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return width, rows


@seed(20261018)
@given(matrices())
@settings(max_examples=120, deadline=None)
def test_elimination_matches_row_reduce_oracle(matrix):
    width, rows = matrix
    pivots = row_reduce(rows)[1]
    # greedy in input order: a row is kept when it raises the rank
    ranks = [len(row_reduce(rows[:i])[1]) for i in range(len(rows) + 1)]
    form = Echelon(width)
    assert [form.add(row) for row in rows] == \
        [ranks[i + 1] > ranks[i] for i in range(len(rows))]
    assert form.rank == len(pivots)
    assert form.pivots() == pivots
    # the oracles' kernel, which the reference hull uses
    kernel = kernel_basis(rows, width)
    assert len(kernel) == width - len(pivots)
    assert all(sum(a * b for a, b in zip(row, x)) == 0
               for row in rows for x in kernel)
