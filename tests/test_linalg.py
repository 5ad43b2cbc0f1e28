from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
import hypothesis.strategies as st

from okbody.linalg import Echelon

from oracles import kernel_basis, linear_solve, row_reduce

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
large = st.fractions(min_value=-10**9, max_value=10**9,
                     max_denominator=10**12)


# -- the oracles' linear solve and kernel, which the tests use ----------------


def test_standard_basis_solve():
    assert linear_solve([(1, 0), (0, 1)], (3, 5)) == [3, 5]


def test_rank_deficient_no_solution():
    assert linear_solve([(1, 1)], (1, 2)) is None


def test_solve_with_fractional_coefficients():
    sol = linear_solve([(2, 4), (1, 3)], (0, 1))
    assert sol == [Fraction(-1, 2), Fraction(1)]


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        linear_solve([(1, 0), (0, 1, 2)], (1, 1))
    with pytest.raises(ValueError):
        linear_solve([(1, 0)], (1, 0, 0))


def test_empty_row_list():
    assert linear_solve([], (0, 0)) == []
    assert linear_solve([], (1, 0)) is None


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=80)
def test_solve_reconstructs_combination(rows, coeffs):
    rows = [tuple(r) for r in rows]
    coeffs = coeffs[:len(rows)] + [Fraction(0)] * (len(rows) - len(coeffs))
    target = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(3)]
    sol = linear_solve(rows, target)
    assert sol is not None
    recombined = [sum(c * r[i] for c, r in zip(sol, rows)) for i in range(3)]
    assert recombined == target


def test_rat_linear_solve_span_membership():
    rows = [(1, 1, 0), (0, 1, 1)]
    assert linear_solve(rows, (1, 2, 1)) is not None
    assert linear_solve(rows, (1, 0, 1)) is None
    assert linear_solve(rows, (2, 3, 1)) == [2, 1]


def test_rat_linear_solve_weights_dependent_rows_zero():
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert linear_solve(rows, (3, 5, 0)) == [3, 0, 5, 0]
    assert linear_solve([(0, 0), (0, 2)], (0, 1)) == [0, Fraction(1, 2)]


def test_kernel_basis():
    basis = kernel_basis([(1, 1, 0)], 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] == 0 or vec == [Fraction(0), Fraction(0), Fraction(1)]


def test_kernel_basis_unit_on_free_columns():
    # pivots appear out of column order: (0, 1, 1) first, then (1, 0, 2)
    rows = [(0, 1, 1), (1, 0, 2), (1, 1, 3)]
    assert kernel_basis(rows, 3) == [[-2, -1, 1]]
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]


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
