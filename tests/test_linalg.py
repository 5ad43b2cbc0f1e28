from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from okbody.linalg import (independent_indices, kernel_basis, rank,
                           rat_linear_solve)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def test_standard_basis_solve():
    assert rat_linear_solve([(1, 0), (0, 1)], (3, 5)) == [3, 5]


def test_rank_deficient_no_solution():
    assert rat_linear_solve([(1, 1)], (1, 2)) is None


def test_solve_with_fractional_coefficients():
    sol = rat_linear_solve([(2, 4), (1, 3)], (0, 1))
    assert sol == [Fraction(-1, 2), Fraction(1)]


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        rat_linear_solve([(1, 0), (0, 1, 2)], (1, 1))
    with pytest.raises(ValueError):
        rat_linear_solve([(1, 0)], (1, 0, 0))


def test_empty_row_list():
    assert rat_linear_solve([], (0, 0)) == []
    assert rat_linear_solve([], (1, 0)) is None


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=80)
def test_solve_reconstructs_combination(rows, coeffs):
    rows = [tuple(r) for r in rows]
    coeffs = coeffs[:len(rows)] + [Fraction(0)] * (len(rows) - len(coeffs))
    target = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(3)]
    sol = rat_linear_solve(rows, target)
    assert sol is not None
    recombined = [sum(c * r[i] for c, r in zip(sol, rows)) for i in range(3)]
    assert recombined == target


def test_rank_and_independent_indices():
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert rank(rows) == 2
    assert independent_indices(rows) == [0, 2]


def test_rat_linear_solve_span_membership():
    rows = [(1, 1, 0), (0, 1, 1)]
    assert rat_linear_solve(rows, (1, 2, 1)) is not None
    assert rat_linear_solve(rows, (1, 0, 1)) is None
    assert rat_linear_solve(rows, (2, 3, 1)) == [2, 1]


def test_rat_linear_solve_weights_dependent_rows_zero():
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert rat_linear_solve(rows, (3, 5, 0)) == [3, 0, 5, 0]
    assert rat_linear_solve([(0, 0), (0, 2)], (0, 1)) == [0, Fraction(1, 2)]


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

