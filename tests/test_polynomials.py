import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given

from okbody.polynomials import (HomogPoly, graded_monomials,
                                has_projective_common_zero)
from okbody.varieties import CASE_NAMES, make_case, make_negative_control
from strategies import small_fractions

x0, x1, x2 = (HomogPoly.variable(3, i) for i in range(3))
X, Y, Z, W = (HomogPoly.variable(4, i) for i in range(4))
FERMAT = X ** 3 + Y ** 3 + Z ** 3 + W ** 3

rationals = small_fractions(10, 8)
nonzero_rationals = rationals.filter(bool)


def test_graded_monomials_two_vars_degree_one():
    assert graded_monomials(2, 1) == ((1, 0), (0, 1))


def test_graded_monomials_counts():
    assert len(graded_monomials(3, 2)) == 6
    assert len(graded_monomials(4, 3)) == 20


def test_graded_monomials_against_direct_enumeration():
    expected = sorted((e for e in product(range(4), repeat=4) if sum(e) == 3),
                      reverse=True)
    assert list(graded_monomials(4, 3)) == expected


def test_product_of_variables():
    assert x0 * x1 == HomogPoly.monomial((1, 1, 0))


def test_square_of_sum():
    assert (x0 + x1) ** 2 == HomogPoly(3, 2, {(2, 0, 0): 1, (1, 1, 0): 2,
                                              (0, 2, 0): 1})


def test_difference_of_squares():
    assert (x0 + x1) * (x0 - x1) == x0 ** 2 - x1 ** 2


def test_mixed_degree_sum_rejected():
    with pytest.raises(ValueError):
        x0 + x1 * x2


def test_evaluate():
    p = X * W - Y * Z
    assert p.evaluate((0, 1, 0, 0)) == 0
    assert p.evaluate((1, 1, 1, 2)) == 1


def test_inexact_coefficients_rejected():
    # a float would enter as its binary expansion, 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError, match="0.1"):
        HomogPoly(3, 1, {(1, 0, 0): 0.1})
    with pytest.raises(TypeError, match="'1/2'"):
        HomogPoly(3, 1, {(1, 0, 0): "1/2"})
    with pytest.raises(TypeError, match="0.5"):
        HomogPoly.linear_form([0.5, 0, 0])
    with pytest.raises(TypeError, match="0.1"):
        x0.evaluate((0.1, 0, 0))


@pytest.mark.parametrize("exps", [(1.5, 0, 0), (1.9, 0, 0), (True, 0, 0),
                                  ("1", 0, 0)])
def test_non_int_exponents_rejected(exps):
    # int() would truncate 1.5 and 1.9 to 1 and read True as 1, building x
    with pytest.raises(TypeError, match=re.escape(repr(exps))):
        HomogPoly(3, 1, {exps: 1})
    with pytest.raises(TypeError, match=re.escape(repr(exps))):
        HomogPoly.monomial(exps)
    with pytest.raises(TypeError, match=re.escape(repr(exps))):
        HomogPoly(3, 1, {exps: 0})


@pytest.mark.parametrize("terms", [{(5, 5): 0}, {(1, 1, 0): 0},
                                   {(1, 0): 0}, {(2, -1, 0): 0}])
def test_zero_coefficient_term_still_checked(terms):
    # a term is checked against the length and degree before its zero
    # coefficient drops it
    with pytest.raises(ValueError, match="exponent tuple"):
        HomogPoly(3, 1, terms)


def test_repr_is_the_constructor_call(off_flex_cubic):
    # eval of the repr gives back an equal form: on every form of every
    # shipped flag, its final curve included, and on made-up ones
    assert repr(x0) == "HomogPoly(3, 1, {(1, 0, 0): Fraction(1, 1)})"
    forms = [F(-2, 3) * x0 * x1 + x2 ** 2, HomogPoly(4, 3, {}), FERMAT]
    for case in [make_case(name, 2) for name in CASE_NAMES] + [
            make_negative_control(), off_flex_cubic]:
        flag = case.flag
        forms += [f for f in (flag.relation, *flag.steps, flag.final_form,
                              flag.final_stage.relation) if f is not None]
    for form in forms:
        again = eval(repr(form), {"HomogPoly": HomogPoly, "Fraction": F})
        assert again == form and again.degree == form.degree, form


def test_partial():
    assert FERMAT.partial(3) == 3 * W ** 2


@given(a=nonzero_rationals, b=nonzero_rationals)
def test_rational_inverse_roundtrip(a, b):
    assert (a / b) * (b / a) == 1


@given(a=rationals, b=rationals, c=rationals)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


# -- substitution and coefficients ----------------------------------------------


def test_substitute_and_coefficient_of():
    moved = (X * W + Z * W).substitute(3, X - W)
    assert moved == X * X - X * W + Z * X - Z * W
    x, y, z = (HomogPoly.variable(3, i) for i in range(3))
    assert moved.coefficient_of(3, 0) == x * x + z * x
    assert moved.coefficient_of(3, 1) == -x - z


# -- common projective zeros ----------------------------------------------------


def test_coordinate_forms_have_no_common_zero():
    assert not has_projective_common_zero([x0, x1, x2])


def test_shared_zero_detected():
    # x^2 and x*y both vanish at (0:0:1)
    assert has_projective_common_zero([x0 ** 2, x0 * x1])


def test_fermat_partials_have_no_common_zero():
    assert not has_projective_common_zero([FERMAT.partial(i) for i in range(4)])


def test_singular_cubic_partials_share_a_zero():
    # y^2*z = x^3 + x^2*z has a node at (0:0:1)
    nodal = Y ** 2 * Z - X ** 3 - X ** 2 * Z
    partials = [nodal.partial(i) for i in range(4)]
    assert has_projective_common_zero([p for p in partials if p])


def test_nonzero_constant_blocks_common_zeros():
    one = HomogPoly.constant(3, 5)
    assert not has_projective_common_zero([one, x0])
