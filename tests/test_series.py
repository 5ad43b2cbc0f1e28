import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from okbody.polynomials import HomogPoly
from okbody.series import (PowerSeries, PrecisionError,
                           affine_chart_expansion, eval_bivar,
                           series_solve_branch)

X, Y, Z = (HomogPoly.variable(3, i) for i in range(3))
PLANE_CUBIC = X ** 3 + Y ** 3 + Z ** 3
CONIC = Y * Z - X ** 2


def branch_residual_is_zero(curve, point, precision, chart, param, dep):
    u = series_solve_branch(curve, point, precision,
                            chart_var=chart, param_var=param, dep_var=dep)
    f = affine_chart_expansion(curve, point, chart, param, dep)
    residual = eval_bivar(f, u)
    return all(c == 0 for c in residual.coefficients)


def test_conic_branch_is_exact_parabola():
    u = series_solve_branch(CONIC, (0, 0, 1), 6,
                            chart_var=2, param_var=0, dep_var=1)
    assert u.coefficients == (0, 0, 1, 0, 0, 0)


def test_line_branch_is_zero():
    line = Y
    u = series_solve_branch(line, (1, 0, 0), 5,
                            chart_var=0, param_var=2, dep_var=1)
    assert all(c == 0 for c in u.coefficients)


def test_fermat_flex_branch_leading_terms():
    # y = -1 + u near (1:-1:0) with parameter z: u = -z^3/3 + O(z^6)
    u = series_solve_branch(PLANE_CUBIC, (1, -1, 0), 6,
                            chart_var=0, param_var=2, dep_var=1)
    assert u.coefficients == (0, 0, 0, Fraction(-1, 3), 0, 0)


def test_fermat_flex_branch_residual():
    for precision in (2, 5, 9, 17):
        assert branch_residual_is_zero(PLANE_CUBIC, (1, -1, 0), precision,
                                       0, 2, 1)


def test_branch_at_scaled_point():
    # the same flex written with a different projective scale
    u1 = series_solve_branch(PLANE_CUBIC, (1, -1, 0), 7,
                             chart_var=0, param_var=2, dep_var=1)
    u2 = series_solve_branch(PLANE_CUBIC, (-2, 2, 0), 7,
                             chart_var=0, param_var=2, dep_var=1)
    assert u1 == u2


def test_branch_truncates_to_every_lower_precision(quadric):
    stage = quadric.flag.final_stage
    for curve, point, chart, param, dep in (
            (PLANE_CUBIC, (1, -1, 0), 0, 2, 1),
            (stage.relation, stage.point, stage.chart, stage.param, stage.dep)):
        longest = series_solve_branch(curve, point, 32, chart_var=chart,
                                      param_var=param, dep_var=dep)
        for precision in range(1, 33):
            assert longest.truncate(precision) == series_solve_branch(
                curve, point, precision, chart_var=chart, param_var=param,
                dep_var=dep)


@pytest.mark.parametrize("curve, point, chart, param, dep", [
    (CONIC, (0, 0, 1), 2, 0, 1),
    (PLANE_CUBIC, (1, -1, 0), 0, 2, 1),
], ids=["conic", "flex"])
def test_warm_branch_matches_cold_branch(curve, point, chart, param, dep):
    kwargs = dict(chart_var=chart, param_var=param, dep_var=dep)
    cold = {precision: series_solve_branch(curve, point, precision, **kwargs)
            for precision in range(1, 33)}
    rng = random.Random(11)
    for precision in range(2, 33):
        lengths = {1, precision // 2, precision - 1,
                   rng.randrange(1, precision)}
        for length in sorted(lengths):
            start = cold[length].coefficients
            assert series_solve_branch(curve, point, precision, start=start,
                                       **kwargs) == cold[precision]


def test_wrong_branch_start_rejected():
    kwargs = dict(chart_var=0, param_var=2, dep_var=1)
    branch = series_solve_branch(PLANE_CUBIC, (1, -1, 0), 8, **kwargs)
    wrong = list(branch.coefficients)
    wrong[3] += 1                          # the flex branch is -t^3/3 + ...
    for start, precision in ((tuple(wrong[:5]), 9),
                             (tuple(wrong[:4]), 6),
                             ((Fraction(1),), 4),
                             (branch.coefficients, 8),
                             (branch.coefficients, 5)):
        with pytest.raises(ValueError, match="branch start"):
            series_solve_branch(PLANE_CUBIC, (1, -1, 0), precision,
                                start=start, **kwargs)
    # a correct start is accepted
    assert series_solve_branch(PLANE_CUBIC, (1, -1, 0), 9,
                               start=branch.coefficients[:5], **kwargs) == \
        series_solve_branch(PLANE_CUBIC, (1, -1, 0), 9, **kwargs)


def test_point_off_curve_rejected():
    with pytest.raises(ValueError, match="not lie on the curve"):
        series_solve_branch(PLANE_CUBIC, (1, 1, 1), 4,
                            chart_var=0, param_var=2, dep_var=1)


def test_singular_point_rejected():
    nodal = Y ** 2 * Z - X ** 3 - X ** 2 * Z
    with pytest.raises(ValueError, match="singular"):
        series_solve_branch(nodal, (0, 0, 1), 4,
                            chart_var=2, param_var=0, dep_var=1)


def test_non_transversal_parameter_rejected():
    # at the flex the tangent is {u = y+1 = 0}; swapping parameter and
    # dependent coordinate makes the parameter tangent to the curve itself
    with pytest.raises(ValueError, match="transversal"):
        series_solve_branch(PLANE_CUBIC, (1, -1, 0), 4,
                            chart_var=0, param_var=1, dep_var=2)


def test_precision_cap():
    with pytest.raises(PrecisionError):
        series_solve_branch(CONIC, (0, 0, 1), 1000,
                            chart_var=2, param_var=0, dep_var=1)


# -- series arithmetic ------------------------------------------------------------


def test_mul_tracks_minimum_precision():
    a = PowerSeries([1, 2, 3])
    b = PowerSeries([1, 1])
    assert (a * b).precision == 2
    assert (a * b).coefficients == (1, 3)


def test_inverse():
    a = PowerSeries([1, -1, 0, 0, 0])
    geometric = a.inverse()
    assert geometric.coefficients == (1, 1, 1, 1, 1)
    assert (a * geometric).coefficients == (1, 0, 0, 0, 0)


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        PowerSeries([0, 1]).inverse()


def test_order():
    assert PowerSeries([0, 0, 5, 7]).order() == 2
    assert PowerSeries([0, 0]).order() is None


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=1, max_size=6),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=1, max_size=6))
@settings(max_examples=60)
def test_mul_commutes(a, b):
    sa, sb = PowerSeries(a), PowerSeries(b)
    assert sa * sb == sb * sa
