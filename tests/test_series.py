import random
from fractions import Fraction

import pytest

from okbody.polynomials import HomogPoly, graded_monomials
from okbody.series import (PrecisionError, branch_equation,
                           series_solve_branch)

from oracles import form_along_branch

X, Y, Z = (HomogPoly.variable(3, i) for i in range(3))
PLANE_CUBIC = X ** 3 + Y ** 3 + Z ** 3
CONIC = Y * Z - X ** 2


def branch_residual_is_zero(curve, point, precision, chart, param, dep):
    u = series_solve_branch(curve, point, precision, chart_var=chart,
                            param_var=param, dep_var=dep, count=2)[1]
    return not any(form_along_branch(curve, point, u, chart, param, dep))


def test_conic_branch_is_exact_parabola():
    u = series_solve_branch(CONIC, (0, 0, 1), 6, chart_var=2, param_var=0,
                            dep_var=1, count=2)[1]
    assert u == (0, 0, 1, 0, 0, 0)


def test_line_branch_is_zero():
    line = Y
    u = series_solve_branch(line, (1, 0, 0), 5, chart_var=0, param_var=2,
                            dep_var=1, count=2)[1]
    assert not any(u)


def test_fermat_flex_branch_leading_terms():
    # y = -1 + u near (1:-1:0) with parameter z: u = -z^3/3 + O(z^6)
    u = series_solve_branch(PLANE_CUBIC, (1, -1, 0), 6, chart_var=0,
                            param_var=2, dep_var=1, count=2)[1]
    assert u == (0, 0, 0, Fraction(-1, 3), 0, 0)


def test_fermat_flex_branch_residual():
    for precision in (2, 5, 9, 17):
        assert branch_residual_is_zero(PLANE_CUBIC, (1, -1, 0), precision,
                                       0, 2, 1)


def test_branch_at_scaled_point():
    # the same flex written with a different projective scale
    u1 = series_solve_branch(PLANE_CUBIC, (1, -1, 0), 7, chart_var=0,
                             param_var=2, dep_var=1, count=2)[1]
    u2 = series_solve_branch(PLANE_CUBIC, (-2, 2, 0), 7, chart_var=0,
                             param_var=2, dep_var=1, count=2)[1]
    assert u1 == u2


def test_branch_truncates_to_every_lower_precision(quadric):
    stage = quadric.flag.final_stage
    for curve, point, chart, param, dep in (
            (PLANE_CUBIC, (1, -1, 0), 0, 2, 1),
            (stage.relation, stage.point, stage.chart, stage.param, stage.dep)):
        longest = series_solve_branch(curve, point, 32, chart_var=chart,
                                      param_var=param, dep_var=dep,
                                      count=2)[1]
        for precision in range(1, 33):
            assert longest[:precision] == series_solve_branch(
                curve, point, precision, chart_var=chart, param_var=param,
                dep_var=dep, count=2)[1]


def test_point_off_curve_rejected():
    with pytest.raises(ValueError, match="not lie on the curve"):
        series_solve_branch(PLANE_CUBIC, (1, 1, 1), 4,
                            chart_var=0, param_var=2, dep_var=1, count=2)


def test_singular_point_rejected():
    nodal = Y ** 2 * Z - X ** 3 - X ** 2 * Z
    with pytest.raises(ValueError, match="singular"):
        series_solve_branch(nodal, (0, 0, 1), 4,
                            chart_var=2, param_var=0, dep_var=1, count=2)


def test_non_transversal_parameter_rejected():
    # at the flex the tangent is {u = y+1 = 0}; swapping parameter and
    # dependent coordinate makes the parameter tangent to the curve itself
    with pytest.raises(ValueError, match="transversal"):
        series_solve_branch(PLANE_CUBIC, (1, -1, 0), 4,
                            chart_var=0, param_var=1, dep_var=2, count=2)


def test_precision_cap():
    with pytest.raises(PrecisionError, match=r"PRECISION_CAP = 512"):
        series_solve_branch(CONIC, (0, 0, 1), 1000,
                            chart_var=2, param_var=0, dep_var=1, count=2)


def _random_curves(rng, count):
    """Seeded conics and cubics through random rational points, each with a
    random chart and a parameter transversal at its point: a random form
    minus its value at the point times the chart coordinate's power, kept
    when the dependent coordinate's partial is nonzero there."""
    while count:
        chart, param, dep = rng.sample(range(3), 3)
        point = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(3)]
        point[chart] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                rng.randrange(1, 4))
        degree = rng.choice((2, 3))
        monos = graded_monomials(3, degree)
        form = HomogPoly(3, degree, {m: rng.randrange(-5, 6) for m in
                                     rng.sample(monos, rng.randrange(3, 7))})
        chart_power = HomogPoly.variable(3, chart) ** degree
        curve = form - form.evaluate(point) / chart_power.evaluate(
            point) * chart_power
        if curve.partial(dep).evaluate(point):
            count -= 1
            yield curve, tuple(point), chart, param, dep


def _truncated_powers(u, count):
    """u^0 .. u^(count-1) truncated to len(u), by repeated products."""
    powers = [[1] + [0] * (len(u) - 1)]
    while len(powers) < count:
        powers.append([sum(powers[-1][i] * u[k - i] for i in range(k + 1))
                       for k in range(len(u))])
    return powers


def test_branch_on_seeded_random_curves():
    kwargs_of = ("chart_var", "param_var", "dep_var")
    for curve, point, *indices in _random_curves(random.Random(41), 30):
        kwargs = dict(zip(kwargs_of, indices))
        asked = {(precision, 2) for precision in range(1, 26)} | {
            (13, count) for count in range(1, 9)} | {(25, 8)}
        powers = {(precision, count): series_solve_branch(
                      curve, point, precision, count=count, **kwargs)
                  for precision, count in asked}
        branch = powers[25, 8][1]
        # every power is the truncated product of the branch, and a
        # smaller count or precision gives a prefix
        assert list(map(list, powers[25, 8])) == \
            _truncated_powers(branch, 8), (curve, point)
        for precision, count in asked:
            assert powers[precision, count] == tuple(
                power[:precision] for power in powers[25, 8][:count])
        # every shorter branch is a prefix, so its residual is the prefix
        # of this one's
        assert not any(form_along_branch(curve, point, branch, *indices)), \
            (curve, point)


def _sympy_chart_expansion(form, point, chart, param, dep):
    """form(1, t0 + t, u0 + u) by sympy, with (t0, u0) the point in the
    chart, as {(i, j): coefficient of t^i u^j}."""
    import sympy

    t, u = sympy.symbols("t u")
    scale = Fraction(point[chart])
    values = [None] * 3
    values[chart] = 1
    for var, symbol in ((param, t), (dep, u)):
        offset = Fraction(point[var]) / scale
        values[var] = sympy.Rational(offset.numerator,
                                     offset.denominator) + symbol
    total = sum((sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(v ** e for v, e in zip(values, exps)))
                 for exps, c in form.terms.items()), sympy.Integer(0))
    poly = sympy.Poly(sympy.expand(total), t, u)
    return {monomial: Fraction(int(c.p), int(c.q))
            for monomial, c in poly.terms() if c}


def _chart_cases(rng, count):
    """Seeded points with chart, parameter and dependent variable, led by
    the flex (2 : -2 : 0), whose chart coordinate is not 1."""
    yield (2, -2, 0), 0, 2, 1
    for _ in range(count):
        chart, param, dep = rng.sample(range(3), 3)
        point = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(3)]
        point[chart] = rng.choice((-3, -2, 2, Fraction(1, 3)))
        yield tuple(point), chart, param, dep


def test_chart_expansion_matches_sympy():
    # seeded curves made to pass through each point: the curve's equation
    # in the chart is sympy's, or, when it has no u term, it is refused
    rng = random.Random(17)
    kwargs_of = ("chart_var", "param_var", "dep_var")
    refused = 0
    for point, *indices in _chart_cases(rng, 24):
        degree = rng.randrange(1, 5)
        monos = graded_monomials(3, degree)
        form = HomogPoly(3, degree, {
            m: rng.randrange(-5, 6)
            for m in rng.sample(monos, min(len(monos), 4))})
        chart_power = HomogPoly.variable(3, indices[0]) ** degree
        curve = form - form.evaluate(point) / chart_power.evaluate(
            point) * chart_power
        expected = _sympy_chart_expansion(curve, point, *indices)
        kwargs = dict(zip(kwargs_of, indices))
        if (0, 1) in expected:
            assert branch_equation(curve, point, **kwargs) == expected, \
                (curve, point)
        else:
            refused += 1
            with pytest.raises(ValueError, match="singular|transversal"):
                branch_equation(curve, point, **kwargs)
    assert 0 < refused < 25
