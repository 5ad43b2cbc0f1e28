"""Local parametrization of a smooth point of a plane curve.

In a chosen affine chart and local parameter t, the curve's equation at a
rational point becomes f(t, u) = sum a_ij t^i u^j with a_00 = 0, where u is
the dependent coordinate's offset from the point.  At a smooth point with a
transversal parameter a_01 is nonzero, and by the implicit function theorem
one series u(t) with u(0) = 0 solves f(t, u(t)) = 0.  The branch solver
finds it order by order: the coefficient of t^k in f(t, u(t)) is a_01 u_k
plus terms in u_1 .. u_{k-1}, so each coefficient costs one division.  A
branch is the tuple of its coefficients below the requested precision.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

from .polynomials import HomogPoly, Scalar

PRECISION_CAP = 512

BivarPoly = dict[tuple[int, int], Fraction]


class PrecisionError(RuntimeError):
    """A series computation hit the hard precision cap without certifying
    its answer."""


def affine_chart_expansion(curve: HomogPoly, point: Sequence[Scalar],
                           chart_var: int, param_var: int, dep_var: int
                           ) -> BivarPoly:
    """Dehomogenize a plane-curve equation at a rational point.

    The chart variable is set to 1 (after scaling the point so its chart
    coordinate is 1), the parameter and dependent variables are shifted to
    the point, giving a polynomial f(t, u) with f(0, 0) = curve(point).
    Keys of the result are (t-exponent, u-exponent).
    """
    if curve.num_vars != 3:
        raise ValueError("expected a form in three variables")
    if sorted((chart_var, param_var, dep_var)) != [0, 1, 2]:
        raise ValueError("chart, parameter and dependent variables must "
                         "partition the three coordinates")
    pt = [Fraction(v) for v in point]
    if len(pt) != 3:
        raise ValueError("point must have three coordinates")
    if pt[chart_var] == 0:
        raise ValueError("point is not in the chosen affine chart")
    scale = pt[chart_var]
    t0 = pt[param_var] / scale
    u0 = pt[dep_var] / scale
    out: BivarPoly = {}
    for exps, c in curve.terms.items():
        a = exps[param_var]
        b = exps[dep_var]
        for i in range(a + 1):
            for j in range(b + 1):
                coeff = (c * comb(a, i) * t0 ** (a - i)
                         * comb(b, j) * u0 ** (b - j))
                if coeff:
                    key = (i, j)
                    out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def branch_equation(curve: HomogPoly, point: Sequence[Scalar], *,
                    chart_var: int, param_var: int, dep_var: int
                    ) -> BivarPoly:
    """The dehomogenized equation f(t, u) of a plane curve at a rational
    point, checked to have a branch there: the point lies on the curve, is
    smooth, and the parameter is transversal (a_01 != 0)."""
    f = affine_chart_expansion(curve, point, chart_var, param_var, dep_var)
    if (0, 0) in f:
        raise ValueError("point does not lie on the curve")
    if (0, 1) not in f:
        partials = [curve.partial(i).evaluate(point) for i in range(3)]
        if not any(partials):
            raise ValueError("point is a singular point of the curve")
        raise ValueError("chosen parameter is not transversal at the point")
    return f


def series_solve_branch(curve: HomogPoly, point: Sequence[Scalar],
                        precision: int, *, chart_var: int, param_var: int,
                        dep_var: int) -> tuple[Fraction, ...]:
    """Local parametrization of a plane curve at a smooth rational point.

    Returns the coefficients u_0 .. u_{precision-1} of the series u(t) that
    writes the dependent affine coordinate in the parameter t, normalized so
    that u(0) = 0 (u is the offset from the point).  The series satisfies
    f(t, u(t)) = 0 to the requested precision, where f is the dehomogenized
    curve equation; the branch is unique, so a lower precision gives a
    prefix of it.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    if precision > PRECISION_CAP:
        raise PrecisionError(f"requested precision {precision} exceeds the "
                             f"cap PRECISION_CAP = {PRECISION_CAP}")
    f = branch_equation(curve, point, chart_var=chart_var,
                        param_var=param_var, dep_var=dep_var)
    # by_u[j] holds the a_ij by i; a_01 u_k is the one term of t^k in u_k
    by_u: list[dict[int, Fraction]] = [{} for _ in range(
        1 + max(j for _i, j in f))]
    for (i, j), c in f.items():
        by_u[j][i] = c
    a01 = by_u[1].pop(0)
    # powers[j][m] is the coefficient of t^m in u^j; as u(0) = 0, that of
    # t^k in u^j for j >= 2 needs only u_1 .. u_{k-1}
    powers: list[list] = [[Fraction(1)]] + [[Fraction(0)] for _ in by_u[1:]]
    u = powers[1]
    for k in range(1, precision):
        powers[0].append(0)
        for j in range(2, len(by_u)):
            lower = powers[j - 1]
            powers[j].append(sum(u[l] * lower[k - l]
                                 for l in range(1, k) if u[l]))
        rest = sum(c * powers[j][k - i] for j, row in enumerate(by_u)
                   for i, c in row.items() if i <= k)
        u.append(-rest / a01)
    return tuple(u)
