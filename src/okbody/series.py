"""Local parametrization of a smooth point of a plane curve.

In a chosen affine chart and local parameter t, the curve's equation at a
rational point becomes f(t, u) = sum a_ij t^i u^j with a_00 = 0, where u is
the dependent coordinate's offset from the point.  At a smooth point with a
transversal parameter a_01 is nonzero, and by the implicit function theorem
one series u(t) with u(0) = 0 solves f(t, u(t)) = 0.  The branch solver
finds it order by order: the coefficient of t^k in f(t, u(t)) is a_01 u_k
plus terms in u_1 .. u_{k-1}, so each coefficient costs one division; the
powers u^j come along, as tuples of coefficients to the precision asked.
Only the curve is put in the chart: okbody.valuation reads forms via u^j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polynomials import HomogPoly, Scalar, _exact

PRECISION_CAP = 512

BivarPoly = dict[tuple[int, int], Fraction]


class PrecisionError(RuntimeError):
    """A series computation hit the hard precision cap without certifying
    its answer."""


def branch_equation(curve: HomogPoly, point: Sequence[Scalar], *,
                    chart_var: int, param_var: int, dep_var: int
                    ) -> BivarPoly:
    """The equation f(t, u) of a plane curve at a rational point, checked
    to have a branch there: the point lies on the curve, is smooth, and the
    parameter is transversal (a_01 != 0).  f is the curve at x_chart = 1,
    x_param = t0 + t, x_dep = u0 + u, with (t0, u0) the point in the chart,
    by the translations x_param -> x_param + t0 x_chart and x_dep -> x_dep
    + u0 x_chart; keys are (t-exponent, u-exponent)."""
    if curve.num_vars != 3:
        raise ValueError("expected a form in three variables")
    if sorted((chart_var, param_var, dep_var)) != [0, 1, 2]:
        raise ValueError("chart, parameter and dependent variables must "
                         "partition the three coordinates")
    pt = [Fraction(_exact(v)) for v in point]
    if len(pt) != 3:
        raise ValueError("point must have three coordinates")
    if pt[chart_var] == 0:
        raise ValueError("point is not in the chosen affine chart")
    chart, moved = HomogPoly.variable(3, chart_var), curve
    for var in [v for v in (param_var, dep_var) if pt[v]]:  # identity at 0
        moved = moved.substitute(var, HomogPoly.variable(3, var)
                                 + chart * (pt[var] / pt[chart_var]))
    f = {(exps[param_var], exps[dep_var]): c
         for exps, c in moved.terms.items()}
    if (0, 0) in f:
        raise ValueError("point does not lie on the curve")
    if (0, 1) not in f:
        if not any(curve.partial(i).evaluate(point) for i in range(3)):
            raise ValueError("point is a singular point of the curve")
        raise ValueError("chosen parameter is not transversal at the point")
    return f


def series_solve_branch(curve: HomogPoly, point: Sequence[Scalar],
                        precision: int, *, chart_var: int, param_var: int,
                        dep_var: int, count: int
                        ) -> tuple[tuple[Scalar, ...], ...]:
    """Powers u^0 .. u^(count-1), to the requested precision, of the branch
    u(t) of a plane curve at a smooth rational point: u writes the dependent
    affine coordinate in the parameter t, with u(0) = 0, and f(t, u(t)) = 0
    to that precision for the dehomogenized curve equation f.  The branch is
    unique, so a lower precision or count gives a prefix.  Every count
    checks the curve at the point; only count > 1 solves."""
    if precision < 1:
        raise ValueError("precision must be positive")
    if precision > PRECISION_CAP:
        raise PrecisionError(f"requested precision {precision} exceeds the "
                             f"cap PRECISION_CAP = {PRECISION_CAP}")
    f = branch_equation(curve, point, chart_var=chart_var,
                        param_var=param_var, dep_var=dep_var)
    # powers[j][k] is the coefficient of t^k in u^j; one with no nonzero
    # term is the int 0, whose truth test is cheap
    powers = [[Fraction(1)] + [0] * (precision - 1)]
    if count < 2:
        return tuple(map(tuple, powers[:count]))
    # by_u[j] holds the a_ij by i; a_01 u_k is the one term of t^k in u_k
    by_u = [{i: c for (i, j), c in f.items() if j == power}
            for power in range(1 + max(j for _i, j in f))]
    a01 = by_u[1].pop(0)
    powers += [[0] * precision for _ in range(max(count, len(by_u)) - 1)]
    u, support = powers[1], []
    for k in range(1, precision):
        # u^j = u u^(j-1), j >= 2: as u(0) = 0, its t^k coefficient sums u_l
        # times that of t^(k-l) in u^(j-1) over support, the l < k, u_l != 0;
        # u^j has order j v, v = support[0], so only j <= k / v sum any
        for j in range(2, min(len(powers), k // support[0] + 1)
                       if support else 2):
            lower = powers[j - 1]
            powers[j][k] = sum(u[l] * lower[k - l] for l in support
                               if lower[k - l])
        rest = sum(c * powers[j][k - i] for j, row in enumerate(by_u)
                   for i, c in row.items() if i <= k)
        if rest:
            u[k] = -rest / a01
            support.append(k)
    return tuple(map(tuple, powers[:count]))
