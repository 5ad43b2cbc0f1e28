"""Truncated univariate power series over the rationals, and local
parametrization of a smooth point of a plane curve.

A :class:`PowerSeries` knows its coefficients below an explicit precision
bound; arithmetic results carry the minimum precision of their inputs.  The
branch solver writes one affine coordinate of a plane curve as a series in a
chosen local parameter by Newton iteration on the dehomogenized equation,
doubling the working precision each step; it can resume from a shorter
branch computed earlier, so extending a branch costs only the new steps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .polynomials import HomogPoly, Scalar

PRECISION_CAP = 512

BivarPoly = dict[tuple[int, int], Fraction]


class PrecisionError(RuntimeError):
    """A series computation hit the hard precision cap without certifying
    its answer."""


class PowerSeries:
    """Coefficients c_0 .. c_{precision-1} of a series in one variable;
    exponents at or above the precision are unknown, not zero."""

    __slots__ = ("variable", "coefficients")

    def __init__(self, coefficients: Sequence[Scalar], variable: str = "t"):
        self.coefficients = tuple(Fraction(c) for c in coefficients)
        self.variable = variable
        if not self.coefficients:
            raise ValueError("a series needs precision at least 1")

    @classmethod
    def zero(cls, precision: int, variable: str = "t") -> PowerSeries:
        return cls([Fraction(0)] * precision, variable)

    @property
    def precision(self) -> int:
        return len(self.coefficients)

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k < self.precision:
            raise IndexError("coefficient beyond tracked precision")
        return self.coefficients[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    __hash__ = None  # type: ignore[assignment]

    def truncate(self, precision: int) -> PowerSeries:
        if precision > self.precision:
            raise ValueError("cannot truncate to higher precision")
        return PowerSeries(self.coefficients[:precision], self.variable)

    def pad(self, precision: int) -> PowerSeries:
        """Extend with zero coefficients.  Only valid when the caller knows
        the higher coefficients really vanish (e.g. a polynomial)."""
        if precision <= self.precision:
            return self
        return PowerSeries(self.coefficients
                           + (Fraction(0),) * (precision - self.precision),
                           self.variable)

    def order(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None when the series
        vanishes to the tracked precision."""
        for k, c in enumerate(self.coefficients):
            if c:
                return k
        return None

    def __add__(self, other: PowerSeries) -> PowerSeries:
        n = min(self.precision, other.precision)
        return PowerSeries([self.coefficients[i] + other.coefficients[i]
                            for i in range(n)], self.variable)

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        n = min(self.precision, other.precision)
        return PowerSeries([self.coefficients[i] - other.coefficients[i]
                            for i in range(n)], self.variable)

    def __neg__(self) -> PowerSeries:
        return PowerSeries([-c for c in self.coefficients], self.variable)

    def __mul__(self, other: Union[PowerSeries, Scalar]) -> PowerSeries:
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * other for c in self.coefficients],
                               self.variable)
        n = min(self.precision, other.precision)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coefficients[:n]):
            if not a:
                continue
            for j, b in enumerate(other.coefficients[:n - i]):
                if b:
                    out[i + j] += a * b
        return PowerSeries(out, self.variable)

    def __rmul__(self, other: Scalar) -> PowerSeries:
        return self.__mul__(other)

    def inverse(self) -> PowerSeries:
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coefficients[0]
        if c0 == 0:
            raise ValueError("series with zero constant term has no inverse")
        n = self.precision
        out = [Fraction(0)] * n
        out[0] = Fraction(1) / c0
        for k in range(1, n):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coefficients[i] * out[k - i]
            out[k] = -acc / c0
        return PowerSeries(out, self.variable)

    def __repr__(self) -> str:
        pieces = []
        for k, c in enumerate(self.coefficients):
            if not c:
                continue
            if k == 0:
                pieces.append(str(c))
            else:
                power = self.variable if k == 1 else f"{self.variable}^{k}"
                pieces.append(power if c == 1 else f"{c}*{power}")
        body = " + ".join(pieces).replace("+ -", "- ") if pieces else "0"
        return f"{body} + O({self.variable}^{self.precision})"


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
    from math import comb

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


def bivar_partial_u(poly: BivarPoly) -> BivarPoly:
    out: BivarPoly = {}
    for (i, j), c in poly.items():
        if j:
            out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + c * j
    return out


def eval_bivar(poly: BivarPoly, u: PowerSeries) -> PowerSeries:
    """Evaluate f(t, u(t)) in truncated arithmetic at u's precision."""
    prec = u.precision
    max_j = max((j for (_i, j) in poly), default=0)
    acc = PowerSeries.zero(prec, u.variable)
    for j in range(max_j, -1, -1):
        coeffs = [Fraction(0)] * prec
        for (i, jj), c in poly.items():
            if jj == j and i < prec:
                coeffs[i] += c
        acc = acc * u + PowerSeries(coeffs, u.variable)
    return acc


def series_solve_branch(curve: HomogPoly, point: Sequence[Scalar],
                        precision: int, *, chart_var: int, param_var: int,
                        dep_var: int, start: tuple[Fraction, ...] = ()
                        ) -> PowerSeries:
    """Local parametrization of a plane curve at a smooth rational point.

    Returns the series u(t) with the dependent affine coordinate expressed in
    the parameter t, normalized so that u(0) = 0 (u is the offset from the
    point).  The series satisfies f(t, u(t)) = 0 to the requested precision,
    where f is the dehomogenized curve equation.

    Newton doubling continues from ``start``, the branch's coefficients
    below some shorter precision (a tuple, so that calls stay hashable).
    The branch is the only solution with u(0) = 0, so a start whose first
    coefficient is nonzero, or whose Newton residual does not vanish below
    its length, raises ValueError.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    if len(start) >= precision or (start and start[0]):
        raise ValueError("a branch start must be shorter than the precision "
                         "and have u(0) = 0")
    if precision > PRECISION_CAP:
        raise PrecisionError(f"requested precision {precision} exceeds the "
                             f"cap {PRECISION_CAP}")
    f = affine_chart_expansion(curve, point, chart_var, param_var, dep_var)
    if f.get((0, 0), Fraction(0)) != 0:
        raise ValueError("point does not lie on the curve")
    fu = f.get((0, 1), Fraction(0))
    if fu == 0:
        partials = [curve.partial(i).evaluate(point) for i in range(3)]
        if not any(partials):
            raise ValueError("point is a singular point of the curve")
        raise ValueError("chosen parameter is not transversal at the point")
    df = bivar_partial_u(f)
    u = PowerSeries(start or [Fraction(0)])
    while u.precision < precision:
        known = u.precision
        target = min(2 * known, precision)
        u = u.pad(target)
        residual = eval_bivar(f, u)
        if any(residual.coefficients[:known]):
            raise ValueError("the branch start does not solve the curve "
                             f"equation to precision {known}")
        correction = residual * eval_bivar(df, u).inverse()
        u = (u - correction).truncate(target)
    return u
