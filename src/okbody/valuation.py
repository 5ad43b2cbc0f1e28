"""Flag valuations of sections by iterated vanishing orders.

A flag on an n-dimensional hypersurface (or projective space) is a chain of
subvarieties cut by linear forms, ending in a rational point.  The valuation
of a nonzero section is computed step by step:

  * a linear change of coordinates turns the step form h into a variable y;
    in the graded reverse lexicographic order with y smallest the leading
    monomial of the relation F is free of y, so {y^k, F} is a Groebner basis
    (Buchberger's coprime leading monomial criterion) and the order along
    {h = 0} is the smallest y-exponent of the normal form of the section
    modulo F;
  * the coefficient of y^k in that normal form is the section divided by
    h^k and restricted to {h = 0}: a section on the next member;
  * the final entry is the vanishing order at the point, read off from a
    power-series parametrization of the last curve (or directly when the
    last member is a line).

The leading unit is the first nonzero series coefficient after all orders
have been divided out; it is the datum that lets two sections with equal
valuation be combined into one of strictly larger valuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polynomials import HomogPoly, Scalar, grevlex_order, poly_divmod
from .series import (PRECISION_CAP, PowerSeries, PrecisionError,
                     affine_chart_expansion, eval_bivar, series_solve_branch)


class ZeroSectionError(ValueError):
    """The section vanishes identically modulo the defining relation, so its
    valuation is undefined."""


@dataclass(frozen=True)
class _Step:
    """Restriction to the divisor {h = 0} of the hypersurface {F = 0} (or of
    projective space), in coordinates where x_pivot is replaced by
    y = h(x): ``to_y`` writes the old x_pivot through y and the other
    coordinates, and ``relation`` is F after that substitution."""

    pivot: int
    to_y: HomogPoly
    relation: HomogPoly | None

    @classmethod
    def build(cls, h: HomogPoly, relation: HomogPoly | None) -> _Step:
        coeffs = [h.terms.get(tuple(1 if j == i else 0
                                    for j in range(h.num_vars)), Fraction(0))
                  for i in range(h.num_vars)]
        pivot = max(i for i, c in enumerate(coeffs) if c)
        to_y = HomogPoly.linear_form(
            [1 / coeffs[pivot] if i == pivot else -c / coeffs[pivot]
             for i, c in enumerate(coeffs)])
        if relation is not None:
            relation = relation.substitute(pivot, to_y)
            if not relation.coefficient_of(pivot, 0):
                raise ValueError("a flag step divides the relation")
        return cls(pivot, to_y, relation)

    def restrict(self, poly: HomogPoly) -> HomogPoly:
        """The restriction of a form to {h = 0}."""
        moved = poly.substitute(self.pivot, self.to_y)
        return moved.coefficient_of(self.pivot, 0)

    def normal_form(self, section: HomogPoly) -> HomogPoly:
        """The section in the new coordinates, reduced modulo the relation
        in the graded reverse lexicographic order with y smallest."""
        normal = section.substitute(self.pivot, self.to_y)
        if self.relation is None:
            return normal
        order = grevlex_order(self.pivot)
        return poly_divmod(normal, self.relation, order)[1]

    def order_and_restriction(self, section: HomogPoly
                              ) -> tuple[int, HomogPoly]:
        """Order k of a section along {h = 0} and the restriction of
        section / h^k to it."""
        normal = self.normal_form(section)
        if not normal:
            raise ZeroSectionError("section vanishes modulo the relation")
        k = normal.min_degree_in(self.pivot)
        return k, normal.coefficient_of(self.pivot, k)


@dataclass
class _FinalStage:
    num_vars: int                 # 3 for a plane curve, 2 for a line
    relation: HomogPoly | None    # the plane-curve equation, if any
    point: tuple[Fraction, ...]
    chart: int
    param: int
    dep: int | None
    _branch: PowerSeries | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def branch(self, precision: int) -> PowerSeries:
        """The curve's branch at the point to the given precision.  The
        branch at a smooth point is unique, so the longest one computed so
        far serves every lower precision by truncation."""
        if self._branch is None or self._branch.precision < precision:
            self._branch = series_solve_branch(
                self.relation, self.point, precision, chart_var=self.chart,
                param_var=self.param, dep_var=self.dep)
        return self._branch.truncate(precision)


class Flag:
    """A full flag: linear step forms, a final linear form, and the point,
    together with the fixed affine chart and local parameter used at the
    point.  Chart and parameter are given as ambient variable indices and
    must survive all eliminations."""

    def __init__(self, ambient_vars: int, relation: HomogPoly | None,
                 steps: Sequence[HomogPoly], final_form: HomogPoly,
                 point: Sequence[Scalar], chart_var: int, parameter_var: int):
        self.ambient_vars = ambient_vars
        self.relation = relation
        self.steps = tuple(steps)
        self.final_form = final_form
        self.point = tuple(Fraction(v) for v in point)
        self.chart_var = chart_var
        self.parameter_var = parameter_var
        self._validate()
        self.stages, self.final_stage = self._build_stages()

    @property
    def n(self) -> int:
        """Dimension of the variety the flag lives on."""
        return len(self.steps) + 1

    def _validate(self) -> None:
        if len(self.point) != self.ambient_vars or not any(self.point):
            raise ValueError("point must be a nonzero ambient point")
        for form in (*self.steps, self.final_form):
            if form.num_vars != self.ambient_vars or form.degree != 1 or not form:
                raise ValueError("flag forms must be nonzero ambient linear forms")
            if form.evaluate(self.point):
                raise ValueError("the flag point must lie on every flag form")
        if self.relation is not None:
            if self.relation.num_vars != self.ambient_vars or not self.relation:
                raise ValueError("relation must be a nonzero ambient form")
            if self.relation.evaluate(self.point):
                raise ValueError("the flag point must lie on the hypersurface")
        if self.chart_var == self.parameter_var:
            raise ValueError("chart and parameter variables must differ")
        if self.point[self.chart_var] == 0:
            raise ValueError("point is outside the chosen affine chart")

    def _build_stages(self) -> tuple[list[_Step], _FinalStage]:
        alive = list(range(self.ambient_vars))
        relation = self.relation
        pending = list(self.steps)
        final_form = self.final_form
        point = list(self.point)
        stages: list[_Step] = []
        for index, form in enumerate(pending):
            step = _Step.build(form, relation)
            stages.append(step)
            if alive[step.pivot] in (self.chart_var, self.parameter_var):
                raise ValueError("chart or parameter variable is eliminated "
                                 "by a flag step")
            if relation is not None:
                relation = step.relation.coefficient_of(step.pivot, 0)
            pending[index + 1:] = [step.restrict(f) for f in pending[index + 1:]]
            final_form = step.restrict(final_form)
            del point[step.pivot]
            del alive[step.pivot]
        num_vars = self.ambient_vars - len(self.steps)
        if num_vars not in (2, 3):
            raise ValueError("flag does not end on a curve")
        if (num_vars == 3) != (relation is not None):
            raise ValueError("final stage must be a plane curve with a "
                             "relation or a line without one")
        chart = alive.index(self.chart_var)
        param = alive.index(self.parameter_var)
        dep = None
        if num_vars == 3:
            dep = next(i for i in range(3) if i not in (chart, param))
        final = _FinalStage(num_vars, relation, tuple(point), chart, param, dep)
        return stages, final


def order_along_hypersurface(section: HomogPoly, h: HomogPoly,
                             relation: HomogPoly | None = None) -> int:
    """Vanishing order of a section along the divisor cut by the linear form
    h on the hypersurface {relation = 0} (or on projective space)."""
    return _Step.build(h, relation).order_and_restriction(section)[0]


def restrict_section(section: HomogPoly, h: HomogPoly, k: int,
                     relation: HomogPoly | None = None) -> HomogPoly:
    """Divide a section by h^k and restrict to {h = 0}: writes
    section = h^k t + relation * g and returns t restricted to {h = 0}, in
    the variables other than the one pivoted by h.  Requires k to be the
    actual vanishing order."""
    order, restricted = _Step.build(h, relation).order_and_restriction(section)
    if order != k:
        raise ValueError(f"section has order {order} along the divisor, not {k}")
    return restricted


def _ord_unit_on_line(section: HomogPoly, stage: _FinalStage
                      ) -> tuple[int, Fraction]:
    """Order and leading coefficient of a binary form at a point of a line."""
    if not section:
        raise ZeroSectionError("zero restriction on the final line")
    if section.degree == 0:
        return 0, section.evaluate(stage.point)
    scale = stage.point[stage.chart]
    offset = stage.point[stage.param] / scale
    coeffs = [Fraction(0)] * (section.degree + 1)
    from math import comb
    for exps, c in section.terms.items():
        a = exps[stage.param]
        for i in range(a + 1):
            coeffs[i] += c * comb(a, i) * offset ** (a - i)
    for k, c in enumerate(coeffs):
        if c:
            return k, c
    raise ZeroSectionError("zero restriction on the final line")


def _ord_unit_on_curve(section: HomogPoly, stage: _FinalStage
                       ) -> tuple[int, Fraction]:
    """Order and leading series coefficient of a section at the flag point of
    the final plane curve.

    The precision starts at twice the section degree and doubles on an
    all-zero prefix; the product of the section degree and the curve degree
    bounds the order of any section not vanishing on the curve, so an
    all-zero prefix past that bound certifies a zero restriction.
    """
    curve = stage.relation
    assert curve is not None and stage.dep is not None
    if not section:
        raise ZeroSectionError("zero restriction on the final curve")
    if section.degree == 0:
        return 0, section.evaluate(stage.point)
    bound = section.degree * curve.degree
    precision = 2 * section.degree + 2
    expansion = affine_chart_expansion(section, stage.point, stage.chart,
                                       stage.param, stage.dep)
    while True:
        if precision > PRECISION_CAP:
            raise PrecisionError("order search exceeded the precision cap "
                                 f"PRECISION_CAP = {PRECISION_CAP}")
        values = eval_bivar(expansion, stage.branch(precision))
        order = values.order()
        if order is not None:
            return order, values[order]
        if precision > bound:
            raise ZeroSectionError("section vanishes identically on the "
                                   "final curve")
        precision *= 2


def ord_at_point_on_curve(section: HomogPoly, curve: HomogPoly,
                          point: Sequence[Scalar], *, chart_var: int,
                          param_var: int) -> int:
    """Vanishing order of a section of a plane curve at a smooth rational
    point, in the chosen chart and parameter."""
    dep = next(i for i in range(3) if i not in (chart_var, param_var))
    stage = _FinalStage(3, curve, tuple(Fraction(v) for v in point),
                        chart_var, param_var, dep)
    return _ord_unit_on_curve(section, stage)[0]


def valuation_with_unit(section: HomogPoly, flag: Flag
                        ) -> tuple[tuple[int, ...], Fraction]:
    """The full valuation vector together with the leading unit."""
    if not section:
        raise ZeroSectionError("zero section")
    entries = []
    current = section
    for step in flag.stages:
        k, current = step.order_and_restriction(current)
        entries.append(k)
    stage = flag.final_stage
    if stage.num_vars == 2:
        order, unit = _ord_unit_on_line(current, stage)
    else:
        order, unit = _ord_unit_on_curve(current, stage)
    entries.append(order)
    return tuple(entries), unit


def flag_valuation(section: HomogPoly, flag: Flag) -> tuple[int, ...]:
    """The valuation vector (order along each flag member, then the order at
    the point).  Additive on products of sections."""
    return valuation_with_unit(section, flag)[0]


def leading_unit(section: HomogPoly, flag: Flag) -> Fraction:
    """The scalar left after dividing out the full valuation: the first
    nonzero local series coefficient at the flag point.  Multiplicative on
    products of sections."""
    return valuation_with_unit(section, flag)[1]
