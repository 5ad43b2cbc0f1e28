"""Flags: the restriction to the final curve and the orders at the point
on it.

A flag on an n-dimensional hypersurface (or projective space) is a chain of
subvarieties cut by linear forms, ending in a rational point.  Each step
restricts the relation, the later steps and the final form to {h = 0}, by
writing the last variable in h through the others, down to a plane curve
of degree e; only that curve and the point are kept.  Projective space is
read as a hyperplane in one more variable, so its flags end on a line, the
plane curve of degree e = 1.

On that curve, in the chart at the point, t is the parameter's offset, u
the dependent coordinate's and u(t) the curve's branch.  A form of degree
d' is f = sum f_ab t^a u^b there, so along the branch it sums powers of
u(t) shifted by a, and its order is its first nonzero coefficient, at most
d'*e when it does not vanish on the curve.  The translation to the point
is triangular, so the value sets V(0), ..., V(D), the orders of the
nonzero forms of each degree modulo the curve, are the pivot sets of one
echelon (see _FinalStage.value_sets_and_rule).  When e is in V(1), a
linear form of order e at the point has divisor e*p on the curve, so
Riemann-Roch gives V(d') past d0 + 1, d0 = ceil(2g/e), and the echelon
stops there, on one branch solve.  The final form, a*t + b*u, gives only
the contact order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import Echelon
from .polynomials import Frozen, HomogPoly, Scalar, _exact
from .series import series_solve_branch


class ZeroSectionError(ValueError):
    """A form vanishes along the final curve's branch at the point, so its
    order there is undefined: the final form, when it vanishes on the
    curve, or a form of some degree that does not vanish on the curve."""


class _FinalStage(Frozen):
    def __init__(self, relation: HomogPoly, point: tuple[Fraction, ...],
                 chart: int, param: int, dep: int,
                 form: HomogPoly | None = None):
        # relation is the plane curve's equation, linear on a line; form is
        # the flag's final form restricted to the curve, when built from one
        vars(self).update(relation=relation, point=point, chart=chart,
                          param=param, dep=dep, form=form)

    @property
    def curve_degree(self) -> int:
        return self.relation.degree

    def _branch_powers(self, count: int, precision: int
                       ) -> tuple[tuple[Scalar, ...], ...]:
        """The powers u^0 .. u^(count-1) of the branch to the given
        precision, from one solve."""
        return series_solve_branch(
            self.relation, self.point, precision, chart_var=self.chart,
            param_var=self.param, dep_var=self.dep, count=count)

    def contact_order(self) -> int:
        """The order at the point of the final form on the final curve: the
        form is a*t + b*u in the chart, so that of a*t + b*u(t) to t^e."""
        # a and b are the form at unit vectors
        a, b = (self.form.evaluate([int(i == var) for i in range(3)])
                for var in (self.param, self.dep))
        u = self._branch_powers(2, self.curve_degree + 1)[1]
        for k in range(1, self.curve_degree + 1):
            if (a if k == 1 else 0) + b * u[k]:
                return k
        raise ZeroSectionError("section vanishes identically on the final "
                               "curve")

    def value_sets_and_rule(self, top: int) -> tuple[
            tuple[tuple[int, ...], ...], int | None]:
        """(V(0), ..., V(top)), and d0 when the rule gave them, else None:
        V(d') is the set of orders at the point of the nonzero forms of
        degree d' modulo the curve, increasing.

        In the chart at the point these forms are the polynomials of degree
        at most d' in t and u modulo the curve's f(t, u) (u on a line, the
        curve u = 0), of degree e, which is its own Groebner basis: in a
        degree order the monomials t^i u^(d'-i) that its leading monomial
        t^a u^b does not divide, min(d'+1, e) in each degree, are a basis.
        The row of t^i u^(d'-i) is a power of the branch shifted by i, so
        one echelon of length D*e + 1 takes these rows degree by degree,
        and V(d') is its pivot set after degree d' <= D.

        Each row is certified as it is added: it must be independent of the
        rows before it, with its pivot at most d'*e.  Else some form has
        all of its coefficients zero, as when the point lies on a component
        of a reducible curve; and f must have degree e, which fails when
        the curve contains the chart's line at infinity.

        D = top, or d0 + 1 (d0 = ceil(2g/e), g = (e-1)(e-2)/2) if top is more
        and e is in V(1): a linear form of order e at p that the echelon
        certifies nonzero on the curve C has divisor e*p by Bezout, so
        O_C(1) = O_C(e*p) and V(d') = {d'e - w : w in W(p), w <= d'e}, W(p)
        the Weierstrass semigroup, which holds all w >= 2g: past D the rule
        V(d'+1) = (V(d') + e) | {0, ..., e - 1}, checked at D, goes on."""
        e = self.curve_degree
        d0 = -(-(e - 1) * (e - 2) // e)
        # f's degree-e part is the curve's x_chart-free part, shift-invariant
        b = max((exps[self.dep] for exps in self.relation.terms
                 if not exps[self.chart]), default=None)
        if b is None:
            raise ZeroSectionError(
                "the final curve contains the chart's line at infinity, so "
                f"some form of degree d' = {e - 1} vanishes on its branch at "
                "the point without vanishing on it")
        # t^a u^b leads f in a degree order with u above t; the rows t^i
        # u^(d'-i) read u^0 .. u^D if a > 0, u^0 .. u^(e-1) if a = 0
        a = e - b
        for reach in (d0 + 1, top) if top > d0 + 1 else (top,):
            precision = reach * e + 1
            powers = self._branch_powers(
                reach + 1 if a else min(reach + 1, e), precision)
            echelon, sets = Echelon(precision), []
            for d in range(reach + 1):
                for i in range(d + 1):
                    if i >= a and d - i >= b:
                        continue
                    row = (0,) * i + powers[d - i][:precision - i]
                    if not echelon.add(row) or echelon.rows[-1][1] > d * e:
                        raise ZeroSectionError(
                            f"some form of degree d' = {d} vanishes on the "
                            "final curve's branch at the point without "
                            "vanishing on the curve")
                sets.append(tuple(echelon.pivots()))
            if reach == top:
                return tuple(sets), None
            if e not in sets[1]:
                continue
            rule = sets[:-1]
            while len(rule) <= top:
                rule.append((*range(e), *(v + e for v in rule[-1])))
            if rule[reach] == sets[reach]:
                return tuple(rule), d0


class Flag:
    """A full flag: linear step forms, a final linear form, and the point.
    The chart at the point is the first surviving coordinate nonzero there;
    the dependent coordinate has a nonzero partial there (Euler's relation
    gives one at a smooth point), so the parameter is transversal."""

    def __init__(self, ambient_vars: int, relation: HomogPoly | None,
                 steps: Sequence[HomogPoly], final_form: HomogPoly,
                 point: Sequence[Scalar]):
        self.ambient_vars = ambient_vars
        self.relation = self.checked_relation(relation, ambient_vars)
        self.steps = tuple(self.checked_form(f, ambient_vars) for f in steps)
        self.final_form = self.checked_form(final_form, ambient_vars)
        self.point = self.checked_point(point, ambient_vars, relation,
                                        (*self.steps, self.final_form))
        self.final_stage, self.chart_var, self.parameter_var = (
            self._build_final_stage())

    @property
    def n(self) -> int:
        """Dimension of the variety the flag lives on."""
        return len(self.steps) + 1

    @staticmethod
    def checked_relation(relation: HomogPoly | None,
                         ambient_vars: int) -> HomogPoly | None:
        """The hypersurface's equation, a nonzero ambient form, or None on
        projective space."""
        if relation is not None and (relation.num_vars != ambient_vars
                                     or not relation):
            raise ValueError("relation must be a nonzero ambient form")
        return relation

    @staticmethod
    def checked_form(form: HomogPoly, ambient_vars: int) -> HomogPoly:
        """A step or final form: a nonzero linear ambient form."""
        if form.num_vars != ambient_vars or form.degree != 1 or not form:
            raise ValueError("flag forms must be nonzero ambient linear forms")
        return form

    @staticmethod
    def checked_point(point: Sequence[Scalar], ambient_vars: int,
                      relation: HomogPoly | None,
                      forms: Sequence[HomogPoly]) -> tuple[Fraction, ...]:
        """The point, exact: a nonzero ambient point on every flag form and
        on the hypersurface."""
        point = tuple(Fraction(_exact(v)) for v in point)
        if len(point) != ambient_vars or not any(point):
            raise ValueError("point must be a nonzero ambient point")
        if any(form.evaluate(point) for form in forms):
            raise ValueError("the flag point must lie on every flag form")
        if relation is not None and relation.evaluate(point):
            raise ValueError("the flag point must lie on the hypersurface")
        return point

    def _build_final_stage(self) -> tuple[_FinalStage, int, int]:
        """The final stage, and its chart and parameter as ambient indices.
        P^n is read as the hyperplane {x_N = 0} in one more variable: the
        steps, the final form and the point get a zero coordinate x_N, and
        the flag ends on a line in the plane.  x_N is never the chart, being
        0 at the point, and always the dependent coordinate, being the one
        with a nonzero partial.
        Each step restricts the relation, the later steps and the final
        form to {h = 0}: the pivot is the last variable in h = sum c_i x_i,
        and on {h = 0} x_pivot is -(sum_{i != pivot} c_i x_i)/c_pivot, the
        y^0 part of x_pivot written through y = h."""
        num_vars, relation = self.ambient_vars, self.relation
        forms = [*self.steps, self.final_form]
        point = list(self.point)
        if relation is None:
            num_vars += 1
            relation = HomogPoly.variable(num_vars, num_vars - 1)
            forms = [HomogPoly(num_vars, 1, {(*exps, 0): c for exps, c
                                             in form.terms.items()})
                     for form in forms]
            point.append(Fraction(0))
        alive = list(range(num_vars))
        for index in range(len(self.steps)):
            h, *forms = forms
            if not h:
                raise ValueError(f"flag step {index + 1} vanishes on the "
                                 "flag member before it")
            coeffs = [h.terms.get(tuple(int(j == i) for j in range(
                h.num_vars)), Fraction(0)) for i in range(h.num_vars)]
            pivot = max(i for i, c in enumerate(coeffs) if c)
            on_h = HomogPoly.linear_form(
                [0 if i == pivot else -c / coeffs[pivot]
                 for i, c in enumerate(coeffs)])

            def restrict(poly: HomogPoly) -> HomogPoly:
                return poly.substitute(pivot, on_h).coefficient_of(pivot, 0)
            relation = restrict(relation)
            if not relation:
                raise ValueError("a flag step divides the relation")
            forms = [restrict(f) for f in forms]
            del point[pivot], alive[pivot]
        if len(point) != 3:
            raise ValueError("flag does not end on a curve")
        # the point is nonzero off the pivots, which the other coordinates
        # fix; the dependent coordinate, with a nonzero partial, sorts last
        chart = next(i for i, v in enumerate(point) if v)
        param, dep = sorted((i for i in range(3) if i != chart), key=lambda i:
                            bool(relation.partial(i).evaluate(point)))
        final = _FinalStage(relation, tuple(point), chart, param, dep,
                            forms[0])
        return final, alive[chart], alive[param]
