"""Case studies: explicit flagged varieties on which the value semigroup and
body computations run, plus the exact flag verifier.

Shipped cases (name, ambient equation, flag):

  p2                projective plane, coordinate flag
  p3                projective 3-space, coordinate flag
  quadric_surface   {x*w - y*z = 0} in P^3; the flag member is the smooth
                    conic plane section {x = w}, the point is (0:1:0:0) and
                    the final form is the tangent plane {z = 0}, which meets
                    the conic in that single point with contact order 2.
  fermat_cubic      {x^3 + y^3 + z^3 + w^3 = 0} in P^3; the flag member is
                    the smooth plane cubic {w = 0}, the point is the rational
                    flex (1:-1:0:0) and the final form is the flex tangent
                    plane {x + y = 0}, contact order 3.
  quadric_threefold {x*w - y*z + v^2 = 0} in P^4, cut by {v = 0} down to the
                    quadric surface and then flagged as quadric_surface.

A case is its flag and the scale c of the very ample class c*H.  The
dimension n, the index r and the degree d are read off the flag: n is the
number of flag steps plus one, d the degree of the relation (1 on P^n) and
r the number of ambient variables minus that degree (minus 0 on P^n).  So
are the affine chart and the local parameter at the point (see Flag).

verify_flag checks each case with exact arithmetic: the ambient
hypersurface and the final curve are smooth (no common projective zero of
the partials, a full-rank resultant certificate), and the final form meets
the final curve in the single flag point (the order at the point of its
restriction to the final curve equals the full intersection number d; a
final form that contains a flag member restricts to zero and fails).  That
the point lies on every flag member is checked when the flag is built.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .convex import scaled_simplex
from .polynomials import Frozen, HomogPoly, has_projective_common_zero
from .valuation import Flag

CASE_NAMES = ("p2", "p3", "quadric_surface", "fermat_cubic",
              "quadric_threefold")


class CaseStudy:
    """A flagged variety (P^n, or the hypersurface {flag.relation = 0}) and
    the scale c >= 1 of its very ample class c*H.  The flag gives the
    dimension n, the degree d = H^n and the index r, with -K = r*H."""

    def __init__(self, name: str, flag: Flag, c: int):
        if type(c) is not int:
            raise TypeError(f"c must be an int, not {c!r}")
        if c < 1:
            raise ValueError(f"c must be a positive integer, not {c}")
        self.name, self.flag, self.c = name, flag, c

    @property
    def n(self) -> int:
        return self.flag.n

    @property
    def d(self) -> int:
        return self.flag.final_stage.curve_degree

    @property
    def r(self) -> int:
        relation = self.flag.relation
        return self.flag.ambient_vars - (relation.degree if relation else 0)

    def expected_body(self):
        return scaled_simplex(self.n, self.c, self.d)


def make_case(name: str, c: int = 1) -> CaseStudy:
    """Construct a shipped case study with its hard-coded verified flag."""
    if name == "p2":
        x0, x1, x2 = (HomogPoly.variable(3, i) for i in range(3))
        flag = Flag(3, None, [x1], x2, (1, 0, 0))
    elif name == "p3":
        x0, x1, x2, x3 = (HomogPoly.variable(4, i) for i in range(4))
        flag = Flag(4, None, [x1, x2], x3, (1, 0, 0, 0))
    elif name == "quadric_surface":
        relation = HomogPoly(4, 2, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
        step = HomogPoly.linear_form([1, 0, 0, -1])       # the plane {x = w}
        final = HomogPoly.variable(4, 2)                  # tangent plane {z = 0}
        flag = Flag(4, relation, [step], final, (0, 1, 0, 0))
    elif name == "fermat_cubic":
        relation = HomogPoly(4, 3, {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1,
                                    (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
        step = HomogPoly.variable(4, 3)                   # the plane {w = 0}
        final = HomogPoly.linear_form([1, 1, 0, 0])       # flex tangent {x+y=0}
        flag = Flag(4, relation, [step], final, (1, -1, 0, 0))
    elif name == "quadric_threefold":
        relation = HomogPoly(5, 2, {(1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0): -1,
                                    (0, 0, 0, 0, 2): 1})
        steps = [HomogPoly.variable(5, 4),                # the plane {v = 0}
                 HomogPoly.linear_form([1, 0, 0, -1, 0])]
        final = HomogPoly.variable(5, 2)
        flag = Flag(5, relation, steps, final, (0, 1, 0, 0, 0))
    else:
        raise ValueError(f"unknown case study {name!r}")
    return CaseStudy(name, flag, c)


def make_negative_control(c: int = 1) -> CaseStudy:
    """The quadric surface flag with a non-tangent final plane {x = 0}: the
    point still lies on it, but the contact order with the conic is 1 < 2,
    so the single-point condition fails.  Shipped for verifier tests."""
    good = make_case("quadric_surface", c).flag
    flag = Flag(4, good.relation, list(good.steps), HomogPoly.variable(4, 0),
                good.point)
    return CaseStudy("quadric_surface_negative_control", flag, c)


# -- flag verification -------------------------------------------------------


class FlagCheck(Frozen):
    def __init__(self, name: str, passed: bool, detail: str):
        vars(self).update(name=name, passed=passed, detail=detail)


class FlagReport(Frozen):
    def __init__(self, case_name: str, checks: tuple[FlagCheck, ...]):
        vars(self).update(case_name=case_name, checks=checks)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def __str__(self) -> str:
        lines = [f"flag verification for {self.case_name}:"]
        for check in self.checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(f"  [{status}] {check.name}: {check.detail}")
        verdict = "all checks passed" if self.passed else "verification FAILED"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _smooth_hypersurface(form: HomogPoly) -> bool:
    partials = [form.partial(i) for i in range(form.num_vars)]
    return not has_projective_common_zero(partials)


def verify_flag(case: CaseStudy) -> FlagReport:
    """Exact verification report for a case study's flag."""
    flag = case.flag
    checks: list[FlagCheck] = []

    if flag.relation is not None:
        smooth = _smooth_hypersurface(flag.relation)
        checks.append(FlagCheck(
            "ambient hypersurface smooth", smooth,
            "partials of the relation have no common projective zero"
            if smooth else "the relation defines a singular hypersurface"))

    stage = flag.final_stage
    smooth = _smooth_hypersurface(stage.relation)
    checks.append(FlagCheck(
        "final curve smooth", smooth,
        f"plane curve of degree {stage.relation.degree}: partial "
        "derivatives have no common projective zero (full-rank resultant "
        "certificate)" if smooth else "the final flag curve is singular"))

    if not stage.form:
        ok, detail = False, ("the final form contains a flag member: its "
                             "restriction to the final curve is zero")
    else:
        try:
            order = stage.contact_order()
        except ValueError as exc:
            ok, detail = False, f"the final form's order at the point: {exc}"
        else:
            ok = order == case.d
            detail = ("the final form meets the final curve at the point "
                      f"with contact order {order} against required "
                      f"d = {case.d}")
    checks.append(FlagCheck("single-point contact", ok, detail))

    return FlagReport(case.name, tuple(checks))


# -- custom fixtures ---------------------------------------------------------


def _poly_to_obj(poly: HomogPoly | None):
    if poly is None:
        return None
    return [[f"{c.numerator}/{c.denominator}", list(exps)]
            for exps, c in poly.sorted_terms()]


def _checked(value, types: tuple[type, ...] = (int,)):
    """The JSON value itself when its type is one of the given types: a
    bool is no int here, and no float is ever read."""
    if type(value) not in types:
        raise ValueError(f"{value!r} is not of type "
                         + " or ".join(t.__name__ for t in types))
    return value


def _rational(value) -> Fraction:
    """A coefficient or coordinate: an int, or a string such as "-3/4"."""
    if type(value) is str and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", value):
        raise ValueError(f"{value!r} is not an integer or a fraction")
    return Fraction(_checked(value, (int, str)))


def _ambient_vars(value) -> int:
    """The number of ambient variables: an int, at least 2 (P^1 and up)."""
    if _checked(value) < 2:
        raise ValueError(f"{value} is less than 2")
    return value


def _stem(value) -> str:
    """A name, which output file names begin with: a plain file-name stem."""
    if re.fullmatch(r"[A-Za-z0-9_-]+", _checked(value, (str,))):
        return value
    raise ValueError(f"{value!r} is not a plain file-name stem")


def _poly_from_obj(obj, num_vars: int) -> HomogPoly:
    if obj == []:
        raise ValueError("no terms")
    terms = {}
    for coeff, exps in obj:
        exps = tuple(map(_checked, exps))
        if len(exps) != num_vars:
            raise ValueError("exponent tuple of wrong length")
        terms[exps] = terms.get(exps, Fraction(0)) + _rational(coeff)
    degrees = {sum(e) for e in terms}
    if len(degrees) != 1:
        raise ValueError("terms are not homogeneous")
    return HomogPoly(num_vars, degrees.pop(), terms)


def case_study_to_json(case: CaseStudy) -> str:
    payload = {
        "name": case.name,
        "ambient_vars": case.flag.ambient_vars,
        "c": case.c,
        "relation": _poly_to_obj(case.flag.relation),
        "steps": [_poly_to_obj(s) for s in case.flag.steps],
        "final_form": _poly_to_obj(case.flag.final_form),
        "point": [f"{v.numerator}/{v.denominator}" for v in case.flag.point],
    }
    return json.dumps(payload, indent=2) + "\n"


def case_study_from_json(text: str) -> CaseStudy:
    """Load a custom hypersurface case study.  The caller is expected to run
    verify_flag on the result before using it.  The flag determines n, r, d,
    chart_var and parameter_var; a fixture may still carry them, but only
    with the derived values.  Every key that case_study_to_json writes is
    required; "relation" is null on P^n.
    Integer fields and exponents are JSON integers, coefficients and
    coordinates integers or strings such as "-3/4"; nothing is coerced."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a fixture is a JSON object")

    def entry(key: str, parse, *, listed: bool = False):
        """data[key] parsed, with every failure naming the key."""
        if key not in data:
            raise ValueError(f"missing key {key!r}")
        if listed and not isinstance(data[key], list):
            raise ValueError(f"{key!r} must be a list")
        try:
            return parse(data[key])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {key!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed {key!r}: {exc}") from None

    nv = entry("ambient_vars", _ambient_vars)

    def poly(obj) -> HomogPoly:
        return _poly_from_obj(obj, nv)

    relation = None
    if entry("relation", lambda obj: obj) is not None:    # null on P^n
        relation = entry("relation", lambda obj: Flag.checked_relation(
            poly(obj), nv), listed=True)
    def form(obj) -> HomogPoly:
        return Flag.checked_form(poly(obj), nv)

    steps = entry("steps", lambda objs: list(map(form, objs)), listed=True)
    final = entry("final_form", form, listed=True)
    point = entry("point", lambda objs: Flag.checked_point(
        tuple(map(_rational, objs)), nv, relation, (*steps, final)),
        listed=True)
    flag = Flag(nv, relation, steps, final, point)
    case = CaseStudy(entry("name", _stem), flag, entry("c", _checked))
    derived = {"n": case.n, "r": case.r, "d": case.d,
               "chart_var": flag.chart_var, "parameter_var": flag.parameter_var}
    for key, value in derived.items():
        if key in data and entry(key, _checked) != value:
            raise ValueError(f"the fixture carries {key} = {data[key]!r}, "
                             f"but its flag gives {key} = {value}")
    return case
