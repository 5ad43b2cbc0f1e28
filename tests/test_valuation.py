import math
import random
from fractions import Fraction

import pytest

from okbody import make_case, series, valuation
from okbody.linalg import Echelon
from okbody.okounkov import body_estimate, semigroup
from okbody.polynomials import HomogPoly, graded_monomials
from okbody.series import (PRECISION_CAP, PrecisionError, branch_equation,
                           series_solve_branch)
from okbody.valuation import Flag, ZeroSectionError
from okbody.varieties import (CASE_NAMES, CaseStudy, make_negative_control,
                              verify_flag)

from oracles import (all_levels, final_series, form_along_branch,
                     linear_solve, oracle_value_set, per_degree_value_set,
                     riemann_roch_orders, row_reduce, standard_basis)

X, Y, Z, W = (HomogPoly.variable(4, i) for i in range(4))
FERMAT = X ** 3 + Y ** 3 + Z ** 3 + W ** 3
PLANE_CUBIC = (HomogPoly.variable(3, 0) ** 3 + HomogPoly.variable(3, 1) ** 3
               + HomogPoly.variable(3, 2) ** 3)


# -- restriction -----------------------------------------------------------------


def test_restrict_order_zero():
    # x + y through {w = 0} on the Fermat cubic is x + y in x, y, z
    flag = Flag(4, FERMAT, [W], X + Y, (1, -1, 0, 0))
    assert flag.final_stage.form == HomogPoly.linear_form([1, 1, 0])


def test_step_dividing_the_relation_rejected():
    with pytest.raises(ValueError, match="divides the relation"):
        Flag(4, W * FERMAT, [W], X + Y, (1, -1, 0, 0))


# -- invariance under projective changes of coordinates ----------------------------


def _pull_back(poly, matrix):
    """poly(A x) for the integer matrix A."""
    rows = [HomogPoly.linear_form(row) for row in matrix]
    out = HomogPoly(poly.num_vars, poly.degree, {})
    for exps, c in poly.terms.items():
        term = HomogPoly.constant(poly.num_vars, c)
        for row, e in zip(rows, exps):
            term = term * row ** e
        out = out + term
    return out


def _transformed_case(case, matrix):
    """The case in coordinates x' with x = A x'."""
    columns = [[row[j] for row in matrix] for j in range(4)]
    point = linear_solve(columns, case.flag.point)
    relation = _pull_back(case.flag.relation, matrix)
    steps = [_pull_back(s, matrix) for s in case.flag.steps]
    final = _pull_back(case.flag.final_form, matrix)
    return CaseStudy(case.name, Flag(4, relation, steps, final, point),
                     case.c)


def _coordinate_changes(case, count=3):
    """The case in the coordinates of the first ``count`` invertible ones
    of 40 seeded integer matrices."""
    rng = random.Random(41)
    moved = []
    for _ in range(40):
        matrix = [[rng.randrange(-2, 3) for _ in range(4)] for _ in range(4)]
        if len(row_reduce(matrix)[1]) == 4:
            moved.append(_transformed_case(case, matrix))
            if len(moved) == count:
                break
    return moved


def test_value_sets_invariant_under_coordinate_change(quadric, fermat):
    for case in (quadric, fermat):
        expected = semigroup(case, "complete", 3)
        moved_cases = _coordinate_changes(case)
        for moved in moved_cases:
            assert verify_flag(moved).passed
            computed = semigroup(moved, "complete", 3)
            assert all_levels(computed) == all_levels(expected)
            assert body_estimate(computed) == body_estimate(expected)
        assert len(moved_cases) == 3
        assert any(len(m.flag.steps[0].terms) >= 3 for m in moved_cases)


def test_chart_and_parameter_read_off_the_flag():
    # the ambient indices (chart_var, parameter_var) that the flags derive
    expected = {"p2": (0, 2), "p3": (0, 3), "quadric_surface": (1, 0),
                "fermat_cubic": (0, 2), "quadric_threefold": (1, 0)}
    flags = {name: make_case(name).flag for name in CASE_NAMES}
    flags["negative_control"] = make_negative_control().flag
    expected["negative_control"] = (1, 0)
    assert {name: (flag.chart_var, flag.parameter_var)
            for name, flag in flags.items()} == expected


def _chart_choices(stage):
    """Every chart at the point with a transversal parameter, as final
    stages: on a curve, the choices the branch solver accepts."""
    for chart, value in enumerate(stage.point):
        if not value:
            continue
        others = [i for i in range(len(stage.point)) if i != chart]
        for param, dep in (others, others[::-1]):
            try:
                branch_equation(stage.relation, stage.point, chart_var=chart,
                                param_var=param, dep_var=dep)
            except ValueError:
                continue
            yield valuation._FinalStage(stage.relation, stage.point, chart,
                                        param, dep, stage.form)


def test_orders_do_not_depend_on_the_chart(quadric, fermat):
    # the chart and the parameter are computing aids: every admissible
    # choice reads the same value sets and contact order as the derived one
    cases = [make_case(name) for name in CASE_NAMES]
    cases += _coordinate_changes(quadric) + _coordinate_changes(fermat)
    alternatives = 0
    for case in cases:
        stage = case.flag.final_stage
        expected = (stage.value_sets_and_rule(3)[0], stage.contact_order())
        choices = list(_chart_choices(stage))
        assert stage in choices
        for choice in choices:
            assert (choice.value_sets_and_rule(3)[0],
                    choice.contact_order()) == expected
        alternatives += len(choices) - 1
    assert alternatives >= 20


# -- vanishing order at a point on a curve ----------------------------------------


def _count_branch_solves(monkeypatch, calls=None) -> list[int]:
    """The precisions at which the final stages solve their branch; with
    ``calls``, each call's (precision, count) is recorded there too."""
    computed = []

    def counting(curve, point, precision, **kwargs):
        computed.append(precision)
        if calls is not None:
            calls.append((precision, kwargs["count"]))
        return series_solve_branch(curve, point, precision, **kwargs)

    monkeypatch.setattr(valuation, "series_solve_branch", counting)
    return computed


def test_branch_computed_once_per_precision(monkeypatch):
    case = make_case("quadric_surface")
    expected = {m: oracle_value_set(case, standard_basis(case, m))
                for m in range(1, 5)}
    computed = _count_branch_solves(monkeypatch)
    fresh = make_case("quadric_surface")
    assert all_levels(semigroup(fresh, "complete", 4)) == expected
    # every degree reads the powers of the branch at full precision
    assert len(computed) == 1


def _random_form(rng, num_vars, degree):
    monos = graded_monomials(num_vars, degree)
    terms = {m: rng.randrange(1, 4)
             for m in rng.sample(monos, min(4, len(monos)))}
    return HomogPoly(num_vars, degree, terms)


@pytest.mark.parametrize("stage", [
    make_case("quadric_surface").flag.final_stage,
    make_case("fermat_cubic").flag.final_stage,
    # the flex (1:-1:0) with its chart coordinate scaled to 2
    valuation._FinalStage(PLANE_CUBIC, (Fraction(2), Fraction(-2),
                                        Fraction(0)), 0, 2, 1),
], ids=["quadric", "fermat", "scaled_flex"])
def test_final_series_matches_chart_expansion(stage):
    # the oracles' series of a form along the library's branch, by their
    # own translation and truncated products, equals sympy's form along
    # the branch; the degrees go up and down
    rng = random.Random(7)
    for degree in (3, 1, 5, 0, 2):
        form = _random_form(rng, 3, degree)
        precision = degree * stage.relation.degree + 1
        branch = series_solve_branch(stage.relation, stage.point, precision,
                                     chart_var=stage.chart,
                                     param_var=stage.param, dep_var=stage.dep,
                                     count=2)[1]
        assert final_series(stage, form)[0] == form_along_branch(
            form, stage.point, branch, stage.chart, stage.param, stage.dep)


LINE = HomogPoly.variable(3, 2)   # the line {x2 = 0} in the plane
LINE_POINT = (Fraction(3), Fraction(2), Fraction(0))


def test_final_series_on_a_line():
    # at (3:2:0) on {x2 = 0}, in the chart x0 = 1, the branch is u = 0, so
    # a form is f(1, 2/3 + t, 0): its terms in x2 drop out
    stage = valuation._FinalStage(LINE, LINE_POINT, 0, 1, 2)
    rng = random.Random(8)
    for degree in (2, 0, 4, 1):
        form = _random_form(rng, 3, degree)
        expected = [sum((c * math.comb(e[1], j) * Fraction(2, 3) ** (e[1] - j)
                         for e, c in form.terms.items()
                         if e[1] >= j and not e[2]), Fraction(0))
                    for j in range(degree + 1)]
        assert final_series(stage, form)[0] == expected


def test_final_stage_values():
    # built without a form, a final stage reads None there; stages with
    # equal fields are equal
    line = valuation._FinalStage(LINE, LINE_POINT, 0, 1, 2)
    assert line.form is None
    assert line == valuation._FinalStage(LINE, LINE_POINT, 0, 1, 2, None)
    assert line != valuation._FinalStage(LINE, LINE_POINT, 1, 0, 2)
    stage = make_case("quadric_surface").flag.final_stage
    assert stage == make_case("quadric_surface").flag.final_stage
    assert stage.form == HomogPoly.variable(3, 2)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_final_value_sets_match_riemann_roch(name):
    # a line (p2, p3), a conic (the quadrics) and a cubic at a flex
    stage = make_case(name).flag.final_stage
    for degree, orders in enumerate(stage.value_sets_and_rule(12)[0]):
        assert orders == riemann_roch_orders(stage.curve_degree,
                                             degree), degree


@pytest.mark.parametrize("name", CASE_NAMES)
def test_nested_value_sets_match_per_degree_echelon(name):
    # the standard rows of one echelon give each degree's pivots, the same
    # as every monomial of that degree alone, whatever the top degree and
    # however often the same stage is asked
    reference = make_case(name).flag.final_stage
    expected = tuple(per_degree_value_set(reference, d) for d in range(13))
    stage = make_case(name).flag.final_stage
    for top in (12, 0, 5, 12):
        assert stage.value_sets_and_rule(top)[0] == expected[:top + 1], top


def _rule_degree(stage):
    """d0 = ceil(2g/e), g = (e-1)(e-2)/2 the genus of the final curve."""
    e = stage.curve_degree
    return math.ceil((e - 1) * (e - 2) / e)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_rule_matches_the_full_echelon_to_the_cap(name):
    # a full echelon of length top*e + 1 would reach the cap PRECISION_CAP
    # = 512 at top = 511 // e; to there the rule's value sets are those
    # that Riemann-Roch predicts, and each c reads them through semigroup
    # to c*M <= top
    stage = make_case(name).flag.final_stage
    top = (PRECISION_CAP - 1) // stage.curve_degree
    predicted = tuple(riemann_roch_orders(stage.curve_degree, degree)
                      for degree in range(top + 1))
    assert stage.value_sets_and_rule(top) == (predicted, _rule_degree(stage))
    for c in (1, 2, 3):
        sg = semigroup(make_case(name, c), "complete", top // c)
        assert sg.curve == predicted[:c * (top // c) + 1], c
        assert sg.rule_from is not None, c


@pytest.mark.parametrize("name", CASE_NAMES)
def test_rule_past_the_old_cap_matches_riemann_roch(name):
    # top = 300 needs precision 301*e past the cap on the full echelon;
    # the rule's echelon stops at d0 + 1
    stage = make_case(name).flag.final_stage
    sets, rule_from = stage.value_sets_and_rule(300)
    assert rule_from == _rule_degree(stage)
    assert sets == tuple(riemann_roch_orders(stage.curve_degree, degree)
                         for degree in range(301))


def test_the_full_echelon_past_the_old_cap_names_the_cap(off_flex_cubic):
    # with no rule, top = 300 needs precision top*e + 1 = 901 on the full
    # echelon, past the cap; top = 171 needs 514, the first past it; the
    # branch solver refuses it and names the cap
    stage = off_flex_cubic.flag.final_stage
    for top in (300, 171):
        with pytest.raises(PrecisionError, match=rf"precision {top * 3 + 1} "
                           r"exceeds the cap PRECISION_CAP = 512"):
            stage.value_sets_and_rule(top)[0]


@pytest.mark.parametrize("name", CASE_NAMES)
def test_value_sets_are_prefixes_around_the_rule_degree(name):
    # below, at and past d0 + 1, where the echelon hands over to the rule,
    # a lower top gives a prefix of a higher one
    stage = make_case(name).flag.final_stage
    d0 = _rule_degree(stage)
    longest = stage.value_sets_and_rule(40)[0]
    for top in range(max(d0 - 1, 0), d0 + 4):
        assert stage.value_sets_and_rule(top)[0] == longest[:top + 1], top


def test_cubic_off_the_flex_falls_back_to_the_full_echelon(off_flex_cubic):
    # V(1) = {0, 1, 2} lacks e = 3, as no line meets the cubic at the point
    # alone, so the echelon runs to the top and no rule is recorded; d'H -
    # 3d'p is trivial exactly for even d', as H - 3p has order 2, so 3d' is
    # an order of degree d' for even d' and 3d' - 1 for odd d'
    stage = off_flex_cubic.flag.final_stage
    sets, rule_from = stage.value_sets_and_rule(12)
    assert rule_from is None
    assert sets == tuple(per_degree_value_set(stage, d) for d in range(13))
    assert sets[1] == (0, 1, 2)
    for degree in range(1, 13):
        top = 3 * degree
        expected = ((*range(top - 1), top) if degree % 2 == 0
                    else tuple(range(top)))
        assert sets[degree] == expected, degree


@pytest.mark.parametrize("name", CASE_NAMES + ("negative_control",))
def test_value_sets_do_not_depend_on_the_final_form(name, monkeypatch):
    # the valuation reads the curve and the point alone: seeded integer
    # lines through the point, a*p = 0, give the shipped flag's value sets
    # and rule from one branch solve at (d0 + 1)*e + 1, 2 on a line; the
    # negative control's are the quadric surface's, on the same conic
    shipped = make_case("quadric_surface" if name == "negative_control"
                        else name).flag.final_stage
    expected = shipped.value_sets_and_rule(300)
    flag = (make_negative_control() if name == "negative_control"
            else make_case(name)).flag
    point = [int(v) for v in flag.point]
    pivot = next(i for i, v in enumerate(point) if v)
    rng = random.Random(30)
    stages = []
    while len(stages) < 3:
        r = [rng.randrange(-4, 5) for _ in point]
        dot = sum(a * v for a, v in zip(r, point))
        coeffs = [point[pivot] * a - (i == pivot) * dot
                  for i, a in enumerate(r)]
        if any(coeffs):
            stages.append(Flag(flag.ambient_vars, flag.relation, flag.steps,
                               HomogPoly.linear_form(coeffs),
                               flag.point).final_stage)
    e = shipped.curve_degree
    if e > 1:
        assert any(stage.contact_order() < e for stage in stages)
    computed = _count_branch_solves(monkeypatch)
    for stage in stages:
        computed.clear()
        assert stage.value_sets_and_rule(300) == expected, stage.form
        assert computed == [(_rule_degree(stage) + 1) * e + 1], stage.form


def test_a_failed_rule_check_falls_back_to_the_full_echelon(monkeypatch):
    # an echelon whose V(d0 + 1) is not the rule's step from V(d0), here
    # with the top order of V(2) dropped at the cubic's rule length
    # (d0 + 1)*e + 1 = 7, sends value_sets on to the full echelon (length
    # 16 at top 5), which records no rule
    pivots = Echelon.pivots

    def dropping(echelon):
        found = pivots(echelon)
        dropped = (echelon.length, echelon.rank) == (7, 6)
        return found[:-1] if dropped else found
    monkeypatch.setattr(Echelon, "pivots", dropping)
    stage = make_case("fermat_cubic").flag.final_stage
    assert stage.value_sets_and_rule(5) == (
        tuple(riemann_roch_orders(3, degree) for degree in range(6)), None)


def test_semigroup_solves_the_branch_once(monkeypatch):
    # semigroup asks for every degree in one call; at a flex of the cubic
    # (e = 3, g = 1, d0 = 1) the echelon reads the powers of the branch to
    # degree d0 + 1, precision (d0 + 1)*e + 1 = 7, and the rule the rest
    computed = _count_branch_solves(monkeypatch)
    semigroup(make_case("fermat_cubic"), "complete", 12)
    assert computed == [7]


def test_branch_powers_solve_at_the_precision_asked(monkeypatch):
    # each value_sets call solves the branch once and keeps nothing for the
    # next call: at precision top*e + 1 for top <= d0 + 1 = 2, as the
    # echelon runs to top, and at (d0 + 1)*e + 1 = 7 past it, on the rule
    computed = _count_branch_solves(monkeypatch)
    stage = make_case("fermat_cubic").flag.final_stage
    for top in (2, 1, 5, 12, 3):
        stage.value_sets_and_rule(top)[0]
    assert computed == [7, 4, 7, 7, 7]


def test_branch_powers_of_the_fallback(monkeypatch, off_flex_cubic):
    # the echelon first runs to d0 + 1 on one solve at (d0 + 1)*e + 1; off
    # the cubic's flex (d0 = 1) V(1) lacks e = 3, so it then runs to top on
    # a second solve at top*e + 1, while the negative control's conic (d0 =
    # 0) has 2 in V(1) and takes the rule off its one solve at precision 3
    computed = _count_branch_solves(monkeypatch)
    stage = off_flex_cubic.flag.final_stage
    for top in (5, 12):
        assert stage.value_sets_and_rule(top)[1] is None
    assert computed == [7, 16, 7, 37]
    computed.clear()
    control = make_negative_control().flag.final_stage
    assert control.value_sets_and_rule(5)[1] == 0
    assert computed == [3]


def test_reading_only_u0_solves_nothing(monkeypatch):
    # V(0) reads u^0 alone, so the solver is asked for one power: it checks
    # the curve at the point and solves nothing
    calls = []
    _count_branch_solves(monkeypatch, calls)
    stage = make_case("fermat_cubic").flag.final_stage
    assert stage.value_sets_and_rule(0)[0] == ((0,),)
    assert calls == [(1, 1)]
    with pytest.raises(ValueError, match="does not lie on the curve"):
        series_solve_branch(PLANE_CUBIC, (1, 1, 1), 4, chart_var=0,
                            param_var=2, dep_var=1, count=1)


def test_value_sets_refuse_a_curve_through_the_chart_line():
    # x0 (x0 x2 - x1^2) contains the line {x0 = 0}, so its f(t, u) = u - t^2
    # lacks degree e = 3, and the conic's equation, of degree 2, vanishes
    # on the branch at (1:0:0) without vanishing on the curve
    x0, x1, x2 = (HomogPoly.variable(3, i) for i in range(3))
    curve = x0 * (x0 * x2 - x1 ** 2)
    for top in (2, 3, 7):
        stage = valuation._FinalStage(curve, (Fraction(1), Fraction(0),
                                              Fraction(0)), 0, 1, 2)
        with pytest.raises(ZeroSectionError, match="d' = 2"):
            stage.value_sets_and_rule(top)[0]


def _flex_contact(final, curve=PLANE_CUBIC):
    """The contact order at the flex (1:-1:0) of the plane curve, the
    cubic x^3 + y^3 + z^3 by default, of a final form through it, read by
    the final stage of the flag with no steps, in the chart x = 1 with
    parameter z."""
    flag = Flag(3, curve, [], final, (1, -1, 0))
    return flag.final_stage.contact_order()


def test_ord_of_coordinate_at_flex():
    assert _flex_contact(HomogPoly.variable(3, 2)) == 1


def test_ord_of_flex_tangent():
    assert _flex_contact(HomogPoly.linear_form([1, 1, 0])) == 3


def test_ord_certified_at_double_precision():
    tangent = HomogPoly.linear_form([1, 1, 0])
    for precision in (8, 16):
        u = series_solve_branch(PLANE_CUBIC, (1, -1, 0), precision,
                                chart_var=0, param_var=2, dep_var=1,
                                count=2)[1]
        series = form_along_branch(tangent, (1, -1, 0), u, 0, 2, 1)
        assert next(j for j, c in enumerate(series) if c) == 3


@pytest.mark.parametrize("curve, point, chart, param, message", [
    (PLANE_CUBIC, (1, 1, 1), 0, 2, "not lie on the curve"),
    (HomogPoly.variable(3, 1) ** 2 * HomogPoly.variable(3, 2)
     - HomogPoly.variable(3, 0) ** 3
     - HomogPoly.variable(3, 0) ** 2 * HomogPoly.variable(3, 2),
     (0, 0, 1), 2, 0, "singular"),
    (FERMAT, (1, -1, 0, 0), 0, 2, "three variables"),
    (PLANE_CUBIC, (1, -1, 0), 2, 0, "not in the chosen affine chart"),
    (PLANE_CUBIC, (1, -1, 0), -1, 2, "partition the three coordinates"),
], ids=["off_curve", "node", "four_variable_curve", "chart_coordinate_zero",
        "chart_index_negative"])
def test_ord_checks_its_input_first(curve, point, chart, param, message):
    # the curve, the point and the chart are checked before any series
    dep = next(i for i in range(3) if i not in (chart, param))
    with pytest.raises(ValueError, match=message):
        series_solve_branch(curve, point, 4, chart_var=chart, param_var=param,
                            dep_var=dep, count=2)


@pytest.mark.parametrize("point", [(1.0, -1, 0), ("1", -1, 0),
                                   (Fraction(1), -1, 0.0)])
def test_ord_rejects_inexact_point(point):
    # Fraction would read 1.0 and "1" as 1; they are refused as in Flag
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        series_solve_branch(PLANE_CUBIC, point, 4, chart_var=0, param_var=2,
                            dep_var=1, count=2)


def test_ord_rejects_section_vanishing_on_curve():
    # x + y is a component of (x + y)(x^2 + y^2 + z^2), smooth at the flex
    x, y, z = (HomogPoly.variable(3, i) for i in range(3))
    tangent = x + y
    with pytest.raises(ZeroSectionError, match="vanishes identically"):
        _flex_contact(tangent, tangent * (x ** 2 + y ** 2 + z ** 2))


def test_order_search_names_the_precision_cap(monkeypatch):
    # the contact order on a cubic reads the branch to t^3, precision 4
    monkeypatch.setattr(series, "PRECISION_CAP", 3)
    with pytest.raises(PrecisionError, match=r"PRECISION_CAP = 3"):
        _flex_contact(HomogPoly.linear_form([1, 1, 0]))


# -- the final form's contact order ------------------------------------------------


def test_leading_units(p2, fermat):
    # the contact order of each flag's final form, also scaled by a unit,
    # and the verifier's report of it
    flag = p2.flag
    scaled = Flag(3, None, flag.steps, 5 * flag.final_form, flag.point)
    assert p2.flag.final_stage.contact_order() == 1
    assert scaled.final_stage.contact_order() == 1
    assert fermat.flag.final_stage.contact_order() == 3
    for case in (p2, CaseStudy("p2", scaled, 1), fermat):
        assert verify_flag(case).checks[-1].detail == (
            "the final form meets the final curve at the point with "
            f"contact order {case.d} against required d = {case.d}")


def test_zero_section_rejected(fermat):
    # the final form w is the step form, so it restricts to zero on the
    # final curve: the verifier names that, and its order is undefined
    flag = fermat.flag
    moved = Flag(4, flag.relation, flag.steps, W, flag.point)
    assert not moved.final_stage.form
    with pytest.raises(ZeroSectionError, match="vanishes identically"):
        moved.final_stage.contact_order()
    contact = verify_flag(CaseStudy("zero", moved, 1)).checks[-1]
    assert contact.detail == ("the final form contains a flag member: its "
                              "restriction to the final curve is zero")


# -- flag construction validation ------------------------------------------------------


def test_flag_rejects_point_off_locus():
    x0, x1, x2 = (HomogPoly.variable(3, i) for i in range(3))
    with pytest.raises(ValueError):
        Flag(3, None, [x1], x2, (1, 1, 0))


def test_flag_rejects_inexact_point():
    x0, x1, x2 = (HomogPoly.variable(3, i) for i in range(3))
    with pytest.raises(TypeError, match="1.0"):
        Flag(3, None, [x1], x2, (1.0, 0, 0))


def test_flag_rejects_wrong_length():
    x0, x1, x2 = (HomogPoly.variable(3, i) for i in range(3))
    with pytest.raises(ValueError):
        Flag(3, None, [x1, x2], x2, (1, 0, 0))


@pytest.mark.parametrize("steps", [[], [X - W, X]], ids=["none", "two"])
def test_quadric_surface_flag_off_a_curve_rejected(steps):
    # the quadric surface's flag takes one step to its conic
    flag = make_case("quadric_surface").flag
    with pytest.raises(ValueError, match="flag does not end on a curve"):
        Flag(4, flag.relation, steps, flag.final_form, flag.point)
