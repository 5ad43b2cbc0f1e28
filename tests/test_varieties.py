import inspect
import json
import random
from pathlib import Path

import pytest

from okbody.convex import polytope_equal, scaled_simplex
from okbody.okounkov import body_estimate, semigroup, vertex_criterion
from okbody.polynomials import HomogPoly
from okbody.valuation import Flag, _FinalStage
from okbody.varieties import (CASE_NAMES, CaseStudy, case_study_from_json,
                              case_study_to_json, make_case,
                              make_negative_control, verify_flag)

from oracles import riemann_roch_orders

FIXTURES = Path(__file__).parent / "fixtures"


def test_case_metadata():
    expectations = {
        "p2": (2, 3, 1),
        "p3": (3, 4, 1),
        "quadric_surface": (2, 2, 2),
        "fermat_cubic": (2, 1, 3),
        "quadric_threefold": (3, 3, 2),
    }
    assert set(expectations) == set(CASE_NAMES)
    for name, (n, r, d) in expectations.items():
        case = make_case(name)
        assert (case.n, case.r, case.d) == (n, r, d)
        assert case.c == 1
        assert case.flag.n == case.n


def test_case_study_fields():
    assert list(inspect.signature(CaseStudy).parameters) == ["name", "flag",
                                                             "c"]


def test_flag_reports_compare_by_value():
    # two verifications of one case give equal, equally hashed reports
    first, second = (verify_flag(make_case("fermat_cubic")) for _ in range(2))
    assert first == second and hash(first) == hash(second)
    assert first.checks[0] == second.checks[0]
    assert len(set(first.checks + second.checks)) == len(first.checks)
    assert first != verify_flag(make_negative_control())


def test_shipped_cases_have_coindex_at_most_two():
    for name in CASE_NAMES:
        case = make_case(name)
        assert 0 <= case.n + 1 - case.r <= 2, name


def test_index_matches_dimension_pattern():
    # r = n+1 for projective space, r = n for the quadric, r = n-1 for the cubic
    assert make_case("p3").r == make_case("p3").n + 1
    assert make_case("quadric_surface").r == make_case("quadric_surface").n
    assert make_case("fermat_cubic").r == make_case("fermat_cubic").n - 1


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        make_case("p4")


def test_nonpositive_c_rejected():
    with pytest.raises(ValueError):
        make_case("p2", 0)
    with pytest.raises(ValueError, match="positive"):
        CaseStudy("p2", make_case("p2").flag, 0)


@pytest.mark.parametrize("value", [True, 1.5, 2.0, "2"])
def test_non_int_c_rejected(value):
    # a bool or float c would be written into a fixture that
    # case_study_from_json refuses, or fail later inside range()
    with pytest.raises(TypeError, match=f"c must be an int, not {value!r}"):
        make_case("p2", value)
    with pytest.raises(TypeError, match="c must be an int"):
        CaseStudy("p2", make_case("p2").flag, value)


def test_relation_scaled_monic():
    # kept as written: each shipped relation leads with coefficient 1
    fermat = make_case("fermat_cubic")
    assert fermat.flag.relation.terms[(0, 0, 0, 3)] == 1
    quadric = make_case("quadric_surface")
    assert quadric.flag.relation.evaluate((0, 1, 0, 0)) == 0


def test_verify_flag_passes_on_shipped_cases():
    for name in CASE_NAMES:
        report = verify_flag(make_case(name))
        assert report.passed, str(report)


def test_verify_flag_contact_orders():
    for name in CASE_NAMES:
        for c in (1, 2):
            case = make_case(name, c)
            report = verify_flag(case)
            contact = next(check for check in report.checks
                           if check.name == "single-point contact")
            assert contact.passed
            assert f"contact order {case.d} " in contact.detail
            # d = 1 on the lines of p2 and p3
            assert case.flag.final_stage.contact_order() == case.d


def _fermat_variant(**changes):
    """The Fermat cubic's fixture with some fields changed."""
    data = json.loads(case_study_to_json(make_case("fermat_cubic")))
    return case_study_from_json(json.dumps({**data, **changes}))


FAILING_CONTACTS = {
    # a*t + b*u with a = b = 1 meets the cubic once at the flex
    "x_plus_y_plus_z": (
        {"final_form": [[1, [1, 0, 0, 0]], [1, [0, 1, 0, 0]],
                        [1, [0, 0, 1, 0]]]},
        "the final form meets the final curve at the point with contact "
        "order 1 against required d = 3"),
    # x^3 + y^3 + w^3 is a cone, and x + y is a line of its curve x^3 + y^3
    "singular_relation": (
        {"relation": [[1, [3, 0, 0, 0]], [1, [0, 3, 0, 0]],
                      [1, [0, 0, 0, 3]]]},
        "the final form's order at the point: section vanishes identically "
        "on the final curve"),
    # the final curve (x + y)(x^2 + y^2 + z^2) contains the final form
    "final_form_is_a_component": (
        {"relation": [[1, [3, 0, 0, 0]], [1, [2, 1, 0, 0]],
                      [1, [1, 2, 0, 0]], [1, [0, 3, 0, 0]],
                      [1, [1, 0, 2, 0]], [1, [0, 1, 2, 0]],
                      [1, [0, 0, 0, 3]]]},
        "the final form's order at the point: section vanishes identically "
        "on the final curve"),
}


@pytest.mark.parametrize("name", sorted(FAILING_CONTACTS))
def test_failing_contact_details(name):
    changes, detail = FAILING_CONTACTS[name]
    contact = verify_flag(_fermat_variant(**changes)).checks[-1]
    assert contact.name == "single-point contact" and not contact.passed
    assert contact.detail == detail


def test_contact_order_of_failing_final_forms():
    assert make_negative_control().flag.final_stage.contact_order() == 1
    flag = make_case("fermat_cubic").flag
    moved = Flag(4, flag.relation, flag.steps,
                 HomogPoly.linear_form([1, 1, 1, 0]), flag.point)
    # x + y + z is a*t + b*u with a = b = 1 (t is z, u is y + 1), and
    # u = O(t^3), so it meets the cubic once at the flex
    assert moved.final_stage.contact_order() == 1


@pytest.mark.parametrize("name", ["p2", "quadric_surface"])
def test_final_form_containing_a_flag_member_fails_contact(name):
    # the final form is the step form: {x1 = 0} on p2, {x = w} on the
    # quadric surface, so it restricts to zero on the final line or conic
    flag = make_case(name).flag
    moved = Flag(flag.ambient_vars, flag.relation, flag.steps, flag.steps[0],
                 flag.point)
    report = verify_flag(CaseStudy(name, moved, 1))
    contact = report.checks[-1]
    assert contact.name == "single-point contact" and not contact.passed
    assert "the final form contains a flag member" in contact.detail
    assert all(check.passed for check in report.checks[:-1])


def test_non_transversal_parameter_fails_contact():
    # on the Fermat cubic's final curve x^3 + y^3 + z^3 at the flex
    # (1:-1:0) the tangent is x + y, so y is no parameter there: the flag
    # reads the chart x and the parameter z, and its contact check passes,
    # while the stage with y as its parameter cannot read the contact order
    case = make_case("fermat_cubic")
    stage = case.flag.final_stage
    assert (stage.chart, stage.param, stage.dep) == (0, 2, 1)
    contact = verify_flag(case).checks[-1]
    assert contact.name == "single-point contact" and contact.passed
    assert contact.detail == ("the final form meets the final curve at the "
                              "point with contact order 3 against required "
                              "d = 3")
    with pytest.raises(ValueError, match="chosen parameter is not "
                                         "transversal at the point"):
        _FinalStage(stage.relation, stage.point, stage.chart, 1, 2,
                    stage.form).contact_order()


def test_cubic_off_the_flex_fails_only_contact(off_flex_cubic):
    # its tangent meets y^2 z = x^3 + z^3 at (2:3:1) with contact order 2,
    # so only the single-point check fails on this smooth curve
    report = verify_flag(off_flex_cubic)
    assert [check.name for check in report.checks if not check.passed] == [
        "single-point contact"]
    assert report.checks[-1].detail == (
        "the final form meets the final curve at the point with contact "
        "order 2 against required d = 3")


def test_negative_control_fails_contact_check():
    report = verify_flag(make_negative_control())
    assert not report.passed
    contact = next(c for c in report.checks
                   if c.name == "single-point contact")
    assert not contact.passed
    assert "contact order 1" in contact.detail
    others = [c for c in report.checks if c.name != "single-point contact"]
    assert all(c.passed for c in others)


def test_quadric_threefold_body():
    case = make_case("quadric_threefold")
    sg = semigroup(case, "complete", 2)
    assert polytope_equal(body_estimate(sg), case.expected_body())
    assert vertex_criterion(case.expected_body(), sg.level(1))


def test_projective_line():
    # P^1 is its own final line: at c = 2, V(d') = {0, ..., d'}, the body
    # is [0, 2] and the flag verifies
    x0, x1 = (HomogPoly.variable(2, i) for i in range(2))
    case = CaseStudy("p1", Flag(2, None, [], x1, (1, 0)), 2)
    sg = semigroup(case, "complete", 4)
    assert sg.curve == tuple(tuple(range(d + 1)) for d in range(9))
    assert body_estimate(sg).vertices == ((0,), (2,))
    assert verify_flag(case).passed


def _seeded_projective_flags(count):
    """Seeded flags on P^n, n = 1 .. 4, whose steps and final form are
    seeded integer forms through a seeded integer point, kept when every
    step cuts the member before it and the final form the final line."""
    rng = random.Random(33)
    flags = []
    while len(flags) < count:
        n = rng.randint(1, 4)
        point = [rng.randrange(-3, 4) for _ in range(n + 1)]
        if not any(point):
            continue
        pivot = next(i for i, v in enumerate(point) if v)
        forms = []
        for _ in range(n):
            r = [rng.randrange(-4, 5) for _ in point]
            dot = sum(a * v for a, v in zip(r, point))
            forms.append(HomogPoly.linear_form(
                [point[pivot] * a - (i == pivot) * dot
                 for i, a in enumerate(r)]))
        try:
            flag = Flag(n + 1, None, forms[:-1], forms[-1], point)
        except ValueError:          # a zero form, or a step off its member
            continue
        if flag.final_stage.form:
            flags.append(flag)
    return flags


def test_seeded_flags_on_projective_space():
    # a projective change of coordinates of the coordinate flag: each
    # seeded flag ends on a line, with the value sets of Riemann-Roch,
    # contact order 1 and the simplex scaled by c
    flags = _seeded_projective_flags(40)
    assert {flag.n for flag in flags} == {1, 2, 3, 4}
    assert all(len(step.terms) > 1 for flag in flags for step in flag.steps)
    for index, flag in enumerate(flags):
        stage = flag.final_stage
        assert stage.value_sets_and_rule(8)[0] == tuple(
            riemann_roch_orders(1, degree) for degree in range(9))
        assert stage.contact_order() == 1
        case = CaseStudy("seeded", flag, 1 + index % 3)
        assert verify_flag(case).passed
        assert body_estimate(semigroup(case, "complete", 2)) == (
            scaled_simplex(flag.n, case.c, 1))


# -- fixture files -----------------------------------------------------------------


def test_fixture_round_trip(tmp_path):
    case = make_case("fermat_cubic", 2)
    text = case_study_to_json(case)
    loaded = case_study_from_json(text)
    assert loaded.name == case.name
    assert loaded.flag.relation == case.flag.relation
    assert (loaded.n, loaded.r, loaded.c, loaded.d) == (2, 1, 2, 3)
    assert verify_flag(loaded).passed
    assert case_study_to_json(loaded) == text


def test_fixture_carries_no_derived_metadata():
    for name in CASE_NAMES:
        data = json.loads(case_study_to_json(make_case(name)))
        assert list(data) == ["name", "ambient_vars", "c", "relation",
                              "steps", "final_form", "point"]


def test_fixture_with_matching_metadata_loads():
    # written by the earlier writer, which also stored n, r and d
    text = (FIXTURES / "quadric_surface_with_metadata.json").read_text()
    loaded = case_study_from_json(text)
    assert (loaded.n, loaded.r, loaded.c, loaded.d) == (2, 2, 1, 2)
    assert verify_flag(loaded).passed
    assert case_study_to_json(loaded) == \
        case_study_to_json(make_case("quadric_surface"))


@pytest.mark.parametrize("key,value,derived",
                         [("n", 5, 2), ("r", 7, 2), ("d", 3, 2),
                          ("chart_var", 0, 1), ("parameter_var", 2, 0)])
def test_fixture_with_wrong_metadata_rejected(key, value, derived):
    data = json.loads(case_study_to_json(make_case("quadric_surface")))
    data[key] = value
    with pytest.raises(ValueError,
                       match=f"{key} = {value}, but its flag gives "
                             f"{key} = {derived}"):
        case_study_from_json(json.dumps(data))


def test_fixture_negative_control_round_trip():
    control = make_negative_control()
    loaded = case_study_from_json(case_study_to_json(control))
    assert not verify_flag(loaded).passed


def test_fixture_rejects_inhomogeneous_relation():
    case = make_case("fermat_cubic")
    data = json.loads(case_study_to_json(case))
    data["relation"].append(["1", [1, 0, 0, 0]])
    with pytest.raises(ValueError, match="homogeneous"):
        case_study_from_json(json.dumps(data))


def test_fixture_rejects_point_off_flag():
    case = make_case("fermat_cubic")
    data = json.loads(case_study_to_json(case))
    data["point"] = ["1", "1", "0", "0"]
    with pytest.raises(ValueError):
        case_study_from_json(json.dumps(data))


def test_fixture_relation_is_kept_as_written():
    # no coefficient of 2x^3 + 2y^3 + 3z^3 + 5w^3 is scaled on loading
    data = json.loads(case_study_to_json(make_case("fermat_cubic")))
    data["relation"] = [["2/1", [3, 0, 0, 0]], ["2/1", [0, 3, 0, 0]],
                        ["3/1", [0, 0, 3, 0]], ["5/1", [0, 0, 0, 3]]]
    text = json.dumps(data, indent=2) + "\n"
    loaded = case_study_from_json(text)
    assert loaded.flag.relation.terms == {(3, 0, 0, 0): 2, (0, 3, 0, 0): 2,
                                          (0, 0, 3, 0): 3, (0, 0, 0, 3): 5}
    assert case_study_to_json(loaded) == text
    # the value sets, so the body, do not see the scale
    shipped = make_case("fermat_cubic")
    assert body_estimate(semigroup(loaded, "complete", 3)) == \
        body_estimate(semigroup(shipped, "complete", 3))

