import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, comb

import pytest
from hypothesis import given, settings

from okbody import valuation
from okbody.convex import RationalPolytope, polytope_equal, scaled_simplex
from okbody.linalg import Echelon
from okbody.okounkov import (KINDS, GradedSystem, OkounkovSemigroup,
                             body_estimate, generation_degree, semigroup,
                             semigroup_to_json, vertex_criterion)
from okbody.polynomials import HomogPoly
from okbody.valuation import Flag, ZeroSectionError
from okbody.varieties import (CASE_NAMES, CaseStudy, make_case,
                              make_negative_control, verify_flag)

from oracles import (all_levels, brute_facets, brute_generation_degree,
                     expansion_value_set, every_quotient, in_hull_nd,
                     matches_reference_hull, oracle_value_set, powers_basis,
                     standard_basis)
from strategies import fake_semigroup, fake_semigroups

FERMAT_LEVEL_ONE = ((0, 0), (0, 1), (0, 3), (1, 0))
FERMAT_LEVEL_TWO = ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 6),
                    (1, 0), (1, 1), (1, 3), (2, 0))


# -- graded system bases -----------------------------------------------------------


def test_p2_level_one_basis(p2):
    basis = standard_basis(p2, 1)
    assert basis == tuple(HomogPoly.variable(3, i) for i in range(3))
    assert GradedSystem(p2).dimension(1) == 3


@pytest.mark.parametrize("name", CASE_NAMES)
def test_dimension_matches_standard_basis(name):
    # the closed-form Hilbert function against the enumerated standard
    # monomials of degree c*m
    for c in (1, 2):
        case = make_case(name, c)
        system = GradedSystem(case)
        for m in range(1, 7):
            assert system.dimension(m) == len(standard_basis(case, m)), (c, m)
    with pytest.raises(ValueError, match="levels start at 1"):
        GradedSystem(make_case(name)).dimension(0)


def test_complete_dimensions(quadric, fermat):
    assert GradedSystem(quadric).dimension(2) == 9
    assert GradedSystem(fermat).dimension(2) == 10
    assert GradedSystem(fermat).dimension(3) == 19


def test_powers_dimensions_agree(p2, quadric, fermat):
    # either label gives levels of the one system's dimensions
    for case in (p2, quadric, fermat):
        system = GradedSystem(case)
        for kind in KINDS:
            sg = semigroup(case, kind, 3)
            for m in (1, 2, 3):
                assert len(sg.level(m)) == system.dimension(m), (kind, m)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_products_span_the_standard_monomials(name):
    # the rank of the multiplied-out level-m products is the count of
    # standard monomials of degree c*m, as GradedSystem's argument says
    for c in (1, 2):
        case = make_case(name, c)
        system = GradedSystem(case)
        for m in (1, 2, 3):
            assert len(powers_basis(case, m)) == system.dimension(m), (c, m)


def test_unknown_kind_rejected(p2):
    with pytest.raises(ValueError, match="kind must be one of"):
        semigroup(p2, "nonsense", 1)


# -- value sets ---------------------------------------------------------------------


def test_p2_level_one_value_set(p2):
    basis = standard_basis(p2, 1)
    expected = ((0, 0), (0, 1), (1, 0))
    assert expansion_value_set(basis, p2.flag) == expected
    assert semigroup(p2, "complete", 1).level(1) == expected


def test_fermat_level_one_value_set_golden(fermat):
    basis = standard_basis(fermat, 1)
    computed = semigroup(fermat, "complete", 1).level(1)
    assert computed == oracle_value_set(fermat, basis)
    assert expansion_value_set(basis, fermat.flag) == computed
    assert computed == FERMAT_LEVEL_ONE
    assert (0, 2) not in computed


def test_value_set_cardinality_equals_dimension(p2, p3, quadric, fermat):
    for case in (p2, p3, quadric, fermat):
        system = GradedSystem(case)
        for m in (1, 2, 3):
            assert len(expansion_value_set(standard_basis(case, m),
                                           case.flag)) == \
                system.dimension(m)


def _reducible_final_curve_case():
    # {z = 0} cuts the quadric xw - yz in the conic xw, the lines {x = 0}
    # and {w = 0}; the point (0:1:0:1) lies on {x = 0} only, where the
    # branch is x = 0, so every form divisible by x has an all-zero
    # expansion there without vanishing on the conic
    x, y, z, w = (HomogPoly.variable(4, i) for i in range(4))
    relation = x * w - y * z
    flag = Flag(4, relation, [z], x, (0, 1, 0, 1))
    return CaseStudy("reducible", flag, c=1)


def test_reducible_final_curve_rejected():
    case = _reducible_final_curve_case()
    with pytest.raises(ZeroSectionError, match="d' = 1"):
        case.flag.final_stage.value_sets_and_rule(1)[0]
    # the echelon grows from degree 0, so a higher top names d' = 1 too
    with pytest.raises(ZeroSectionError, match="d' = 1"):
        case.flag.final_stage.value_sets_and_rule(4)[0]
    with pytest.raises(ZeroSectionError):
        semigroup(case, "complete", 2)
    with pytest.raises(ZeroSectionError,
                       match="vanishes identically on the final curve"):
        case.flag.final_stage.contact_order()
    # the final form is x, so the contact check fails with that cause
    contact = verify_flag(case).checks[-1]
    assert not contact.passed
    assert "vanishes identically on the final curve" in contact.detail


# -- semigroups ---------------------------------------------------------------------


def test_p2_level_two(p2):
    sg = semigroup(p2, "complete", 2)
    assert set(sg.level(2)) == {(a, b) for a in range(3) for b in range(3)
                                if a + b <= 2}
    assert len(sg.level(2)) == 6


def test_quadric_level_cardinalities(quadric):
    sg = semigroup(quadric, "complete", 2)
    assert len(sg.level(2)) == 9


def test_fermat_level_two_golden(fermat):
    sg = semigroup(fermat, "complete", 2)
    assert sg.level(2) == FERMAT_LEVEL_TWO
    sums = {tuple(a + b for a, b in zip(u, v))
            for u in FERMAT_LEVEL_ONE for v in FERMAT_LEVEL_ONE}
    assert set(sg.level(2)) == sums


def test_semigroup_closure(p2, quadric, fermat):
    for case in (p2, quadric, fermat):
        sg = semigroup(case, "complete", 4 if case.name != "fermat_cubic" else 3)
        levels = all_levels(sg)
        for i in levels:
            for j in levels:
                if i + j not in levels:
                    continue
                target = set(levels[i + j])
                for u in levels[i]:
                    for v in levels[j]:
                        assert tuple(a + b for a, b in zip(u, v)) in target


def test_kind_agreement(p2, p3, quadric, fermat):
    for case in (p2, p3, quadric, fermat):
        a = semigroup(case, "complete", 3)
        b = semigroup(case, "powers", 3)
        assert all_levels(a) == all_levels(b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_levels_lie_in_the_bezout_simplex(name, kind):
    # every column of a degree-cm expansion is a prefix (k_1, ..., k_{n-1})
    # and j <= (cm - sum k_i) * e, with e the degree of the final curve, so
    # the level-m vectors lie in m * S = scaled_simplex(n, c*m, e)
    for c, max_level in ((1, 4), (2, 2)):
        case = make_case(name, c)
        stage = case.flag.final_stage
        n = len(case.flag.steps) + 1
        for m, vectors in all_levels(semigroup(case, kind, max_level)).items():
            facets = brute_facets(scaled_simplex(
                n, c * m, stage.curve_degree).vertices)
            assert all(sum(a * x for a, x in zip(normal, v)) >= offset
                       for v in vectors for normal, offset in facets), m


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_semigroup_matches_level_echelon(name, kind):
    # the levels assembled from the final curve's value sets equal the
    # pivot columns of each level's flag expansions
    for c, max_level in ((1, 4), (2, 2)):
        levels = all_levels(semigroup(make_case(name, c), kind, max_level))
        case = make_case(name, c)
        for m in range(1, max_level + 1):
            basis = (powers_basis(case, m) if kind == "powers"
                     else standard_basis(case, m))
            assert levels[m] == expansion_value_set(basis, case.flag), m


@pytest.mark.parametrize("name", CASE_NAMES)
def test_fibers_group_each_level_by_prefix_sum(name):
    # fiber s of level m holds the last entries of the vectors whose prefix
    # sums to s, for every s <= c*m (s = 0 alone without steps)
    for c in (1, 2):
        sg = semigroup(make_case(name, c), "complete", 3)
        for m in range(1, 4):
            by_sum = {}
            for vector in sg.level(m):
                by_sum.setdefault(sum(vector[:-1]), set()).add(vector[-1])
            fibers = sg.fibers(m)
            assert [s for s, _values in fibers] == list(range(c * m + 1))
            assert {s: tuple(sorted(values))
                    for s, values in by_sum.items()} == {
                s: values for s, values in fibers if values}, (c, m)
    with pytest.raises(KeyError):
        sg.fibers(4)


@given(fake_semigroups())
@settings(max_examples=100, deadline=None)
def test_level_is_the_expansion_of_the_fibers(sg):
    # level m is prefix + (j,) over the prefixes of sum s and j in fiber s,
    # in lex order, with 0 to 3 steps; levels outside 1..M are KeyErrors
    for m in range(1, sg.max_level + 1):
        assert sg.level(m) == tuple(sorted(
            prefix + (j,) for s, values in sg.fibers(m)
            for prefix in product(range(s + 1), repeat=sg.steps)
            if sum(prefix) == s for j in values)), m
    for m in (0, sg.max_level + 1):
        with pytest.raises(KeyError):
            sg.level(m)


def test_semigroup_and_final_stage_keep_no_state(fermat):
    # both are frozen values: reading levels, value sets and the contact
    # order leaves their attributes as they were
    sg = semigroup(fermat, "complete", 3)
    stage = fermat.flag.final_stage
    before = (dict(vars(sg)), dict(vars(stage)))
    all_levels(sg), sg.level(2), stage.value_sets_and_rule(4)
    stage.contact_order()
    assert (dict(vars(sg)), dict(vars(stage))) == before
    for value, field in ((sg, "curve"), (stage, "relation")):
        with pytest.raises(AttributeError):
            value.cache = {}
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert sg.curve and stage.relation
    assert (dict(vars(sg)), dict(vars(stage))) == before


def _frozen_value(name):
    """A value of the frozen class of that name, and one of its fields."""
    case = make_case("quadric_surface")
    sg = semigroup(case, "complete", 2)
    body, report = body_estimate(sg), verify_flag(case)
    return {"RationalPolytope": (body, "vertices"),
            "OkounkovSemigroup": (sg, "curve"),
            "_FinalStage": (case.flag.final_stage, "point"),
            "FlagCheck": (report.checks[0], "passed"),
            "FlagReport": (report, "checks")}[name]


@pytest.mark.parametrize("name", [
    "RationalPolytope", "OkounkovSemigroup", "_FinalStage",
    "FlagCheck", "FlagReport"])
def test_frozen_values_refuse_setattr_and_delattr(name):
    value, field = _frozen_value(name)
    assert type(value).__name__ == name
    before = dict(vars(value))
    with pytest.raises(AttributeError, match=f"cannot assign to field "
                                             f"'{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field "
                                             f"'{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert vars(value) == before


@pytest.mark.parametrize("kind", KINDS)
def test_semigroup_echelons_each_final_degree_once(monkeypatch, kind):
    # one semigroup call enters each standard row t^i u^(d'-i) of the final
    # line, conic or cubic once, for d' <= d0 + 1, d0 = ceil(2g/e) (0 on a
    # line or conic, 1 on the cubic), as the rule gives the degrees past
    # it to c*M = 6: the growth (C(d'+2, 2) - C(d'-e+2, 2)) - (C(d'+1, 2) -
    # C(d'-e+1, 2)) = min(d'+1, e) of the graded piece's dimension in each
    # degree; a second call keeps nothing of the first
    entered = []
    add = Echelon.add

    def counting_add(echelon, row):
        entered[-1] += 1
        return add(echelon, row)
    monkeypatch.setattr(Echelon, "add", counting_add)
    for name in ("p3", "quadric_surface", "fermat_cubic"):
        case = make_case(name, 2)
        e = case.flag.final_stage.curve_degree
        head = ceil((e - 1) * (e - 2) / e) + 1

        def dim(d):
            return comb(d + 2, 2) - comb(max(d - e + 2, 0), 2)
        entered.clear()
        for _call in range(2):
            entered.append(0)
            semigroup(case, kind, 3)
        expected = sum(dim(d) - (dim(d - 1) if d else 0)
                       for d in range(head + 1))
        assert entered == [expected, expected] == [dim(head)] * 2, name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_levels_homogeneous_in_c(name, kind):
    # level m of the case scaled by c is level c*m of the unscaled case
    max_level = 3
    for c in (2, 3):
        scaled = semigroup(make_case(name, c), kind, max_level)
        unscaled = semigroup(make_case(name), kind, c * max_level)
        for m in range(1, max_level + 1):
            assert scaled.level(m) == unscaled.level(c * m), (c, m)


# -- bodies and certification ----------------------------------------------------------


def test_body_estimates_match_expected(p2, quadric, fermat):
    assert polytope_equal(body_estimate(semigroup(p2, "complete", 1)),
                          scaled_simplex(2, 1, 1))
    assert polytope_equal(body_estimate(semigroup(quadric, "complete", 2)),
                          scaled_simplex(2, 1, 2))
    assert polytope_equal(body_estimate(semigroup(fermat, "complete", 1)),
                          scaled_simplex(2, 1, 3))


def test_body_monotone_in_level(quadric):
    small = body_estimate(semigroup(quadric, "complete", 1))
    large = body_estimate(semigroup(quadric, "complete", 3))
    assert all(in_hull_nd(v, large.vertices) for v in small.vertices)
    assert all(in_hull_nd(v, quadric.expected_body().vertices)
               for v in large.vertices)


def test_homogeneity_of_bodies():
    from okbody import make_case
    for name in ("p2", "quadric_surface", "fermat_cubic"):
        body_1 = body_estimate(semigroup(make_case(name, 1), "complete", 2))
        body_2 = body_estimate(semigroup(make_case(name, 2), "complete", 2))
        assert polytope_equal(body_2, RationalPolytope(body_1.dim, (
            (2 * q, 2 * y) for q, y in body_1.polygon)))


def _corner_quotients(sg):
    """The quotients (s*e_i, min V)/m and (s*e_i, max V)/m over every
    nonempty fiber (s, V) of every level m, i < n - 1 (the prefix 0 alone
    without steps)."""
    p, corners = sg.steps, []
    for m in range(1, sg.max_level + 1):
        for s, values in sg.fibers(m):
            for i, j in product(range(max(p, 1)), values[:1] + values[-1:]):
                prefix = tuple(Fraction(s if a == i else 0, m)
                               for a in range(p))
                corners.append(prefix + (Fraction(j, m),))
    return corners


@pytest.mark.parametrize("name", CASE_NAMES)
def test_body_matches_hull_of_every_vector(name):
    # the body is hulled from each piece's corners; the oracle hulls every
    # enumerated vector
    for c in (1, 2):
        for kind in KINDS:
            for max_level in (1, 2, 3, 4):
                sg = semigroup(make_case(name, c), kind, max_level)
                assert matches_reference_hull(
                    body_estimate(sg), every_quotient(sg)), (
                    c, kind, max_level)


def _cubic_curve(c):
    """The plane cubic x^3 + y^3 + z^3 as a case with no steps, flagged at
    its flex (1:-1:0)."""
    relation = HomogPoly(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    flag = Flag(3, relation, [], HomogPoly.linear_form([1, 1, 0]),
                (1, -1, 0))
    return CaseStudy("cubic_curve", flag, c)


def test_curve_case_without_steps_matches_oracles():
    # n = 1: the plane cubic itself, flagged at its flex (1:-1:0), so every
    # vector is (j,) with j in V(c*m) and no prefix
    import json
    for c in (1, 2):
        sg = semigroup(_cubic_curve(c), "complete", 4)
        assert sg.steps == 0
        assert sg.level(1) == tuple((j,) for j in sg.curve[c])
        assert sg.fibers(1) == [(0, sg.curve[c])]
        assert matches_reference_hull(body_estimate(sg),
                                       every_quotient(sg))
        assert body_estimate(sg) == scaled_simplex(1, c, 3)
        assert (generation_degree(sg, 4)
                == brute_generation_degree(sg, 4) == 1)
        payload = {"case": "cubic_curve", "kind": "complete", "M": 4,
                   "levels": {str(m): [list(vec) for vec in level]
                              for m, level in all_levels(sg).items()}}
        assert semigroup_to_json(sg) == json.dumps(payload, indent=2) + "\n"


def test_body_skips_an_empty_fiber(p2):
    # V(1) is empty, so the fiber over s = 0 at level 1 and over s = 1 at
    # level 2 have no corner
    sg = OkounkovSemigroup(p2, "complete", 3, ((0,), (), (1,), (2,)), 1)
    assert sg.fibers(1) == [(0, ()), (1, (0,))]
    assert matches_reference_hull(body_estimate(sg), every_quotient(sg))


@pytest.mark.parametrize("name, max_level", [
    ("quadric_surface", 30), ("p3", 20), ("fermat_cubic", 24)])
def test_body_matches_hull_of_every_vector_at_large_levels(name, max_level):
    sg = semigroup(make_case(name), "complete", max_level)
    assert matches_reference_hull(body_estimate(sg), every_quotient(sg))


@pytest.mark.parametrize("name", CASE_NAMES + ("negative_control",
                                               "cubic_curve"))
def test_body_is_the_lifted_chain_of_the_corner_quotients(name):
    # the lift of the planar chain against the reference double description
    # of every fiber's corners, vertices and facets
    for c in (1, 2, 3):
        case = (make_negative_control(c) if name == "negative_control"
                else _cubic_curve(c) if name == "cubic_curve"
                else make_case(name, c))
        for max_level in (1, 2, 4):
            sg = semigroup(case, "complete", max_level)
            assert matches_reference_hull(body_estimate(sg),
                                           _corner_quotients(sg)), (
                c, max_level)


def test_body_of_seeded_gapped_fibers_is_the_lifted_chain():
    # V(d') drawn from {0, ..., d'e - 1}, so max V(d') is not d'e and the
    # upper chain does not follow the simplex; some fibers are empty, but
    # not V(c*M), which is the top level's fiber over s = 0.  The body takes
    # each degree's corners at its first level only; the reference hulls
    # every level's corners
    rng = random.Random(26)
    for _trial in range(400):
        c, max_level = rng.choice((1, 2, 3)), rng.randint(1, 12)
        e, steps = rng.choice((2, 3, 4)), rng.choice((0, 1, 2, 3))
        top = c * max_level
        curve = ((0,),) + tuple(
            tuple(sorted(rng.sample(range(d * e), rng.randint(
                d == top, min(3, d * e))))) for d in range(1, top + 1))
        sg = fake_semigroup(c, steps, curve)
        assert matches_reference_hull(body_estimate(sg),
                                       _corner_quotients(sg)), (steps, curve)


@pytest.mark.parametrize("curve", [((),), ((1,),), ((0, 2),)])
def test_body_refuses_steps_without_the_constants(curve):
    # with steps, (c, 0), the pair of V(0) = {0} at level 1, is what puts a
    # degree's pairs at later levels inside the hull of its first; without
    # steps V(0) never enters
    for steps in (1, 2, 3):
        with pytest.raises(ValueError, match=r"V\(0\) is \("):
            body_estimate(fake_semigroup(1, steps, curve + ((0, 3),)))
    sg = fake_semigroup(1, 0, curve + ((0, 3),))
    assert matches_reference_hull(body_estimate(sg), every_quotient(sg))


def _comb_count(sg, m):
    """The size of level m as sum_s C(s+p-1, s) |V(c*m - s)| over its
    fibers."""
    p = sg.steps
    return sum((comb(s + p - 1, s) if p else 1) * len(values)
               for s, values in sg.fibers(m))


@pytest.mark.parametrize("name", CASE_NAMES + ("negative_control",))
def test_level_sizes_are_prefix_sums(name):
    for c in (1, 2, 3):
        case = (make_negative_control(c) if name == "negative_control"
                else make_case(name, c))
        sg = semigroup(case, "complete", 8)
        for m in range(1, 9):
            assert (_comb_count(sg, m) == len(sg.level(m))
                    == GradedSystem(case).dimension(m)), (c, m)


def test_level_sizes_off_the_flex(off_flex_cubic):
    # the value sets of the full echelon, with no rule, give each level the
    # Hilbert function's size too
    for c in (1, 2):
        case = CaseStudy(off_flex_cubic.name, off_flex_cubic.flag, c)
        sg = semigroup(case, "complete", 6)
        assert sg.rule_from is None
        for m in range(1, 7):
            assert len(sg.level(m)) == GradedSystem(case).dimension(m), (
                c, m)


def test_level_sizes_of_seeded_fakes_are_prefix_sums():
    rng = random.Random(28)
    for _trial in range(100):
        c, max_level = rng.choice((1, 2, 3)), rng.randint(1, 6)
        steps = rng.randint(0, 3)
        curve = tuple(tuple(sorted(rng.sample(range(9), rng.randint(0, 3))))
                      for _d in range(c * max_level + 1))
        sg = fake_semigroup(c, steps, curve)
        for m in range(1, max_level + 1):
            assert _comb_count(sg, m) == len(sg.level(m)), (steps, curve, m)


def test_vertex_criterion_examples():
    triangle = scaled_simplex(2, 1, 3)
    assert vertex_criterion(triangle, {(0, 0), (0, 1), (0, 3), (1, 0)})
    assert not vertex_criterion(scaled_simplex(2, 1, 1), {(0, 0), (1, 0)})
    origin = RationalPolytope(2, [(0, 0)])
    assert vertex_criterion(origin, {(0, 0)})


def test_vertex_criterion_rejects_fractional_vertices():
    half = RationalPolytope(2, [(0, 0), (Fraction(1, 2), Fraction(0))])
    assert not vertex_criterion(half, {(0, 0)})


def test_generation_degree(p2, fermat):
    assert generation_degree(semigroup(p2, "complete", 4), 4) == 1
    degree = generation_degree(semigroup(fermat, "complete", 4), 4)
    assert degree is not None and degree <= 2
    assert degree == 1


def test_generation_degree_single_level(p2):
    assert generation_degree(semigroup(p2, "complete", 1), 1) == 1


def test_generation_degree_not_found(p2):
    # a semigroup whose level-2 point is not a sum of level-1 points: no
    # prefix, V(1) = {0} and V(2) = {1}
    fake = OkounkovSemigroup(p2, "complete", 2, ((0,), (0,), (1,)), 0)
    assert all_levels(fake) == {1: ((0,),), 2: ((1,),)}
    assert generation_degree(fake, 1) is None
    assert generation_degree(fake, 2) == 2


@pytest.mark.parametrize("name", CASE_NAMES)
def test_generation_degree_matches_tuple_oracle(name):
    for c in (1, 2):
        for max_level in (1, 2, 3, 4):
            sg = semigroup(make_case(name, c), "complete", max_level)
            assert (generation_degree(sg, max_level)
                    == brute_generation_degree(sg, max_level)
                    == 1), (c, max_level)


FAKES = [
    (1, 0, ((0,), (0,), (1,), (2,)), 3),      # None below kmax = 3
    (1, 1, ((0,), (0, 2), (1, 3)), 2),
    (1, 1, ((0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)), 1),
    (1, 2, ((0,), (1,), (0, 3), (2,)), 3),
    (2, 1, ((2, 3, 4), (0, 6, 7), (0, 5, 6), (), (), (), (5,)), 3),
    # the level-3 vector (2, 2) is no sum, while the sum (1, 10) of levels
    # 2 and 1 would read as (2, 2) in base 8, the largest entry + 1
    (1, 1, ((6,), (2, 7), (4,), ()), 3),
]


@pytest.mark.parametrize("c, steps, curve, expected", FAKES)
def test_generation_degree_of_fakes_matches_tuple_oracle(c, steps, curve,
                                                         expected):
    sg = fake_semigroup(c, steps, curve)
    for kmax in range(1, sg.max_level + 1):
        oracle = brute_generation_degree(sg, kmax)
        assert generation_degree(sg, kmax) == oracle
        assert oracle == (expected if kmax >= expected else None)


@pytest.mark.parametrize("c, curve",
                         [(c, curve) for c, _steps, curve, _e in FAKES])
def test_generation_degree_does_not_depend_on_the_steps(c, curve):
    # with at least one step every prefix sum s <= c*m has prefixes, so the
    # fibers, and with them the generation degree, are the same for any
    # number of steps
    degrees = set()
    for steps in (1, 2, 3):
        sg = fake_semigroup(c, steps, curve)
        degree = generation_degree(sg, sg.max_level)
        assert degree == brute_generation_degree(sg, sg.max_level), \
            steps
        degrees.add(degree)
    assert len(degrees) == 1


def test_generation_degree_of_seeded_fakes_matches_tuple_oracle():
    rng = random.Random(17)
    for _trial in range(200):
        c, max_level = rng.choice((1, 2)), 3
        steps = rng.choice((0, 1, 2, 3))
        curve = tuple(tuple(sorted(rng.sample(range(9), rng.randint(1, 3))))
                      for _d in range(c * max_level + 1))
        sg = fake_semigroup(c, steps, curve)
        assert (generation_degree(sg, max_level)
                == brute_generation_degree(sg, max_level)), curve


def _witness(sg):
    """The same semigroup with no rule recorded, as a fake carries none, so
    generation_degree searches every level up to M."""
    return OkounkovSemigroup(sg.case, sg.kind, sg.max_level, sg.curve,
                             sg.steps)


def _lemma_level(sg, k):
    """max(m*, k) + 1 with m* = max(ceil(d0/c), 1 + ceil((2g - 1)/(c*e)))."""
    c, e = sg.case.c, sg.case.flag.final_stage.curve_degree
    genus = (e - 1) * (e - 2) // 2
    m_star = max(ceil(sg.rule_from / c), 1 + ceil((2 * genus - 1) / (c * e)))
    return max(m_star, k) + 1


@pytest.mark.parametrize("name", CASE_NAMES)
def test_proved_generation_degree_matches_the_witness(name):
    # at M = 40 the rule holds on every shipped case, so generation_degree
    # checks levels to max(m*, k) + 1 only (3 on the cubic, 2 on the rest),
    # and finds the degree that the search of every level finds
    for c in (1, 2, 3):
        sg = semigroup(make_case(name, c), "complete", 40)
        assert sg.rule_from is not None
        degree = generation_degree(sg, 40)
        assert degree == generation_degree(_witness(sg), 40) == 1, c
        assert sg.proof_level(degree) == _lemma_level(sg, 1) == (
            3 if name == "fermat_cubic" else 2), c
        assert sg.proof_level(4) == 5 and sg.proof_level(40) is None, c


@pytest.mark.parametrize("name", CASE_NAMES)
def test_levels_past_m_star_are_the_level_below_plus_level_one(name):
    # the lemma behind the proof, on the vectors themselves: from m* on,
    # level m + 1 is level m plus level 1
    for c in (1, 2, 3):
        sg = semigroup(make_case(name, c), "complete", 6)
        levels = all_levels(sg)
        for m in range(_lemma_level(sg, 1) - 1, sg.max_level):
            sums = {tuple(a + b for a, b in zip(u, v))
                    for u in levels[m] for v in levels[1]}
            assert set(levels[m + 1]) <= sums, (c, m)


def test_proved_generation_degree_reads_few_levels(monkeypatch):
    # past the old cap M = 170 the cubic's degree 1 is proved from levels
    # 1..3 alone, and no branch is solved
    sg = semigroup(make_case("fermat_cubic"), "complete", 300)
    read = []
    fibers = OkounkovSemigroup.fibers

    def counting(self, m):
        read.append(m)
        return fibers(self, m)
    monkeypatch.setattr(OkounkovSemigroup, "fibers", counting)
    monkeypatch.setattr(valuation, "series_solve_branch", None)
    assert generation_degree(sg, 300) == 1
    assert sorted(set(read)) == [1, 2, 3] and sg.proof_level(1) == 3


def test_generation_degree_reads_each_level_once(monkeypatch, off_flex_cubic):
    # a call reads a level's fibers once, however many k it tries: the
    # proved cubic, and the cubic off its flex, which searches every level
    sgs = [semigroup(make_case("fermat_cubic"), "complete", 300)] + [
        semigroup(CaseStudy(off_flex_cubic.name, off_flex_cubic.flag, c),
                  "complete", 8) for c in (1, 2, 3)]
    read, fibers = Counter(), OkounkovSemigroup.fibers

    def counting(self, m):
        read[m] += 1
        return fibers(self, m)
    monkeypatch.setattr(OkounkovSemigroup, "fibers", counting)
    for sg in sgs:
        read.clear()
        degree = generation_degree(sg, sg.max_level)
        assert read and set(read.values()) == {1}, (degree, read)
    assert degree == 2 and sorted(read) == list(range(1, 9))


def test_cubic_off_the_flex_takes_the_witness_search(off_flex_cubic):
    # V(1) = {0, 1, 2} lacks e = 3: no rule is recorded, so nothing is
    # proved and generation_degree searches every level, as the tuple
    # oracle does; at c = 1 level 2 holds 6, no sum of two level-1 values,
    # so the degree is 2, and the vertex 3 of the expected segment [0, 3]
    # is no level-1 value
    for c, degree in ((1, 2), (2, 1), (3, 2)):
        case = CaseStudy(off_flex_cubic.name, off_flex_cubic.flag, c)
        sg = semigroup(case, "complete", 4)
        assert sg.rule_from is None and sg.proof_level(1) is None
        assert (generation_degree(sg, 4)
                == brute_generation_degree(sg, 4) == degree), c
    sg = semigroup(off_flex_cubic, "complete", 4)
    assert sg.level(1) == ((0,), (1,), (2,))
    assert not vertex_criterion(off_flex_cubic.expected_body(), sg.level(1))


def test_negative_control_takes_the_rule():
    # its conic and point are the quadric surface's, and its final form
    # does not enter the value sets: the rule is recorded from d0 = 0 and
    # generation degree 1 is proved
    for c in (1, 2):
        sg = semigroup(make_negative_control(c), "complete", 4)
        assert sg.rule_from == 0 and sg.proof_level(1) is not None, c
        assert sg.curve == semigroup(make_case("quadric_surface", c),
                                     "complete", 4).curve, c
        assert (generation_degree(sg, 4)
                == brute_generation_degree(sg, 4) == 1), c


def test_no_rule_below_the_rule_degree():
    # with c*M <= d0 + 1 the echelon runs to c*M, as before the rule, so a
    # small semigroup proves nothing and keeps the witness search
    for name, max_level in (("fermat_cubic", 2), ("quadric_surface", 1)):
        sg = semigroup(make_case(name), "complete", max_level)
        assert sg.rule_from is None and sg.proof_level(1) is None


# -- export -----------------------------------------------------------------------


def test_semigroup_json_deterministic(fermat):
    sg = semigroup(fermat, "complete", 2)
    text = semigroup_to_json(sg)
    assert semigroup_to_json(semigroup(fermat, "complete", 2)) == text
    import json
    data = json.loads(text)
    assert data["levels"]["1"] == [[0, 0], [0, 1], [0, 3], [1, 0]]
    assert data["M"] == 2
    assert data["kind"] == "complete"


def _json_dumps(sg):
    import json
    payload = {"case": sg.case.name, "kind": sg.kind, "M": sg.max_level,
               "levels": {str(m): [list(vec) for vec in level]
                          for m, level in all_levels(sg).items()}}
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name", CASE_NAMES)
def test_semigroup_json_matches_json_dumps(name):
    for c in (1, 2):
        for kind in KINDS:
            sg = semigroup(make_case(name, c), kind, 3)
            assert semigroup_to_json(sg) == _json_dumps(sg), (c, kind)


@given(fake_semigroups())
@settings(max_examples=100, deadline=None)
def test_semigroup_json_of_made_up_curves_matches_json_dumps(sg):
    # up to 3 steps and 4 levels: each prefix's text is made once and
    # reused at every later level where the prefix recurs
    assert semigroup_to_json(sg) == _json_dumps(sg)


def test_semigroup_json_of_empty_levels_matches_json_dumps(p2):
    import json
    sg = OkounkovSemigroup(p2, "complete", 2, ((), (), (1, 2)), 0)
    assert all_levels(sg) == {1: (), 2: ((1,), (2,))}
    payload = {"case": "p2", "kind": "complete", "M": 2,
               "levels": {"1": [], "2": [[1], [2]]}}
    assert semigroup_to_json(sg) == json.dumps(payload, indent=2) + "\n"


# -- argument types -----------------------------------------------------------


@pytest.mark.parametrize("value", [True, 2.0, 1.5, "2"])
def test_semigroup_refuses_a_non_int_max_level(p2, value):
    with pytest.raises(TypeError, match="max_level"):
        semigroup(p2, "complete", value)


@pytest.mark.parametrize("value", [True, 2.0, 1.5, None])
def test_generation_degree_refuses_a_non_int_kmax(p2, value):
    with pytest.raises(TypeError, match="kmax"):
        generation_degree(semigroup(p2, "complete", 2), value)
