import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import comb

import pytest

from okbody.convex import convex_hull, polytope_equal, scaled_simplex
from okbody.linalg import Echelon, rank
from okbody.okounkov import (KINDS, GradedSystem, OkounkovSemigroup,
                             body_estimate, generation_degree, semigroup,
                             semigroup_to_json, vertex_criterion)
from okbody.polynomials import HomogPoly, graded_monomials
from okbody.valuation import Flag, ZeroSectionError
from okbody.varieties import CASE_NAMES, CaseStudy, make_case, verify_flag

from oracles import (brute_generation_degree, expansion_value_set,
                     in_hull_nd, linear_solve, oracle_value_set, powers_basis,
                     reduce_section, standard_basis)

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


def test_powers_basis_spans_inside_complete(quadric):
    coords = graded_monomials(4, 2)
    complete_rows = [p.coefficient_vector(coords)
                     for p in standard_basis(quadric, 2)]
    for p in powers_basis(quadric, 2):
        assert linear_solve(complete_rows,
                            p.coefficient_vector(coords)) is not None


def test_graded_pieces_multiply_into_higher_levels(quadric):
    # V_1 . V_2 lands in V_3 for the powers system
    coords = graded_monomials(4, 3)
    level_three = [p.coefficient_vector(coords)
                   for p in powers_basis(quadric, 3)]
    for a in powers_basis(quadric, 1):
        for b in powers_basis(quadric, 2):
            product = reduce_section(quadric, a * b)
            assert linear_solve(level_three,
                                product.coefficient_vector(coords)) is not None


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


def test_singleton_basis(fermat):
    section = HomogPoly.variable(4, 3)
    assert expansion_value_set([section], fermat.flag) == ((1, 0),)


def test_value_set_cardinality_equals_dimension(p2, p3, quadric, fermat):
    for case in (p2, p3, quadric, fermat):
        system = GradedSystem(case)
        for m in (1, 2, 3):
            assert len(expansion_value_set(standard_basis(case, m),
                                           case.flag)) == \
                system.dimension(m)


def test_value_set_invariant_under_basis_change(p3, quadric, fermat):
    # p3 ends on a line; the others end on a conic and a cubic
    rng = random.Random(23)
    for case, m in ((quadric, 2), (fermat, 1), (quadric, 4), (fermat, 3),
                    (p3, 3)):
        basis = list(standard_basis(case, m))
        reference = expansion_value_set(basis, case.flag)
        assert reference == semigroup(case, "complete", m).level(m)
        dim = len(basis)
        for _trial in range(10):
            while True:
                matrix = [[rng.randrange(-3, 4) for _ in range(dim)]
                          for _ in range(dim)]
                if rank(matrix) == dim:
                    break  # invertible
            recombined = []
            for row in matrix:
                section = HomogPoly.zero(case.flag.ambient_vars,
                                         case.section_degree(m))
                for coeff, vec in zip(row, basis):
                    section = section + coeff * vec
                recombined.append(reduce_section(case, section))
            assert expansion_value_set(recombined, case.flag) == reference


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
        case.flag.final_stage.value_sets(1)
    # the echelon grows from degree 0, so a higher top names d' = 1 too
    with pytest.raises(ZeroSectionError, match="d' = 1"):
        case.flag.final_stage.value_sets(4)
    with pytest.raises(ZeroSectionError):
        semigroup(case, "complete", 2)
    with pytest.raises(ZeroSectionError,
                       match="vanishes identically on the final curve"):
        case.flag.final_stage.contact_order()
    # the final form is x, so the contact check fails with that cause
    contact = verify_flag(case).checks[-1]
    assert not contact.passed
    assert "vanishes identically on the final curve" in contact.detail


def test_dependent_basis_rejected(fermat):
    x = HomogPoly.variable(4, 0)
    y = HomogPoly.variable(4, 1)
    with pytest.raises(ValueError, match="not linearly independent"):
        expansion_value_set([x, y, x + y], fermat.flag)


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
        for i in sg.levels:
            for j in sg.levels:
                if i + j not in sg.levels:
                    continue
                target = set(sg.level(i + j))
                for u in sg.level(i):
                    for v in sg.level(j):
                        assert tuple(a + b for a, b in zip(u, v)) in target


def test_kind_agreement(p2, p3, quadric, fermat):
    for case in (p2, p3, quadric, fermat):
        a = semigroup(case, "complete", 3)
        b = semigroup(case, "powers", 3)
        assert a.levels == b.levels


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
        for m, vectors in semigroup(case, kind, max_level).levels.items():
            facets = scaled_simplex(n, c * m, stage.curve_degree).facets()
            assert all(sum(a * x for a, x in zip(normal, v)) >= offset
                       for v in vectors for normal, offset in facets), m


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CASE_NAMES)
def test_semigroup_matches_level_echelon(name, kind):
    # the levels assembled from the final curve's value sets equal the
    # pivot columns of each level's flag expansions
    for c, max_level in ((1, 4), (2, 2)):
        levels = semigroup(make_case(name, c), kind, max_level).levels
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


def test_semigroup_and_final_stage_keep_no_state(fermat):
    # both are frozen values: reading levels, value sets and the contact
    # order leaves their attributes as they were
    sg = semigroup(fermat, "complete", 3)
    stage = fermat.flag.final_stage
    before = (dict(vars(sg)), dict(vars(stage)))
    sg.levels, sg.level(2), stage.value_sets(4), stage.contact_order()
    assert (dict(vars(sg)), dict(vars(stage))) == before
    for value in (sg, stage):
        with pytest.raises(FrozenInstanceError):
            value.cache = {}


def test_semigroup_rejects_a_system_of_another_dimension(monkeypatch,
                                                          quadric):
    dimension = GradedSystem.dimension
    monkeypatch.setattr(GradedSystem, "dimension",
                        lambda system, level: dimension(system, level)
                        - (level == 2))
    with pytest.raises(ValueError, match="level 2"):
        semigroup(quadric, "powers", 3)


@pytest.mark.parametrize("kind", KINDS)
def test_semigroup_echelons_each_final_degree_once(monkeypatch, kind):
    # one semigroup call enters each standard row t^i u^(d'-i) of the final
    # line, conic or cubic once, for d' <= c*M = 6: the growth
    # (C(d'+2, 2) - C(d'-e+2, 2)) - (C(d'+1, 2) - C(d'-e+1, 2)) = min(d'+1, e)
    # of the graded piece's dimension in each degree; a second call keeps
    # nothing of the first
    entered = []
    add = Echelon.add

    def counting_add(echelon, row):
        entered[-1] += 1
        return add(echelon, row)
    monkeypatch.setattr(Echelon, "add", counting_add)
    for name in ("p3", "quadric_surface", "fermat_cubic"):
        case = make_case(name, 2)
        e = case.flag.final_stage.curve_degree

        def dim(d):
            return comb(d + 2, 2) - comb(max(d - e + 2, 0), 2)
        entered.clear()
        for _call in range(2):
            entered.append(0)
            semigroup(case, kind, 3)
        expected = sum(dim(d) - (dim(d - 1) if d else 0) for d in range(7))
        assert entered == [expected, expected] == [dim(6), dim(6)], name


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
        assert polytope_equal(body_2, convex_hull(
            [2 * x for x in v] for v in body_1.vertices))


def _hull_of_every_vector(sg):
    """The hull of v/m over every vector v of every level m."""
    return convex_hull(tuple(Fraction(x, m) for x in v)
                       for m, level in sg.levels.items() for v in level)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_body_matches_hull_of_every_vector(name):
    # the body is hulled from each piece's corners; the oracle hulls every
    # enumerated vector
    for c in (1, 2):
        for kind in KINDS:
            for max_level in (1, 2, 3, 4):
                sg = semigroup(make_case(name, c), kind, max_level)
                assert body_estimate(sg) == _hull_of_every_vector(sg), (
                    c, kind, max_level)


def test_curve_case_without_steps_matches_oracles():
    # n = 1: the plane cubic itself, flagged at its flex (1:-1:0), so every
    # vector is (j,) with j in V(c*m) and no prefix
    import json
    relation = HomogPoly(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    flag = Flag(3, relation, [], HomogPoly.linear_form([1, 1, 0]),
                (1, -1, 0))
    for c in (1, 2):
        sg = semigroup(CaseStudy("cubic_curve", flag, c), "complete", 4)
        assert sg.steps == 0
        assert sg.level(1) == tuple((j,) for j in sg.curve[c])
        assert sg.fibers(1) == [(0, sg.curve[c])]
        assert body_estimate(sg) == _hull_of_every_vector(sg)
        assert body_estimate(sg) == scaled_simplex(1, c, 3)
        assert (generation_degree(sg, 4)
                == brute_generation_degree(sg.levels, 4) == 1)
        payload = {"case": "cubic_curve", "kind": "complete", "M": 4,
                   "levels": {str(m): [list(vec) for vec in level]
                              for m, level in sg.levels.items()}}
        assert semigroup_to_json(sg) == json.dumps(payload, indent=2) + "\n"


def test_body_skips_an_empty_fiber(p2):
    # V(1) is empty, so the fiber over s = 0 at level 1 and over s = 1 at
    # level 2 have no corner
    sg = OkounkovSemigroup(p2, "complete", 3, ((0,), (), (1,), (2,)), 1)
    assert sg.fibers(1) == [(0, ()), (1, (0,))]
    assert body_estimate(sg) == _hull_of_every_vector(sg)


@pytest.mark.parametrize("name, max_level", [
    ("quadric_surface", 30), ("p3", 20), ("fermat_cubic", 24)])
def test_body_matches_hull_of_every_vector_at_large_levels(name, max_level):
    sg = semigroup(make_case(name), "complete", max_level)
    assert body_estimate(sg) == _hull_of_every_vector(sg)


def test_vertex_criterion_examples():
    triangle = scaled_simplex(2, 1, 3)
    assert vertex_criterion(triangle, {(0, 0), (0, 1), (0, 3), (1, 0)})
    assert not vertex_criterion(scaled_simplex(2, 1, 1), {(0, 0), (1, 0)})
    from okbody.convex import convex_hull
    origin = convex_hull([(0, 0)])
    assert vertex_criterion(origin, {(0, 0)})


def test_vertex_criterion_rejects_fractional_vertices():
    from okbody.convex import convex_hull
    half = convex_hull([(0, 0), (Fraction(1, 2), Fraction(0))])
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
    assert fake.levels == {1: ((0,),), 2: ((1,),)}
    assert generation_degree(fake, 1) is None
    assert generation_degree(fake, 2) == 2


@pytest.mark.parametrize("name", CASE_NAMES)
def test_generation_degree_matches_tuple_oracle(name):
    for c in (1, 2):
        for max_level in (1, 2, 3, 4):
            sg = semigroup(make_case(name, c), "complete", max_level)
            assert (generation_degree(sg, max_level)
                    == brute_generation_degree(sg.levels, max_level)
                    == 1), (c, max_level)


def _fake(c, steps, curve):
    return OkounkovSemigroup(make_case("p2", c), "complete",
                             (len(curve) - 1) // c, curve, steps)


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
    sg = _fake(c, steps, curve)
    for kmax in range(1, sg.max_level + 1):
        oracle = brute_generation_degree(sg.levels, kmax)
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
        sg = _fake(c, steps, curve)
        degree = generation_degree(sg, sg.max_level)
        assert degree == brute_generation_degree(sg.levels, sg.max_level), \
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
        sg = _fake(c, steps, curve)
        assert (generation_degree(sg, max_level)
                == brute_generation_degree(sg.levels, max_level)), curve


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


@pytest.mark.parametrize("name", CASE_NAMES)
def test_semigroup_json_matches_json_dumps(name):
    import json
    for c in (1, 2):
        for kind in KINDS:
            sg = semigroup(make_case(name, c), kind, 3)
            payload = {"case": sg.case.name, "kind": sg.kind,
                       "M": sg.max_level,
                       "levels": {str(m): [list(vec) for vec in level]
                                  for m, level in sg.levels.items()}}
            assert (semigroup_to_json(sg)
                    == json.dumps(payload, indent=2) + "\n"), (c, kind)


def test_semigroup_json_of_empty_levels_matches_json_dumps(p2):
    import json
    sg = OkounkovSemigroup(p2, "complete", 2, ((), (), (1, 2)), 0)
    assert sg.levels == {1: (), 2: ((1,), (2,))}
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
