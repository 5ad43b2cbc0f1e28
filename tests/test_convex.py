import json
import random
from fractions import Fraction
from itertools import product
from math import lcm, log

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import okbody.convex
from okbody.convex import (RationalPolytope, _lift, normal_fan_rays,
                           polytope_equal, polytope_to_json, scaled_simplex)
from okbody.okounkov import body_estimate, semigroup, vertex_criterion
from okbody.varieties import CASE_NAMES, make_case, make_negative_control

from oracles import (brute_hull_vertices_2d, brute_hull_vertices_nd,
                     every_quotient, in_hull_nd, matches_reference_hull,
                     orient, reference_hull)
from strategies import fake_semigroup, fake_semigroups, small_fractions

F = Fraction

coords = small_fractions(6, 5)
points_2d = st.lists(st.tuples(coords, coords), min_size=1, max_size=14)


def test_single_point_hull():
    assert RationalPolytope(2, [(0, 0)]).vertices == ((F(0), F(0)),)
    assert RationalPolytope(2, [(1, 2)] * 3).polygon == ((1, 2),)


def test_interior_point_removed():
    hull = RationalPolytope(2, [(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
    assert hull.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError, match=r"not a pair \(q, y\)"):
        RationalPolytope(2, [(0, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="needs a vertex"):
        RationalPolytope(2, [])


def test_inexact_coordinates_rejected():
    # a float would enter as its binary expansion, 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError, match="0.1"):
        RationalPolytope(1, [(0, 0.1)])
    with pytest.raises(TypeError, match="0.5"):
        RationalPolytope(2, [(0, 0), (1, 0.5)])
    with pytest.raises(TypeError, match="'1/2'"):
        RationalPolytope(2, [("1/2", 0)])
    with pytest.raises(TypeError, match="0.5"):
        RationalPolytope(2, [(0, 0), (0.5, 1)])


def test_dimension_must_be_a_positive_int():
    for dim in (2.0, "2", None, True):
        with pytest.raises(TypeError, match="dim must be an int"):
            RationalPolytope(dim, [(0, 0)])
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be at least 1"):
            RationalPolytope(dim, [(0, 0)])
    with pytest.raises(ValueError, match="dim must be at least 1"):
        RationalPolytope(0, [()])


@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_negative_q_rejected_in_every_dimension(dim):
    # in dimension 1 a point with q > 0 has no lift, but one with q < 0 is
    # still refused rather than dropped
    for points in ([(-1, 0), (0, 0)], [(-1, 0), (0, 0), (0, 1)],
                   [(0, 0), (2, 1), (F(-1, 3), 5)], [(-1, 2)]):
        with pytest.raises(ValueError, match="q < 0"):
            RationalPolytope(dim, points)


def test_each_polytope_is_hulled_once(monkeypatch):
    # the one hull routine runs once per polytope: on scaled_simplex's 3
    # points, and on body_estimate's chain of at most 2(c*M + 1) corner
    # pairs, where every level's fibers are c*M^2/2
    handed, hull = [], okbody.convex._hull

    def counting_hull(points):
        points = list(points)
        handed.append(len(points))
        return hull(points)
    monkeypatch.setattr(okbody.convex, "_hull", counting_hull)
    for n, c, d in product((1, 2, 3, 4, 5), (1, 2), (1, 3)):
        handed.clear()
        scaled_simplex(n, c, d)
        assert handed == [3], (n, c, d)
    for name, max_level in (("quadric_surface", 7), ("fermat_cubic", 300)):
        case = make_case(name)
        sg = semigroup(case, "complete", max_level)
        handed.clear()
        body, calls = body_estimate(sg), handed[:]
        handed.clear()
        assert body == case.expected_body() and handed == [3], name
        assert len(calls) == 1, name
        assert len(body.polygon) == 3 < calls[0], name
        assert calls[0] <= 2 * (case.c * max_level + 1), name
    assert body == scaled_simplex(2, 1, 3)


def test_readers_put_no_polytope_on_a_chain_again(monkeypatch):
    # the normal fan and the text read the chain and scale kept at
    # construction; neither rescales the polytope's coordinates
    polytopes = []
    for name, c in product(CASE_NAMES, (1, 2)):
        case = make_case(name, c)
        polytopes += [case.expected_body(),
                      body_estimate(semigroup(case, "complete", 3))]

    def refuse(points):
        raise AssertionError("a reader rescaled a polytope")
    monkeypatch.setattr(okbody.convex, "_integer_chain", refuse)
    for polytope in polytopes:
        rays = normal_fan_rays(polytope)
        assert rays == tuple(normal for normal, _ in reference_hull(
            polytope.vertices)[2])
        assert json.loads(polytope_to_json(polytope))["dim"] == polytope.dim


def test_one_polygon_over_any_scale_is_one_polytope():
    # a polygon handed to the lift over denominators 1, 2 and 6 times its
    # own, or to the constructor with a point inside, keeps the chain over
    # its least common denominator (in dimension 1, that of its face on
    # q = 0)
    for polygon, least, on_q0 in (
            ([(0, 0), (2, 0), (0, 2)], 1, 1),
            ([(0, 0), (F(1, 2), 0), (0, F(3, 2))], 2, 2),
            ([(0, F(-1, 3)), (F(5, 6), 1), (0, 2)], 6, 3)):
        inside = tuple(F(sum(point), 6) for point in zip(*polygon))
        for dim in (1, 2, 3):
            made = [_lift(RationalPolytope.__new__(RationalPolytope), dim,
                          k * least, [(int(q * k * least), int(y * k * least))
                                      for q, y in polygon])
                    for k in (1, 2, 6)]
            made.append(RationalPolytope(dim, polygon + [inside]))
            first = made[0]
            assert first.scale == (on_q0 if dim == 1 else least)
            for polytope in made:
                assert (polytope.scale, polytope.chain) == (first.scale,
                                                            first.chain)
                assert polytope == first and hash(polytope) == hash(first)


def _counterclockwise(chain):
    return all(orient(a, b, c) > 0 for a, b, c in zip(
        chain, chain[1:] + chain[:1], chain[2:] + chain[:2]))


@given(points_2d)
@settings(max_examples=120, deadline=None)
def test_hull_matches_brute_force_oracle(points):
    # the library's planar chain and the reference double description
    # against the Caratheodory search, on the points shifted by 6 to q >= 0
    points = [(q + 6, y) for q, y in points]
    exact = [(F(a), F(b)) for a, b in points]
    vertices = brute_hull_vertices_2d(exact)
    chain = RationalPolytope(2, points).polygon
    assert sorted(chain) == vertices == reference_hull(points)[1]
    assert chain[0] == vertices[0]
    assert len(chain) < 3 or _counterclockwise(chain)


@given(points_2d)
@settings(max_examples=60, deadline=None)
def test_hull_idempotent_and_permutation_invariant(points):
    points = [(q + 6, y) for q, y in points]
    hull = RationalPolytope(2, points).polygon
    again = RationalPolytope(2, hull).polygon
    shuffled = RationalPolytope(2, list(reversed(points)) + points).polygon
    assert hull == again == shuffled


def test_hull_merges_equal_points_given_as_ints_or_fractions():
    # equal points merge whatever their types; the polygon reads back as
    # Fractions, and the polytope keeps the chain over its least scale
    first, *rest = [(1, 0), (F(1), F(0)), (F(1), 0)]
    square = [(0, 0), (F(0), F(0)), (F(2), 0), (2, 2), (0, F(2)),
              (F(1, 2), F(1, 2))]
    polytope = RationalPolytope(2, square[:2] + [first] + rest + square[2:])
    hull = polytope.polygon
    assert hull == ((0, 0), (2, 0), (2, 2), (0, 2))
    assert {type(c) for point in hull for c in point} == {F}
    assert [F(0)] * 4 == [hull[0][0], hull[0][1], hull[1][1], hull[3][0]]
    assert [F(2)] * 4 == [hull[1][0], hull[2][0], hull[2][1], hull[3][1]]
    assert (polytope.scale, polytope.chain) == (1, ((0, 0), (2, 0), (2, 2),
                                                    (0, 2)))
    point = RationalPolytope(2, rest[::-1] + [first])
    assert point.polygon == ((1, 0),) and point.chain == ((1, 0),)


def test_hull_at_large_denominators_matches_brute_force():
    # coordinates k + 1/a: the first cloud's a are the 62 largest prime
    # powers up to 300, one per coordinate, so their lcm, the scale of the
    # chain's integer keys, is lcm(1..300), a 130-digit integer; the other
    # clouds draw a from 1..300
    primes = [p for p in range(2, 301) if all(p % q for q in range(2, p))]
    powers = [p ** int(log(300, p) + 1e-9) for p in primes]
    rng = random.Random(300)
    rng.shuffle(powers)
    clouds = [list(zip(powers[::2], powers[1::2]))] + [
        [(rng.randint(1, 300), rng.randint(1, 300))
         for _ in range(rng.randint(1, 14))] for _trial in range(12)]
    for number, denominators in enumerate(clouds):
        # shifted by 9 to q > 0
        points = [(F(rng.randint(-9, 9) * a + 1, a) + 9,
                   F(rng.randint(-9, 9) * b + 1, b)) for a, b in denominators]
        if not number:
            assert lcm(*(c.denominator for p in points for c in p)) == lcm(
                *range(1, 301))
        chain = RationalPolytope(2, points).polygon
        assert sorted(chain) == brute_hull_vertices_2d(points)
        assert chain[0] == min(points)
        assert len(chain) < 3 or _counterclockwise(chain)


# -- the body against the reference hull of its quotients -----------------------


def test_body_of_level_one_points():
    # level 1 of V(0) = {0}, V(1) = {0, 3}: (0, 0), (0, 3) and (1, 0)
    sg = fake_semigroup(1, 1, ((0,), (0, 3)))
    assert body_estimate(sg) == RationalPolytope(2, [(0, 0), (1, 0), (0, 3)])
    assert matches_reference_hull(body_estimate(sg), every_quotient(sg))


def test_body_divides_by_level():
    # level 1 is empty and level 2 is (6,) alone; with steps level 1 would
    # hold (1, 0), the pair of V(0) = {0}
    sg = fake_semigroup(1, 0, ((), (), (6,)))
    assert sg.level(1) == () and sg.level(2) == ((6,),)
    assert body_estimate(sg).vertices == ((F(3),),)


def test_body_without_vectors_rejected():
    with pytest.raises(ValueError, match="needs a vertex"):
        body_estimate(fake_semigroup(1, 0, ((), ())))


@pytest.mark.parametrize("max_level", (1, 2))
@pytest.mark.parametrize("name", CASE_NAMES)
def test_body_of_shipped_cases_matches_oracle(name, max_level):
    sg = semigroup(make_case(name), "complete", max_level)
    assert list(body_estimate(sg).vertices) == brute_hull_vertices_nd(
        every_quotient(sg))


@given(fake_semigroups(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_body_estimate_monotone(sg, levels):
    # the body at max_level <= M lies in the body at M
    small = fake_semigroup(
        sg.case.c, sg.steps,
        sg.curve[:sg.case.c * min(levels, sg.max_level) + 1])
    large = body_estimate(sg).vertices
    assert all(in_hull_nd(v, large) for v in body_estimate(small).vertices)


@given(fake_semigroups())
@settings(max_examples=100, deadline=None)
def test_body_estimate_matches_hull_of_quotients(sg):
    # the lifted chain against the reference hull of every quotient
    assert matches_reference_hull(body_estimate(sg), every_quotient(sg))


def _fraction_corners(sg):
    """Every level's fiber pairs (s, min V)/m and (s, max V)/m, as
    Fractions."""
    return [(F(s, m), F(j, m)) for m in range(1, sg.max_level + 1)
            for s, values in sg.fibers(m) for j in values[:1] + values[-1:]]


def _assert_one_polytope(body, polytope):
    assert body == polytope and hash(body) == hash(polytope)
    assert (body.scale, body.chain, body.lifted) == (
        polytope.scale, polytope.chain, polytope.lifted)
    assert body.polygon == polytope.polygon
    assert body.vertices == polytope.vertices
    assert polytope_to_json(body) == polytope_to_json(polytope)
    if polytope.is_full_dimensional():
        assert normal_fan_rays(body) == normal_fan_rays(polytope)
    else:
        with pytest.raises(ValueError, match="not full-dimensional"):
            normal_fan_rays(body)


@pytest.mark.parametrize("max_level", (1, 2, 3, 7, 12))
@pytest.mark.parametrize("name", CASE_NAMES)
def test_body_chain_matches_the_fraction_corners(name, max_level):
    # body_estimate lifts its chain over lcm(1..M) as it is; the
    # constructor scales Fraction corners over their own denominator
    scale, reduced = lcm(*range(1, max_level + 1)), []
    for c in (1, 2, 3):
        sg = semigroup(make_case(name, c), "complete", max_level)
        body = body_estimate(sg)
        _assert_one_polytope(body, RationalPolytope(
            sg.steps + 1, _fraction_corners(sg)))
        reduced.append(lcm(*(x.denominator for v in body.polygon for x in v)))
    assert max_level == 1 or any(d < scale for d in reduced), reduced


@given(fake_semigroups())
@settings(max_examples=100, deadline=None)
def test_body_chain_matches_the_fraction_corners_of_made_up_curves(sg):
    _assert_one_polytope(body_estimate(sg), RationalPolytope(
        sg.steps + 1, _fraction_corners(sg)))


# -- lifts -------------------------------------------------------------------------


def _seeded_polygons():
    """Seeded planar point sets in q >= 0: some reach q = 0, at a vertex or
    along an edge, some lie in q >= 1/2, and some on q = 0 alone."""
    rng = random.Random(2026)
    sets = []
    for low in (0, 0, 1):
        for _ in range(8):
            points = [(F(rng.randrange(low, 7), rng.randrange(1, 3)),
                       F(rng.randrange(-5, 6), rng.randrange(1, 3)))
                      for _ in range(rng.randrange(1, 8))]
            sets.append(points + [(0, 0)] * (low == 0 and rng.random() < .5))
    sets += [[(0, F(rng.randrange(-5, 6), 2)) for _ in range(k)]
             for k in (1, 2, 4)]
    return sets


def _lifts(points, dim):
    """Every point's lifts into dimension dim: (q*e_i, y) for each i when
    q > 0, (0, y) when q = 0."""
    zero = (0,) * (dim - 1)
    return [zero[:i] + (q,) + zero[i + 1:] + (y,) if q else zero + (y,)
            for q, y in points for i in range(dim - 1 if q else 1)]


@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_lifts_match_the_reference_hull(dim):
    rng = random.Random(dim)
    for points in _seeded_polygons():
        if dim == 1:
            points = [(0, y) for _q, y in points]
        lift = RationalPolytope(dim, points)
        assert matches_reference_hull(lift, lift.vertices), points
        assert matches_reference_hull(lift, _lifts(points, dim)), points
        assert RationalPolytope(dim, lift.polygon) == lift
        shuffled = rng.sample(points, len(points)) + list(lift.polygon)
        assert RationalPolytope(dim, shuffled) == lift


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_scaled_simplex_matches_the_reference_hull(n):
    for c, d in ((1, 1), (2, 3), (3, 2)):
        simplex = scaled_simplex(n, c, d)
        assert matches_reference_hull(simplex, simplex.vertices)
        assert len(simplex.vertices) == len(normal_fan_rays(simplex)) == n + 1


# -- scaling and equality --------------------------------------------------------


def _scaled(polytope, factor):
    return RationalPolytope(polytope.dim, (
        (factor * q, factor * y) for q, y in polytope.polygon))


def test_scaling_the_polygon_examples():
    unit = scaled_simplex(2, 1, 1)
    assert _scaled(unit, 2) == scaled_simplex(2, 2, 1)
    assert _scaled(unit, 1) == unit
    assert _scaled(scaled_simplex(2, 1, 3), 2) == scaled_simplex(2, 2, 3)


@given(a=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
       b=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_scaling_the_polygon_composes(a, b):
    simplex = scaled_simplex(2, 1, 3)
    assert _scaled(_scaled(simplex, a), b) == _scaled(simplex, a * b)


def test_polytope_equal_examples():
    unit = scaled_simplex(2, 1, 1)
    square = RationalPolytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert polytope_equal(unit, unit)
    assert not polytope_equal(unit, square)
    redundant = RationalPolytope(2, [(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2))])
    assert polytope_equal(redundant, unit)


def test_equal_polytopes_are_one_value():
    # field-wise == and hash: the lifts are read off the chain, the hull of
    # the given points over its least scale, so equal polytopes collapse
    # in a set
    unit = scaled_simplex(2, 1, 1)
    redundant = RationalPolytope(2, [(0, 0), (1, 0), (0, 1), (F(1, 3), F(1, 3))])
    assert normal_fan_rays(redundant) == normal_fan_rays(unit)
    assert unit == redundant and hash(unit) == hash(redundant)
    assert len({unit, redundant, scaled_simplex(2, 1, 1)}) == 1
    assert unit != scaled_simplex(2, 1, 2)
    assert unit != RationalPolytope(2, unit.polygon[:2])
    assert unit != unit.vertices


def _mixed(points, rng):
    """The points with each integral coordinate an int or a Fraction, at
    random."""
    return [tuple(int(c) if c.denominator == 1 and rng.random() < .5 else c
                  for c in point) for point in points]


@pytest.mark.parametrize("dim", (1, 2, 3, 4))
def test_ints_fractions_and_a_mix_give_equal_polytopes(dim):
    # the chain scales ints and Fractions alike, and the polytope reads
    # back Fractions only, whatever came in
    rng = random.Random(dim)
    for points in _seeded_polygons():
        if dim == 1:
            points = [(0, y) for _q, y in points]
        whole = [(F(q * 2), F(y * 2)) for q, y in points]
        integral = [(int(q), int(y)) for q, y in whole]
        polytopes = [RationalPolytope(dim, inputs) for inputs in (
            points, _mixed(points, rng), whole, integral,
            _mixed(whole, rng))]
        for first, *rest in (polytopes[:2], polytopes[2:]):
            assert all(p == first and hash(p) == hash(first)
                       for p in rest), points
            if first.is_full_dimensional():
                assert all(normal_fan_rays(p) == normal_fan_rays(first)
                           for p in rest)
        for polytope in polytopes:
            assert all(type(c) is F for v in polytope.vertices for c in v)
            assert all(type(c) is F for v in polytope.polygon for c in v)


def test_vertex_of_wrong_length_rejected():
    with pytest.raises(ValueError, match=r"not a pair \(q, y\)"):
        RationalPolytope(2, ((F(0), F(0)), (F(1),)))
    with pytest.raises(ValueError, match=r"not a pair \(q, y\)"):
        RationalPolytope(1, ((F(0),),))
    for dim in (1, 2, 3):
        for points in ([(0, 0, 0)], [()]):
            with pytest.raises(ValueError, match=r"not a pair \(q, y\)"):
                RationalPolytope(dim, points)


def test_scaled_simplex_refusals():
    # the refusals of the constructor it once called, and any c or d other
    # than an int
    for n in (2.0, "2", None, True):
        with pytest.raises(TypeError):
            scaled_simplex(n, 1, 1)
    for c, d in ((1.0, 1), (1, 1.5), ("1", 1), (None, 1), (F(3, 2), 1)):
        with pytest.raises(TypeError):
            scaled_simplex(2, c, d)
    for n, c, d in ((0, 1, 1), (2, 0, 1), (2, 1, -1), (0.0, 1, 1)):
        with pytest.raises(ValueError, match="must be positive"):
            scaled_simplex(n, c, d)


def test_scaled_simplex_vertices():
    assert scaled_simplex(2, 1, 3).vertices == (
        (F(0), F(0)), (F(0), F(3)), (F(1), F(0)))
    assert scaled_simplex(2, 1, 2).vertices == (
        (F(0), F(0)), (F(0), F(2)), (F(1), F(0)))
    assert scaled_simplex(3, 2, 1).vertices == (
        (F(0), F(0), F(0)), (F(0), F(0), F(2)), (F(0), F(2), F(0)),
        (F(2), F(0), F(0)))


# -- facets and the normal fan ------------------------------------------------------


def test_normal_fan_unit_square():
    square = RationalPolytope(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert set(normal_fan_rays(square)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_normal_fan_unit_simplex():
    assert set(normal_fan_rays(scaled_simplex(2, 1, 1))) == {
        (1, 0), (0, 1), (-1, -1)}


def test_normal_fan_weighted_triangle():
    # facet through (1,0) and (0,3): 3x + y = 3, inward normal -(3,1)
    triangle = scaled_simplex(2, 1, 3)
    assert set(normal_fan_rays(triangle)) == {(1, 0), (0, 1), (-3, -1)}


def test_normal_fan_requires_full_dimension():
    # a point in every dimension, a segment in the plane and in space, and
    # a triangle lifted to dimension 1, where only its face on q = 0 is left
    for dim, points in ((1, [(0, 0)]), (2, [(0, 0)]), (3, [(1, 2)]),
                        (2, [(0, 0), (1, 1)]), (3, [(0, 0), (0, 1)]),
                        (1, [(0, 0), (1, 0), (1, 1)])):
        with pytest.raises(ValueError, match="not full-dimensional"):
            normal_fan_rays(RationalPolytope(dim, points))


def test_simplex_vertices_lie_on_dim_facets():
    # a facet's offset is the least value of its normal on the vertices
    simplex = scaled_simplex(3, 1, 2)
    vertices, rays = simplex.vertices, normal_fan_rays(simplex)
    values = [[sum(a * c for a, c in zip(normal, v)) for v in vertices]
              for normal in rays]
    for i in range(len(vertices)):
        assert sum(row[i] == min(row) for row in values) == 3


# -- export ----------------------------------------------------------------------


def _seeded_polytopes():
    """Seeded polytopes in dimensions 1-5, y of either sign, denominators
    up to 10^12."""
    rng = random.Random(34)
    for dim in (1, 2, 3, 4, 5):
        for _ in range(12):
            top = rng.choice((3, 10 ** 12))
            points = []
            for _ in range(rng.randrange(1, 9)):
                dq, dy = rng.randrange(1, top + 1), rng.randrange(1, top + 1)
                points.append((F(rng.randrange(0, 5 * dq) if dim > 1 else 0,
                                 dq), F(rng.randrange(-5 * dy, 5 * dy), dy)))
            yield RationalPolytope(dim, points)


def _seeded_lifts():
    """The seeded polygons lifted into dimensions 1-4, as given, doubled
    and thirded, so that some lifts are integral and some are not."""
    for dim in (1, 2, 3, 4):
        for points in _seeded_polygons():
            if dim == 1:
                points = [(0, y) for _q, y in points]
            for factor in (1, 2, F(1, 3)):
                yield RationalPolytope(dim, [(factor * q, factor * y)
                                             for q, y in points])


def test_polytope_json_matches_json_dumps():
    polytopes = list(_seeded_polytopes()) + list(_seeded_lifts())
    for name in CASE_NAMES:
        case = make_case(name)
        polytopes += [case.expected_body(),
                      body_estimate(semigroup(case, "complete", 3))]
    assert any(c.denominator > 10 ** 6 for polytope in polytopes
               for v in polytope.vertices for c in v)
    for polytope in polytopes:
        payload = {"dim": polytope.dim, "vertices": [
            [f"{c.numerator}/{c.denominator}" for c in v]
            for v in polytope.vertices]}
        assert polytope_to_json(polytope) == json.dumps(
            payload, indent=2) + "\n", polytope.vertices


def _fraction_rule(candidate, level_one):
    """The vertex criterion read off the Fraction vertices: a Fraction
    equals an int exactly when it is integral."""
    return set(candidate.vertices) <= set(level_one)


def test_criterion_matches_the_fraction_vertices():
    # level-1 sets that hold every vertex, miss one, or hold only the
    # vertices' floors
    outcomes = set()
    for polytope in _seeded_lifts():
        vertices = polytope.vertices
        integral = [tuple(map(int, v)) for v in vertices
                    if all(c.denominator == 1 for c in v)]
        floors = [tuple(c.numerator // c.denominator for c in v)
                  for v in vertices]
        for level_one in (integral, integral[1:], floors,
                          floors + integral + [(7,) * polytope.dim]):
            rule = _fraction_rule(polytope, level_one)
            assert vertex_criterion(polytope, level_one) == rule, vertices
            outcomes.add(rule)
    assert outcomes == {False, True}


def test_criterion_matches_the_fraction_vertices_on_the_cases(
        off_flex_cubic):
    # every shipped case, the negative control and the cubic off its flex,
    # whose expected segment [0, 3] has a vertex missing from level 1, and
    # made-up curves whose bodies have fractional vertices
    cases = [make_case(name, c) for name in CASE_NAMES for c in (1, 2)]
    outcomes = set()
    for case in cases + [make_negative_control(), off_flex_cubic]:
        for max_level in (1, 2, 3, 5):
            sg = semigroup(case, "complete", max_level)
            for candidate in (case.expected_body(), body_estimate(sg)):
                rule = _fraction_rule(candidate, sg.level(1))
                assert vertex_criterion(candidate, sg.level(1)) == rule
                outcomes.add(rule)
    for steps, curve in ((1, ((0,), (0, 1), (5,))), (0, ((), (1,), (3,))),
                         (2, ((0,), (), (1,)))):
        sg = fake_semigroup(1, steps, curve)
        body = body_estimate(sg)
        assert body.scale == 2
        for level_one in (sg.level(1), [tuple(map(int, v))
                                        for v in body.vertices]):
            assert vertex_criterion(body, level_one) is False
            assert _fraction_rule(body, level_one) is False
    assert outcomes == {False, True}


def test_polytope_json_round_trip_and_format():
    triangle = scaled_simplex(2, 1, 3)
    text = polytope_to_json(triangle)
    assert json.loads(text) == {"dim": 2, "vertices": [
        ["0/1", "0/1"], ["0/1", "3/1"], ["1/1", "0/1"]]}
    assert polytope_to_json(triangle) == text  # byte-stable
