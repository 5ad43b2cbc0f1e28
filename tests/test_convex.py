import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from okbody.convex import (RationalPolytope, convex_hull, normal_fan_rays,
                           polytope_equal, polytope_to_json, scaled_simplex)
from okbody.okounkov import semigroup
from okbody.varieties import CASE_NAMES, make_case

from oracles import (affine_dimension, brute_facets, brute_hull_vertices_2d,
                     brute_hull_vertices_nd, in_hull_nd)

F = Fraction

coords = st.fractions(min_value=-6, max_value=6, max_denominator=5)
points_2d = st.lists(st.tuples(coords, coords), min_size=1, max_size=14)


def test_single_point_hull():
    assert convex_hull([(0, 0)]).vertices == ((F(0), F(0)),)


def test_interior_point_removed():
    hull = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
    assert hull.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        convex_hull([(0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        convex_hull([])


def test_inexact_coordinates_rejected():
    # a float would enter as its binary expansion, 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError, match="0.1"):
        convex_hull([(0.1,)])
    with pytest.raises(TypeError, match="0.5"):
        convex_hull([(0, 0), (1, 0.5)])
    with pytest.raises(TypeError, match="'1/2'"):
        convex_hull([("1/2", 0)])


@given(points_2d)
@settings(max_examples=120, deadline=None)
def test_hull_matches_brute_force_oracle(points):
    hull = convex_hull(points)
    assert list(hull.vertices) == brute_hull_vertices_2d(
        [(F(a), F(b)) for a, b in points])


@given(points_2d)
@settings(max_examples=60, deadline=None)
def test_hull_idempotent_and_permutation_invariant(points):
    hull = convex_hull(points)
    again = convex_hull(hull.vertices)
    shuffled = convex_hull(list(reversed(points)) + points)
    assert hull == again == shuffled


def test_three_dimensional_hull():
    cube = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    hull = convex_hull(cube + [(F(1, 2), F(1, 2), F(1, 2)), (0, 0, 0)])
    assert len(hull.vertices) == 8


# -- n-dimensional hulls against the Caratheodory and facet oracles -------------


def _nd_clouds():
    rng = random.Random(17)
    clouds = {}
    for dim, size in ((3, 8), (4, 7)):
        for index in range(3):
            clouds[f"random_{dim}d_{index}"] = [
                tuple(F(rng.randrange(-4, 5), rng.randrange(1, 3))
                      for _ in range(dim)) for _ in range(size)]
    cube = [(i, j, k) for i in (0, 2) for j in (0, 2) for k in (0, 2)]
    clouds["repeated"] = cube + cube[:3] + [(1, 1, 1), (1, 1, 1)]
    clouds["coplanar"] = cube + [(1, 1, 0), (1, 0, 0), (2, 1, 1)]
    clouds["segment"] = [(t, 2 * t, -t, F(3, 2)) for t in (F(1, 2), 0, 2, 1)]
    clouds["polygon_in_3space"] = [(x, y, x + y) for x, y in (
        (0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0), (F(1, 2), F(3, 2)),
        (3, F(1, 2)))]
    clouds["single_point"] = [(F(1, 3), 2, -1)] * 3
    clouds["simplex_4d"] = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0),
                            (0, 0, 2, 0), (0, 0, 0, 2), (F(1, 2),) * 4,
                            (1, 1, 0, 0)]
    # points inside edges that lie on four facets: their tight facets have
    # rank 3 < 4, so only the rank test rejects them as vertices
    clouds["edge_points_4d"] = [
        (1, -3, 0, 2), (-2, 0, 2, -3), (1, -2, 3, 0), (0, 1, -2, -1),
        (-2, 2, -2, 3), (0, -1, -3, 0), (3, 1, 2, -3),
        (F(3, 2), 0, F(-1, 2), F(-3, 2)), (F(1, 2), -2, F(-3, 2), 1)]
    # building this hull meets two rays with at least four common tight
    # vertices that are not adjacent; without the combinatorial adjacency
    # test their combination would survive as a redundant facet
    clouds["adjacency_5d"] = [
        (0, 0, -1, -1, 0), (1, 1, 0, 0, 0), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1),
        (0, -1, -1, -1, 1), (1, 1, 0, -1, -1), (1, -1, 1, -1, 1),
        (1, -1, 0, -1, 1), (0, -1, 0, 1, 0)]
    return clouds


ND_CLOUDS = _nd_clouds()


@pytest.mark.parametrize("name", sorted(ND_CLOUDS))
def test_hull_matches_nd_oracles(name):
    cloud = ND_CLOUDS[name]
    hull = convex_hull(cloud)
    vertices = brute_hull_vertices_nd(cloud)
    assert list(hull.vertices) == vertices
    full = affine_dimension(vertices) == hull.dim
    assert hull.is_full_dimensional() == full
    if full:
        facets = brute_facets(vertices)
        assert list(hull.facets()) == facets
        assert list(normal_fan_rays(hull)) == sorted(a for a, _b in facets)
    else:
        with pytest.raises(ValueError):
            hull.facets()


# -- cone slice: the hull of the quotients value/level -------------------------


def _quotients(graded):
    """The points value/level of (value, level) pairs."""
    return [tuple(F(v, level) for v in value) for value, level in graded]


def test_cone_slice_level_one_points():
    graded = [((0, 0), 1), ((1, 0), 1), ((0, 3), 1)]
    assert convex_hull(_quotients(graded)) == convex_hull(
        [(0, 0), (1, 0), (0, 3)])


def test_cone_slice_divides_by_level():
    assert convex_hull(_quotients([((0, 6), 2)])).vertices == ((F(0), F(3)),)


def test_cone_slice_empty_rejected():
    with pytest.raises(ValueError, match="empty point set"):
        convex_hull(iter([]))


def test_cone_slice_mixed_dimensions_rejected():
    # the dimensions are checked before the segment ends are taken, which
    # would index past the end of the shorter points
    with pytest.raises(ValueError, match="mixed dimensions"):
        convex_hull(_quotients([((0, 0), 1), ((1, 0, 0), 1)]))
    with pytest.raises(ValueError, match="mixed dimensions"):
        convex_hull(_quotients([((0, 0, 5), 1), ((1, 0), 2), ((0, 3), 1)]))


def _segment_clouds():
    """Seeded clouds dense along axis-parallel lines: graded clouds, each
    point q given as its quotient (q * m)/m at a random level m, and runs
    with negative and fractional coordinates."""
    rng = random.Random(23)
    lattice = {}
    # staircases: one segment from 0 to a random top per prefix, the shape
    # of a full graded piece
    for dim, prefixes, top in (
            (2, [(i,) for i in range(5)], 5),
            (3, [(i, j) for i in range(3) for j in range(3) if i + j <= 2], 4),
            (4, [(i, j, k) for i in range(2) for j in range(2)
                 for k in range(2) if i + j + k <= 1], 5)):
        lattice[f"staircase_{dim}d"] = [
            prefix + (j,) for prefix in prefixes
            for j in range(rng.randrange(1, top))]
    for shape, holes in (((4, 4), 3), ((3, 2, 2), 2)):
        grid = list(product(*map(range, shape)))
        dropped = rng.sample(grid, holes)
        lattice[f"holed_grid_{len(shape)}d"] = [
            p for p in grid if p not in dropped]
    # lines along random axes through random points, each point
    # listed several times
    for dim, lines in ((2, 3), (3, 3), (4, 2)):
        cloud = []
        for _ in range(lines):
            base = [rng.randrange(0, 4) for _ in range(dim)]
            axis = rng.randrange(dim)
            for t in range(rng.randrange(2, 5)):
                point = base[:axis] + [base[axis] + t] + base[axis + 1:]
                cloud += [tuple(point)] * rng.randrange(1, 3)
        lattice[f"repeated_lines_{dim}d"] = cloud
    clouds = {name: _quotients((tuple(m * x for x in q), m) for q in cloud
                               for m in [rng.randrange(1, 4)])
              for name, cloud in lattice.items()}
    # runs along random axes in steps of 1/3 from signed fractional bases
    runs = []
    for _ in range(4):
        base = [F(rng.randrange(-9, 4), rng.randrange(1, 4)) for _ in range(3)]
        axis = rng.randrange(3)
        for t in range(rng.randrange(3, 5)):
            runs.append(tuple(c + F(t, 3) if a == axis else c
                              for a, c in enumerate(base)))
    clouds["signed_fractional_runs_3d"] = runs
    return clouds


SEGMENT_CLOUDS = _segment_clouds()


@pytest.mark.parametrize("name", sorted(SEGMENT_CLOUDS))
def test_cone_slice_matches_oracles_on_segments(name):
    points = SEGMENT_CLOUDS[name]
    body = convex_hull(points)
    vertices = brute_hull_vertices_nd(points)
    assert list(body.vertices) == vertices
    if affine_dimension(vertices) == body.dim:
        assert list(body.facets()) == brute_facets(vertices)


@pytest.mark.parametrize("max_level", (1, 2))
@pytest.mark.parametrize("name", CASE_NAMES)
def test_cone_slice_of_shipped_cases_matches_oracle(name, max_level):
    levels = semigroup(make_case(name), "complete", max_level).levels
    points = _quotients((v, m) for m, level in levels.items() for v in level)
    assert list(convex_hull(points).vertices) == brute_hull_vertices_nd(points)


graded_points_2d = st.lists(
    st.tuples(st.tuples(st.integers(0, 8), st.integers(0, 8)),
              st.integers(1, 4)),
    min_size=1, max_size=10)


@given(graded_points_2d, graded_points_2d)
@settings(max_examples=40, deadline=None)
def test_cone_slice_monotone(sub, extra):
    large = convex_hull(_quotients(sub + extra)).vertices
    assert all(in_hull_nd(v, large)
               for v in convex_hull(_quotients(sub)).vertices)


@st.composite
def graded_clouds(draw):
    # values in the span of `rank` nonnegative directions, so the quotients
    # lie in a linear subspace of dimension at most rank <= n
    n = draw(st.integers(1, 4))
    rank = draw(st.integers(1, n))
    directions = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                               min_size=rank, max_size=rank))
    points = []
    for _ in range(draw(st.integers(1, 12))):
        weights = draw(st.lists(st.integers(0, 3), min_size=rank,
                                max_size=rank))
        value = tuple(sum(w * d[j] for w, d in zip(weights, directions))
                      for j in range(n))
        points.append((value, draw(st.integers(1, 6))))
    return points


@given(graded_clouds())
@example([((0, 0, 0), 1), ((2, 4, 0), 4), ((3, 0, 3), 5), ((5, 4, 3), 6)])
@example([((1, 2, 0, 3), 2), ((2, 4, 0, 6), 3), ((0, 0, 0, 0), 6)])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cone_slice_matches_hull_of_quotients(graded):
    # x -> x + sum(x) (1, ..., 1) is linear and invertible, so it maps the
    # hull's vertices to the vertices of the image's hull, and it maps no
    # axis-parallel segment to one, nor back: the segment ends are taken
    # from different points on the two sides.  The examples are a plane in
    # 3 dimensions and a segment in 4
    def sheared(points):
        return sorted(tuple(c + sum(p) for c in p) for p in points)
    points = _quotients(graded)
    assert list(convex_hull(sheared(points)).vertices) == sheared(
        convex_hull(points).vertices)


# -- dilation and equality --------------------------------------------------------


def _dilate(polytope, factor):
    return convex_hull([factor * c for c in v] for v in polytope.vertices)


def test_dilate_examples():
    unit = scaled_simplex(2, 1, 1)
    assert _dilate(unit, 2) == scaled_simplex(2, 2, 1)
    assert _dilate(unit, 1) == unit
    assert _dilate(scaled_simplex(2, 1, 3), 2) == scaled_simplex(2, 2, 3)


@given(a=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
       b=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_dilate_composes(a, b):
    simplex = scaled_simplex(2, 1, 3)
    assert _dilate(_dilate(simplex, a), b) == _dilate(simplex, a * b)


def test_polytope_equal_examples():
    unit = scaled_simplex(2, 1, 1)
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert polytope_equal(unit, unit)
    assert not polytope_equal(unit, square)
    redundant = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 2))])
    assert polytope_equal(redundant, unit)


def test_equal_polytopes_are_one_value():
    # field-wise == and hash on (dim, vertices): equal polytopes collapse in
    # a set, also after one of them has cached its double description
    unit = scaled_simplex(2, 1, 1)
    redundant = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 3), F(1, 3))])
    assert redundant.facets()
    assert unit == redundant and hash(unit) == hash(redundant)
    assert len({unit, redundant, scaled_simplex(2, 1, 1)}) == 1
    assert unit != scaled_simplex(2, 1, 2)
    assert unit != RationalPolytope(2, unit.vertices[:2])
    assert unit != unit.vertices


def test_vertex_of_wrong_length_rejected():
    with pytest.raises(ValueError, match="vertex of wrong dimension"):
        RationalPolytope(2, ((F(0), F(0)), (F(1),)))
    with pytest.raises(ValueError, match="vertex of wrong dimension"):
        RationalPolytope(1, ((F(0), F(0)),))


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
    square = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert set(normal_fan_rays(square)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_normal_fan_unit_simplex():
    assert set(normal_fan_rays(scaled_simplex(2, 1, 1))) == {
        (1, 0), (0, 1), (-1, -1)}


def test_normal_fan_weighted_triangle():
    # facet through (1,0) and (0,3): 3x + y = 3, inward normal -(3,1)
    triangle = scaled_simplex(2, 1, 3)
    assert set(normal_fan_rays(triangle)) == {(1, 0), (0, 1), (-3, -1)}


def test_normal_fan_requires_full_dimension():
    segment = convex_hull([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        normal_fan_rays(segment)


def test_simplex_vertices_lie_on_dim_facets():
    simplex = scaled_simplex(3, 1, 2)
    facets = simplex.facets()
    for v in simplex.vertices:
        touching = [1 for normal, offset in facets
                    if sum(F(n) * c for n, c in zip(normal, v)) == offset]
        assert len(touching) == 3


# -- export ----------------------------------------------------------------------


def test_polytope_json_round_trip_and_format():
    triangle = scaled_simplex(2, 1, 3)
    text = polytope_to_json(triangle)
    assert json.loads(text) == {"dim": 2, "vertices": [
        ["0/1", "0/1"], ["0/1", "3/1"], ["1/1", "0/1"]]}
    assert polytope_to_json(triangle) == text  # byte-stable
