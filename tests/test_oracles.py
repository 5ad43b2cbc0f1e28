"""Checks of the oracles themselves: each is exact and independent of the
library, so these tests hold them to hand-made examples and to one
another, and run no `src/` code beyond the forms the oracles build."""

import random
from fractions import Fraction

from okbody.polynomials import graded_monomials

from oracles import (brute_hull_vertices_2d, brute_hull_vertices_nd,
                     in_hull_nd, linear_solve, powers_basis, reduce_section,
                     reference_hull, row_reduce)

F = Fraction


# -- the vertex oracles -----------------------------------------------------------


def test_planar_vertex_oracle_examples():
    assert brute_hull_vertices_2d([(1, 2)] * 3) == [(1, 2)]
    # the ends of a run, not the points inside it
    assert brute_hull_vertices_2d([(2, 2), (0, 0), (1, 1), (3, 3)]) == [
        (0, 0), (3, 3)]
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    inside = [(1, 1), (1, 0), (0, F(1, 2)), (2, F(3, 2)), (F(1, 3), 2)]
    assert brute_hull_vertices_2d(inside + square + square) == sorted(square)
    # a point just outside an edge is a vertex, one on the edge is not
    assert brute_hull_vertices_2d(square + [(1, F(-1, 9))]) == sorted(
        square + [(1, F(-1, 9))])


def _planar_clouds():
    """Seeded planar clouds: small integer grids, so that many points are
    repeated, collinear or inside edges, and fractional ones."""
    rng = random.Random(31)
    clouds = []
    for _ in range(60):
        clouds.append([(rng.randrange(4), rng.randrange(4))
                       for _ in range(rng.randrange(1, 13))])
        clouds.append([(F(rng.randrange(-6, 7), rng.randrange(1, 4)),
                        F(rng.randrange(-6, 7), rng.randrange(1, 4)))
                       for _ in range(rng.randrange(1, 13))])
    return clouds


def test_vertex_oracles_agree_on_planar_clouds():
    # the orientation test, the tight-facet rank and the double description
    for cloud in _planar_clouds():
        vertices = brute_hull_vertices_2d(cloud)
        assert brute_hull_vertices_nd(cloud) == vertices, cloud
        assert reference_hull(cloud)[1] == vertices, cloud


def test_vertex_oracle_in_higher_dimensions_maps_the_planar_vertices():
    # an injective affine map into dimension 3 to 5 carries the vertices of
    # a planar cloud onto the vertices of its image, which brute_facets can
    # only reach through the projection onto the affine hull
    rng = random.Random(5)
    for cloud in _planar_clouds()[:60]:
        dim = rng.randrange(3, 6)
        while True:
            columns = [[rng.randrange(-2, 3) for _ in range(dim)]
                       for _ in range(2)]
            if len(row_reduce(columns)[1]) == 2:
                break  # injective
        base = [F(rng.randrange(-3, 4), 2) for _ in range(dim)]

        def image(point):
            return tuple(b + point[0] * u + point[1] * v
                         for b, u, v in zip(base, *columns))
        assert brute_hull_vertices_nd(map(image, cloud)) == sorted(
            map(image, brute_hull_vertices_2d(cloud))), cloud


def test_hull_membership_examples():
    cube = [(i, j, k) for i in (0, 2) for j in (0, 2) for k in (0, 2)]
    assert in_hull_nd((1, 1, 1), cube)
    assert in_hull_nd((2, 0, 2), cube)
    assert in_hull_nd((2, F(1, 3), 2), cube)
    assert not in_hull_nd((2, F(-1, 3), 2), cube)
    segment = [(0, 0, 0), (2, 2, 2)]
    assert in_hull_nd((F(1, 2),) * 3, segment)
    assert not in_hull_nd((1, 1, 0), segment)
    assert not in_hull_nd((3, 3, 3), segment)


# -- the powers system's bases ------------------------------------------------------


def test_powers_basis_products_lie_in_higher_levels(quadric):
    # V_1 . V_2 lands in V_3 for the powers system
    coords = graded_monomials(4, 3)
    level_three = [p.coefficient_vector(coords)
                   for p in powers_basis(quadric, 3)]
    for a in powers_basis(quadric, 1):
        for b in powers_basis(quadric, 2):
            product = reduce_section(quadric, a * b)
            assert linear_solve(level_three,
                                product.coefficient_vector(coords)) is not None
