"""Checks of the oracles themselves: each is exact and independent of the
library, so these tests hold them to hand-made examples, to sympy and to
one another, and run no `src/` code beyond the forms the oracles build
and what oracles.py says they reuse: the flag-expansion value set reads
the final curve off a flag's final stage and its branch off the
library's solver."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from okbody import series
from okbody.polynomials import HomogPoly, graded_monomials

from oracles import (affine_dimension, brute_facets, brute_hull_vertices_2d,
                     brute_hull_vertices_nd, expansion_value_set,
                     grevlex_order, in_hull_nd, kernel_basis, lex_order,
                     linear_solve, normal_form, oracle_valuation,
                     poly_divmod, powers_basis, reduce_section,
                     reference_hull, row_reduce, standard_basis,
                     step_coordinates)
from strategies import small_fractions

F = Fraction
rationals = small_fractions(8, 6)
X, Y, Z, W = (HomogPoly.variable(4, i) for i in range(4))
FERMAT = X ** 3 + Y ** 3 + Z ** 3 + W ** 3


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


# -- the reference hull on segments ---------------------------------------------


def _quotients(graded):
    """The points value/level of (value, level) pairs."""
    return [tuple(F(v, level) for v in value) for value, level in graded]


def test_reference_hull_mixed_dimensions_rejected():
    # the reference checks the dimensions before it takes the segment ends,
    # which would index past the end of the shorter points
    with pytest.raises(ValueError, match="mixed dimensions"):
        reference_hull(_quotients([((0, 0), 1), ((1, 0, 0), 1)]))
    with pytest.raises(ValueError, match="mixed dimensions"):
        reference_hull(_quotients([((0, 0, 5), 1), ((1, 0), 2), ((0, 3), 1)]))
    with pytest.raises(ValueError, match="empty point set"):
        reference_hull(iter([]))


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
def test_reference_hull_matches_oracles_on_segments(name):
    # the reference's segment ends against the brute-force oracles
    points = SEGMENT_CLOUDS[name]
    dimension, vertices, inequalities = reference_hull(points)
    assert vertices == brute_hull_vertices_nd(points)
    if dimension == len(points[0]):
        assert inequalities == brute_facets(vertices)


# -- the reference hull in higher dimensions ---------------------------------------


def test_reference_hull_of_a_cube():
    cube = [(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)]
    dimension, vertices, inequalities = reference_hull(
        cube + [(F(1, 2), F(1, 2), F(1, 2)), (0, 0, 0)])
    assert (dimension, len(vertices), len(inequalities)) == (3, 8, 6)


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
def test_reference_hull_matches_oracles_on_nd_clouds(name):
    cloud = ND_CLOUDS[name]
    dimension, hull, inequalities = reference_hull(cloud)
    vertices = brute_hull_vertices_nd(cloud)
    assert hull == vertices
    assert dimension == affine_dimension(vertices)
    if dimension == len(cloud[0]):
        assert inequalities == brute_facets(vertices)


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


def test_powers_basis_spans_inside_standard_basis(quadric):
    coords = graded_monomials(4, 2)
    complete_rows = [p.coefficient_vector(coords)
                     for p in standard_basis(quadric, 2)]
    for p in powers_basis(quadric, 2):
        assert linear_solve(complete_rows,
                            p.coefficient_vector(coords)) is not None


# -- division by one relation -------------------------------------------------


coefficients = small_fractions(10, 8)


def random_poly(draw, num_vars=4, degree=3, max_terms=4):
    monos = graded_monomials(num_vars, degree)
    chosen = draw(st.lists(st.sampled_from(monos), min_size=0,
                           max_size=max_terms))
    coeffs = draw(st.lists(coefficients, min_size=len(chosen),
                           max_size=len(chosen)))
    terms = {}
    for m, c in zip(chosen, coeffs):
        terms[m] = terms.get(m, Fraction(0)) + c
    return HomogPoly(num_vars, degree, terms)


@st.composite
def homog_cubics(draw):
    return random_poly(draw, num_vars=4, degree=3)


def test_normal_form_single_substitution():
    p = W ** 3 * X
    expected = -(X ** 4) - X * Y ** 3 - X * Z ** 3
    assert normal_form(p, FERMAT, 3) == expected


def test_normal_form_already_reduced():
    p = W ** 2 * X + Y * Z * W
    assert normal_form(p, FERMAT, 3) == p


def test_normal_form_of_relation_is_zero():
    assert not normal_form(FERMAT, FERMAT, 3)


def test_normal_form_quadric_leading_monomial():
    quadric = X * W - Y * Z
    # x*w is the leading monomial, so it rewrites to y*z
    assert normal_form(X * W, quadric) == Y * Z


def test_grevlex_order_leading_monomial_avoids_the_smallest_variable():
    quadric = X * W - Y * Z
    # x*w is divisible by w, the smallest variable, so y*z leads
    assert poly_divmod(X * Y * Z, quadric, grevlex_order(3))[1] == X * X * W
    assert poly_divmod(X * X * W, quadric, grevlex_order(3))[1] == X * X * W


def test_poly_divmod_reconstructs():
    p = W ** 3 * X + X * Y * Z * W
    q, r = poly_divmod(p, FERMAT, lex_order(3))
    assert q * FERMAT + r == p


@given(homog_cubics())
@settings(max_examples=60)
def test_normal_form_idempotent(p):
    r = normal_form(p, FERMAT, 3)
    assert normal_form(r, FERMAT, 3) == r


@given(homog_cubics(), homog_cubics())
@settings(max_examples=60)
def test_normal_form_linear(p, q):
    lhs = normal_form(p + q, FERMAT, 3)
    rhs = normal_form(p, FERMAT, 3) + normal_form(q, FERMAT, 3)
    assert lhs == rhs


@given(homog_cubics())
@settings(max_examples=60)
def test_poly_divmod_difference_is_divisible_by_relation(p):
    q, r = poly_divmod(p, FERMAT, lex_order(3))
    assert p - r == q * FERMAT


def test_reduce_section_is_identity_without_relation(p2):
    section = HomogPoly.variable(3, 0) ** 2
    assert reduce_section(p2, section) == section


def _divided_normal_form(coordinates, section):
    """The normal form of a section in one step's coordinates (pivot,
    to_y, relation'), by substitution and one division."""
    pivot, to_y, relation = coordinates
    moved = section.substitute(pivot, to_y)
    if relation is None:
        return moved
    return poly_divmod(moved, relation, grevlex_order(pivot))[1]


def _in_ideal(poly, generators, symbols):
    """Ideal membership decided by a sympy Groebner basis."""
    import sympy

    def expr(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}, *symbols).as_expr()

    basis = sympy.groebner([expr(g) for g in generators], *symbols,
                           order="grevlex")
    return basis.reduce(expr(poly))[1] == 0


def _oracle_sections(rng, h, relation, degree, count):
    """Random sections with a planted factor h^j, plus multiples of the
    relation that the order must see through."""
    out = []
    while len(out) < count:
        j = rng.randrange(degree + 1)
        monos = graded_monomials(4, degree - j)
        picked = rng.sample(monos, min(2, len(monos)))
        free = HomogPoly(4, degree - j,
                         {m: rng.randrange(-3, 4) for m in picked})
        section = h ** j * free
        if degree >= relation.degree:
            monos = graded_monomials(4, degree - relation.degree)
            section = section + relation * HomogPoly(
                4, degree - relation.degree,
                {m: rng.randrange(-2, 3) for m in rng.sample(monos, 1)})
        if section and _divided_normal_form(
                step_coordinates(relation, [h])[0], section):
            out.append(section)
    return out


@pytest.mark.parametrize("name", ["fermat", "quadric"])
def test_step_division_order_and_cofactor_match_sympy_groebner(name,
                                                               request):
    # the order along h that one division in the step's coordinates reads
    # off, and its cofactor, against ideal membership by sympy
    sympy = pytest.importorskip("sympy")
    case = request.getfixturevalue(name)
    relation = case.flag.relation
    symbols = sympy.symbols("x y z w")
    rng = random.Random(29)
    dense = HomogPoly.linear_form([rng.randrange(1, 4) for _ in range(4)])
    for h in (case.flag.steps[0], dense):
        (step,) = step_coordinates(relation, [h])
        for degree in (2, 3):
            for section in _oracle_sections(rng, h, relation, degree, 5):
                normal = _divided_normal_form(step, section)
                p = step[0]
                k = min(e[p] for e in normal.terms)
                assert _in_ideal(section, [h ** k, relation], symbols)
                assert not _in_ideal(section, [h ** (k + 1), relation],
                                     symbols)
                # the cofactor r / y^k, back in the original coordinates
                cofactor = HomogPoly(4, degree - k, {
                    e[:p] + (e[p] - k,) + e[p + 1:]: c
                    for e, c in normal.terms.items()}).substitute(p, h)
                assert _in_ideal(section - h ** k * cofactor, [relation],
                                 symbols)


# -- the flag-expansion value set ---------------------------------------------


def _valuation(section, flag):
    """The valuation vector of one section, by the flag-expansion oracle
    that the semigroup tests take as their reference."""
    (vector,) = expansion_value_set([section], flag)
    return vector


def test_expansion_value_set_order_of_explicit_power(fermat):
    assert _valuation(W ** 2 * X, fermat.flag)[0] == 2


def test_expansion_value_set_order_found_through_the_relation(fermat):
    # x^3+y^3+z^3 = -w^3 on the Fermat cubic
    assert _valuation(X ** 3 + Y ** 3 + Z ** 3, fermat.flag)[0] == 3


def test_expansion_value_set_order_of_nonvanishing_section(fermat):
    assert _valuation(X, fermat.flag)[0] == 0


def test_expansion_value_set_rejects_zero_section(fermat):
    with pytest.raises(ValueError, match="not linearly independent"):
        _valuation(FERMAT, fermat.flag)


def test_expansion_value_set_order_rises_by_one_times_h(fermat):
    rng = random.Random(3)
    monos = graded_monomials(4, 2)
    for _ in range(15):
        terms = {m: rng.randrange(-3, 4) for m in rng.sample(monos, 3)}
        s = HomogPoly(4, 2, terms)
        if not s:
            continue
        assert _valuation(s * W, fermat.flag)[0] == \
            _valuation(s, fermat.flag)[0] + 1


def test_expansion_value_set_restricts_explicit_power(fermat):
    # w^2 x divided by w^2 restricts to x, a unit at the point
    assert _valuation(W ** 2 * X, fermat.flag) == (2, 0)


def test_expansion_value_set_restricts_through_relation_to_a_constant(fermat):
    # x^3+y^3+z^3 divided by w^3 restricts to the constant -1
    assert _valuation(X ** 3 + Y ** 3 + Z ** 3, fermat.flag) == (3, 0)


def test_expansion_value_set_p2_coordinate_valuations(p2):
    x0, x1, x2 = (HomogPoly.variable(3, i) for i in range(3))
    assert _valuation(x0, p2.flag) == (0, 0)
    assert _valuation(x1, p2.flag) == (1, 0)
    assert _valuation(x2, p2.flag) == (0, 1)


def test_expansion_value_set_fermat_flag_valuations(fermat):
    assert _valuation(W, fermat.flag) == (1, 0)
    assert _valuation(X + Y, fermat.flag) == (0, 3)


def test_expansion_value_set_nowhere_vanishing_section_has_zero_vector(
        quadric):
    assert _valuation(Y, quadric.flag) == (0, 0)


def test_expansion_value_set_of_a_singleton_basis(fermat):
    section = HomogPoly.variable(4, 3)
    assert expansion_value_set([section], fermat.flag) == ((1, 0),)


def test_expansion_value_set_rejects_a_dependent_basis(fermat):
    x = HomogPoly.variable(4, 0)
    y = HomogPoly.variable(4, 1)
    with pytest.raises(ValueError, match="not linearly independent"):
        expansion_value_set([x, y, x + y], fermat.flag)


def test_expansion_value_set_invariant_under_basis_change(p3, quadric,
                                                          fermat):
    # p3 ends on a line; the others end on a conic and a cubic
    rng = random.Random(23)
    for case, m in ((quadric, 2), (fermat, 1), (quadric, 4), (fermat, 3),
                    (p3, 3)):
        basis = list(standard_basis(case, m))
        reference = expansion_value_set(basis, case.flag)
        dim = len(basis)
        for _trial in range(10):
            while True:
                matrix = [[rng.randrange(-3, 4) for _ in range(dim)]
                          for _ in range(dim)]
                if len(row_reduce(matrix)[1]) == dim:
                    break  # invertible
            recombined = []
            for row in matrix:
                summed = {}
                for coeff, vec in zip(row, basis):
                    for exps, value in vec.terms.items():
                        summed[exps] = summed.get(exps, 0) + coeff * value
                section = HomogPoly(case.flag.ambient_vars, case.c * m, summed)
                recombined.append(reduce_section(case, section))
            assert expansion_value_set(recombined, case.flag) == reference


def test_expansion_value_set_solves_the_branch_once(monkeypatch, p3, quadric,
                                                   fermat):
    # one solve per call, at the basis degree, whatever the number of
    # final blocks; each block reads a prefix of it
    solves, solve = [], series.series_solve_branch

    def counting(curve, point, precision, **kwargs):
        solves.append(precision)
        return solve(curve, point, precision, **kwargs)
    monkeypatch.setattr(series, "series_solve_branch", counting)
    for case, m in ((quadric, 4), (fermat, 3), (p3, 3)):
        solves.clear()
        expansion_value_set(standard_basis(case, m), case.flag)
        assert solves == [case.c * m * case.flag.final_stage.curve_degree
                          + 1], case.name


def test_expansion_value_set_matches_local_oracles_on_monomial_bases(
        p2, p3, quadric, fermat):
    for case in (p2, p3, quadric, fermat):
        for degree in (1, 2):
            for mono in graded_monomials(case.flag.ambient_vars, degree):
                section = HomogPoly.monomial(mono)
                if not reduce_section(case, section):
                    continue
                assert _valuation(section, case.flag) == \
                    oracle_valuation(case.name, section)[0]


def test_expansion_value_set_matches_local_oracles_on_random_sections(
        quadric, fermat):
    rng = random.Random(11)
    for case in (quadric, fermat):
        monos = graded_monomials(4, 2)
        for _ in range(25):
            terms = {m: rng.randrange(-4, 5) for m in rng.sample(monos, 3)}
            section = HomogPoly(4, 2, terms)
            if not section or not reduce_section(case, section):
                continue
            assert _valuation(section, case.flag) == \
                oracle_valuation(case.name, section)[0]


# -- the linear solve and kernel, which the tests use ---------------------------


def test_linear_solve_standard_basis():
    assert linear_solve([(1, 0), (0, 1)], (3, 5)) == [3, 5]


def test_linear_solve_rank_deficient_no_solution():
    assert linear_solve([(1, 1)], (1, 2)) is None


def test_linear_solve_fractional_coefficients():
    sol = linear_solve([(2, 4), (1, 3)], (0, 1))
    assert sol == [Fraction(-1, 2), Fraction(1)]


def test_linear_solve_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        linear_solve([(1, 0), (0, 1, 2)], (1, 1))
    with pytest.raises(ValueError):
        linear_solve([(1, 0)], (1, 0, 0))


def test_linear_solve_empty_row_list():
    assert linear_solve([], (0, 0)) == []
    assert linear_solve([], (1, 0)) is None


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=80)
def test_linear_solve_reconstructs_combination(rows, coeffs):
    rows = [tuple(r) for r in rows]
    coeffs = coeffs[:len(rows)] + [Fraction(0)] * (len(rows) - len(coeffs))
    target = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(3)]
    sol = linear_solve(rows, target)
    assert sol is not None
    recombined = [sum(c * r[i] for c, r in zip(sol, rows)) for i in range(3)]
    assert recombined == target


def test_linear_solve_span_membership():
    rows = [(1, 1, 0), (0, 1, 1)]
    assert linear_solve(rows, (1, 2, 1)) is not None
    assert linear_solve(rows, (1, 0, 1)) is None
    assert linear_solve(rows, (2, 3, 1)) == [2, 1]


def test_linear_solve_weights_dependent_rows_zero():
    rows = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert linear_solve(rows, (3, 5, 0)) == [3, 0, 5, 0]
    assert linear_solve([(0, 0), (0, 2)], (0, 1)) == [0, Fraction(1, 2)]


def test_kernel_basis_examples():
    basis = kernel_basis([(1, 1, 0)], 3)
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] + vec[1] == 0 or vec == [Fraction(0), Fraction(0), Fraction(1)]


def test_kernel_basis_unit_on_free_columns():
    # pivots appear out of column order: (0, 1, 1) first, then (1, 0, 2)
    rows = [(0, 1, 1), (1, 0, 2), (1, 1, 3)]
    assert kernel_basis(rows, 3) == [[-2, -1, 1]]
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]
