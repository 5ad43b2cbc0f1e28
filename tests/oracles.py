"""Independent oracles used to pin expected values in the tests.

The hull oracles are exact and share no code with okbody.convex: a
planar vertex test by orientations (a point is a vertex when the others
lie in an open half-plane through it, O(N^3)); a facet enumeration over
point subsets, which also gives the vertices in n dimensions as the
points whose tight facets have normals of full rank; and a reference
hull of any dimension by double description, which shares only the
oracles' own exact elimination with the facet enumeration.  The surface
valuation oracles expand sections in explicit local coordinates
(bivariate series solved by a hand-derived recurrence, or exact
polynomial substitution), and a form is expanded along a curve's branch
by sympy polynomial substitution, so agreement with the library is
meaningful evidence.  The same exact elimination solves linear systems
and gives the powers system's bases, multiplied out from level-1
monomials instead of counted by the library's standard-monomial
argument.  Division by a single relation, and with it normal forms
modulo a case's relation, is the oracles' own: the library never
divides, since it counts graded pieces by their Hilbert function and
reads value sets off the final curve.

The oracles build forms with the library's HomogPoly and graded_monomials,
which have their own tests, and three reuse more.  The single-point oracle
scans E(F_p) with the library's group law, so it checks the witness tables
of okbody.elliptic rather than the arithmetic.  The flag-expansion value
set builds each step's change of coordinates itself, from the flag's
relation and step forms, but it and the per-degree value set take the
final curve and its chart from the flag's final stage and the branch u(t)
from the library's solver; the series of a form along that branch is their own
(their own translation and truncated products of u, checked against sympy's
form_along_branch), so they check how value sets are assembled and share
none of the final stage's power sums.  The generation-degree oracle adds
the enumerated vectors as tuples, entry by entry, where the library adds
only their last entries, fiber by fiber over the prefix sums.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

# -- exact 2D hull oracle -----------------------------------------------------


def orient(a, b, c) -> int:
    value = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (value > 0) - (value < 0)


def brute_hull_vertices_2d(points):
    """The vertices of the hull of planar points, lex-sorted.  A point p is
    a vertex exactly when the others lie in an open half-plane through p:
    when no other point is given, or when some direction d from p to
    another point has every other direction e strictly counterclockwise
    from it, cross(d, e) > 0, or along it, cross(d, e) = 0 < d . e.  Each
    direction is scaled to integers, which keeps both signs.  O(N^3)."""
    pts = sorted(set(points))

    def extreme(p):
        directions = []
        for q in pts:
            if q != p:
                x, y = Fraction(q[0] - p[0]), Fraction(q[1] - p[1])
                scale = lcm(x.denominator, y.denominator)
                directions.append((int(x * scale), int(y * scale)))
        return not directions or any(all(
            a * y - b * x > 0 or a * y == b * x and a * x + b * y > 0
            for x, y in directions) for a, b in directions)
    return [p for p in pts if extreme(p)]


# -- exact n-dimensional hull oracles -------------------------------------------


def row_reduce(matrix):
    """Reduced row echelon form over Fraction: the nonzero rows and their
    pivot columns.  The elimination runs on integer rows, each cleared of
    denominators: clearing column col from a row takes lead * row -
    row[col] * pivot and divides out its content; the pivot rows are
    divided by their pivots at the end."""
    rows = []
    for row in matrix:
        row = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    width = len(rows[0]) if rows else 0
    pivots = []
    for col in range(width):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        pivot, lead = rows[r], rows[r][col]
        for i, row in enumerate(rows):
            factor = row[col]
            if factor and i != r:
                row = [lead * a - factor * b for a, b in zip(row, pivot)]
                content = gcd(*row) or 1
                rows[i] = [a // content for a in row]
        pivots.append(col)
    return [[Fraction(a, row[p]) for a in row]
            for row, p in zip(rows, pivots)], pivots


def linear_solve(rows, target):
    """Weights w with sum w_i rows_i = target, or None when the target is
    not in the span of the rows; a row that depends on the rows before it
    gets weight zero."""
    if any(len(row) != len(target) for row in rows):
        raise ValueError("dimension mismatch")
    augmented = [[row[j] for row in rows] + [target[j]]
                 for j in range(len(target))]
    reduced, pivots = row_reduce(augmented)
    if len(rows) in pivots:
        return None
    weights = [Fraction(0)] * len(rows)
    for row, pivot in zip(reduced, pivots):
        weights[pivot] = row[-1]
    return weights


def brute_hull_vertices_nd(points):
    """The vertices of the hull of rational points, lex-sorted: the points
    whose tight facets have normals of full rank.  The points are projected
    onto the pivot coordinates of their differences, which is injective on
    their affine hull and makes them full-dimensional, and the facets there
    come from brute_facets."""
    pts = sorted({tuple(Fraction(v) for v in q) for q in points})
    pivots = row_reduce([[a - b for a, b in zip(q, pts[0])] for q in pts])[1]
    if not pivots:
        return pts
    projected = [tuple(q[j] for j in pivots) for q in pts]
    facets = brute_facets(projected)
    return [q for q, x in zip(pts, projected) if len(row_reduce([
        normal for normal, offset in facets
        if sum(a * c for a, c in zip(normal, x)) == offset])[1]) == len(pivots)]


def in_hull_nd(p, points) -> bool:
    """p lies in the hull of the points when it is one of them or is no
    vertex of the hull of the points and p."""
    p = tuple(Fraction(v) for v in p)
    pts = {tuple(Fraction(v) for v in q) for q in points}
    return p in pts or p not in brute_hull_vertices_nd(pts | {p})


def affine_dimension(points) -> int:
    base = points[0]
    differences = [[a - b for a, b in zip(q, base)] for q in points[1:]]
    return len(row_reduce(differences)[1])


def brute_facets(points):
    """Inward facet inequalities (a, beta), a . x >= beta, of the hull of a
    full-dimensional point list, with a primitive integer: every n-subset
    of the points spanning a hyperplane with all points on one side.  The
    search runs on the points times the lcm of their denominators, which
    keeps each normal and scales each offset."""
    n = len(points[0])
    scale = lcm(*(Fraction(c).denominator for p in points for c in p))
    scaled = [tuple(int(Fraction(c) * scale) for c in p) for p in points]
    found = set()
    for subset in combinations(scaled, n):
        base = subset[0]
        rows, pivots = row_reduce([[a - b for a, b in zip(v, base)]
                                   for v in subset[1:]])
        if len(pivots) != n - 1:
            continue  # the subset does not span a hyperplane
        free = next(j for j in range(n) if j not in pivots)
        normal = [Fraction(0)] * n
        normal[free] = Fraction(1)
        for row, pivot in zip(rows, pivots):
            normal[pivot] = -row[free]
        denom = lcm(*(c.denominator for c in normal))
        ints = [int(c * denom) for c in normal]
        g = gcd(*ints)
        ints = [c // g for c in ints]
        offset = sum(a * c for a, c in zip(ints, base))
        sides = [sum(a * c for a, c in zip(ints, v)) - offset for v in scaled]
        if min(sides) < 0 < max(sides):
            continue
        if min(sides) < 0:  # flip to make the normal inward
            ints, offset = [-c for c in ints], -offset
        found.add((tuple(ints), Fraction(offset, scale)))
    return sorted(found)


def kernel_basis(rows, length):
    """Basis of the right kernel {x : row . x = 0 for every row}, read off
    the reduced row echelon form: one vector per free column f, with x_f = 1
    and zero on the other free columns."""
    reduced, pivots = row_reduce(rows)
    basis = []
    for f in (j for j in range(length) if j not in pivots):
        x = [Fraction(int(j == f)) for j in range(length)]
        for row, pivot in zip(reduced, pivots):
            x[pivot] = -row[f]
        basis.append(x)
    return basis


def _primitive(vector):
    """A nonzero rational vector scaled to a primitive integer vector, and
    the positive factor divided out."""
    denom = lcm(*(Fraction(v).denominator for v in vector))
    ints = [int(v * denom) for v in vector]
    g = gcd(*ints)
    return tuple(v // g for v in ints), Fraction(g, denom)


def _segment_ends(points):
    """The distinct integer points less those strictly inside axis-parallel
    segments between two others, which are never vertices: one pass per
    axis, last first, keeps the least and greatest point of each run that
    agrees off the axis."""
    for axis in reversed(range(len(points[0]))):
        ends = {}
        for p in points:
            rest = p[:axis] + p[axis + 1:]
            low, high = ends.setdefault(rest, (p, p))
            if p < low:
                ends[rest] = p, high
            elif p > high:
                ends[rest] = low, p
        points = list({p for pair in ends.values() for p in pair})
    return points


def reference_hull(points):
    """The hull of rational points of any dimension by the double
    description method (Motzkin et al. 1953; Fukuda and Prodon 1996), in
    integer arithmetic with the oracles' own elimination: (the affine
    dimension, the lex-sorted vertices, the inward inequalities (a, beta),
    a . x >= beta with a primitive, lex-sorted).  For a full-dimensional
    hull the inequalities are its facets.

    The points are scaled to integers by the lcm of their denominators,
    pruned to the ends of their axis-parallel segments, projected onto the
    pivot coordinates of their differences and lifted to q = (p, 1).  The
    extreme rays of the cone {a : a . q >= 0} are found by inserting one q
    at a time, starting from independent lifted points: rays on the
    negative side of q are replaced by the combinations of adjacent
    (positive, negative) pairs that are tight on q.  Two rays are adjacent
    when no third ray is tight on every point that both are tight on.  A
    vertex is the only point tight on all of its facets."""
    rows = [tuple(p) for p in points]  # ints and Fractions
    if not rows:
        raise ValueError("empty point set")
    n = len(rows[0])
    if any(len(p) != n for p in rows):
        raise ValueError("mixed dimensions")
    scale = lcm(*(c.denominator for p in rows for c in p))
    ints = sorted(_segment_ends(list({
        tuple(c.numerator * (scale // c.denominator) for c in p)
        for p in rows})))
    base = ints[0]
    pivots = row_reduce([[a - b for a, b in zip(p, base)] for p in ints])[1]
    k = len(pivots)
    lifted = [tuple(p[j] for j in pivots) + (1,) for p in ints]
    count = len(lifted)
    total = [sum(column) for column in zip(*lifted)]
    order = sorted(range(count), key=lambda i: (
        -sum((count * a - b) ** 2 for a, b in zip(lifted[i], total)), i))
    start = []
    for i in order:
        if len(start) == k + 1:
            break
        if len(row_reduce([lifted[j] for j in start + [i]])[1]) > len(start):
            start.append(i)
    rays = []
    for j in start:
        tight = [lifted[i] for i in start if i != j]
        ray = _primitive(kernel_basis(tight, k + 1)[0])[0]
        if sum(a * b for a, b in zip(lifted[j], ray)) < 0:
            ray = tuple(-x for x in ray)
        rays.append((ray, sum(1 << i for i in start if i != j)))
    for i in order:
        if i in start:
            continue
        q, bit = lifted[i], 1 << i
        signed = [(sum(a * b for a, b in zip(q, ray)), ray, mask)
                  for ray, mask in rays]
        negative = [entry for entry in signed if entry[0] < 0]
        kept = [(ray, mask | bit if s == 0 else mask)
                for s, ray, mask in signed if s >= 0]
        added = []
        for sp, rp, zp in signed:
            if sp <= 0:
                continue
            for sm, rm, zm in negative:
                common = zp & zm
                if bin(common).count("1") < k - 1 or any(
                        common & mask == common for _s, ray, mask in signed
                        if ray is not rp and ray is not rm):
                    continue
                added.append((_primitive([sp * b - sm * a
                                          for a, b in zip(rp, rm)])[0],
                              common | bit))
        rays = kept + added
    tight = [0] * count
    for r, (_ray, mask) in enumerate(rays):
        for i in range(count):
            if mask >> i & 1:
                tight[i] |= 1 << r
    vertices = [tuple(Fraction(c, scale) for c in ints[i])
                for i in range(count)
                if not any(tight[j] & tight[i] == tight[i]
                           for j in range(count) if j != i)]
    inequalities = []
    for ray, _mask in rays:
        normal = [0] * n
        for j, a in zip(pivots, ray):
            normal[j] = a
        if any(normal):
            prim, factor = _primitive(normal)
            inequalities.append((prim, -ray[-1] / (factor * scale)))
    return k, vertices, sorted(inequalities)


def all_levels(sg):
    """Levels 1..M of a semigroup, as the dict {m: sg.level(m)}."""
    return {m: sg.level(m) for m in range(1, sg.max_level + 1)}


def every_quotient(sg):
    """The quotients v/m of every vector v of every level m of a
    semigroup."""
    return [tuple(Fraction(x, m) for x in v)
            for m, level in all_levels(sg).items() for v in level]


def matches_reference_hull(polytope, points):
    """Whether a library polytope has the vertices, the dimension and, when
    full-dimensional, the facet normals of the reference hull of the
    points; no two of its facets share a normal, so the normals alone keep
    the order of the inequalities."""
    from okbody.convex import normal_fan_rays

    dimension, vertices, inequalities = reference_hull(points)
    full = dimension == polytope.dim
    return (polytope.vertices == tuple(vertices)
            and polytope.is_full_dimensional() == full
            and (not full or normal_fan_rays(polytope) == tuple(
                normal for normal, _offset in inequalities)))

# -- truncated bivariate series ----------------------------------------------

Bi = dict  # {(i, j): Fraction} with i + j < the truncation order


def bi_trim(a: Bi, order: int) -> Bi:
    return {k: v for k, v in a.items() if k[0] + k[1] < order and v}


def bi_add(a: Bi, b: Bi, order: int) -> Bi:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return bi_trim(out, order)


def bi_scale(a: Bi, c: Fraction, order: int) -> Bi:
    return bi_trim({k: v * c for k, v in a.items()}, order)


def bi_mul(a: Bi, b: Bi, order: int) -> Bi:
    out: Bi = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            if i1 + i2 + j1 + j2 >= order:
                continue
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return bi_trim(out, order)


def bi_pow(a: Bi, e: int, order: int) -> Bi:
    out: Bi = {(0, 0): Fraction(1)}
    for _ in range(e):
        out = bi_mul(out, a, order)
    return out


@cache
def fermat_branch(order: int) -> Bi:
    """Solve 1 + y^3 + z^3 + w^3 = 0 for y = -1 + eta(z, w) near (z, w) = 0.

    Substituting gives 3*eta - 3*eta^2 + eta^3 + z^3 + w^3 = 0, so eta is the
    fixed point of eta = (-z^3 - w^3 + 3*eta^2 - eta^3)/3, and each iteration
    gains at least three correct orders because eta has order 3.  Cached
    per order: the callers only read it.
    """
    eta: Bi = {}
    base: Bi = {(3, 0): Fraction(-1), (0, 3): Fraction(-1)}  # keys (z, w)
    for _ in range(order + 2):
        correction = bi_add(bi_scale(bi_pow(eta, 2, order), Fraction(3), order),
                            bi_scale(bi_pow(eta, 3, order), Fraction(-1), order),
                            order)
        eta = bi_scale(bi_add(base, correction, order), Fraction(1, 3), order)
    return eta


def _leading_bi(series: Bi, order: int):
    """(w-order, z-order within it) and the leading coefficient, where keys
    are (z-exponent, w-exponent)."""
    if not series:
        raise ValueError("series vanished to the working order")
    nu1 = min(j for (_i, j) in series)
    nu2 = min(i for (i, j) in series if j == nu1)
    if nu2 + nu1 >= order - 1:
        raise ValueError("working order too small to certify the valuation")
    return (nu1, nu2), series[(nu2, nu1)]


def fermat_local_valuation(section, order: int = 24):
    """Valuation and unit of a section on the Fermat cubic surface, read off
    from its local expansion in the coordinates (z, w) at (1:-1:0:0): the
    flag member is {w = 0}, the curve parameter is z."""
    eta = fermat_branch(order)
    y_series = bi_add({(0, 0): Fraction(-1)}, eta, order)
    powers = {0: {(0, 0): Fraction(1)}}
    series: Bi = {}
    for exps, coeff in section.terms.items():
        _a, b, c, d = exps  # x-exponent is absorbed by the chart x = 1
        if b not in powers:
            powers[b] = bi_pow(y_series, b, order)
        monomial = {(c + i, d + j): coeff * v
                    for (i, j), v in powers[b].items()
                    if c + i + d + j < order}
        series = bi_add(series, monomial, order)
    return _leading_bi(series, order)


def quadric_local_valuation(section):
    """Valuation and unit of a section on the quadric {xw = yz}, via the
    exact polynomial parametrization (x, u) -> (x, 1, x(x-u), x-u) in the
    chart y = 1, where u is the local equation of the plane section {x = w}
    and x is the curve parameter."""
    # keys are (x-exponent, u-exponent); the substitution is polynomial
    x: Bi = {(1, 0): Fraction(1)}
    w: Bi = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    degree = section.degree
    order = 4 * degree + 4
    z = bi_mul(x, w, order)
    series: Bi = {}
    for exps, coeff in section.terms.items():
        a, _b, c, d = exps  # y-exponent absorbed by the chart y = 1
        term = bi_scale(bi_mul(bi_pow(x, a, order),
                               bi_mul(bi_pow(z, c, order),
                                      bi_pow(w, d, order), order), order),
                        coeff, order)
        series = bi_add(series, term, order)
    if not series:
        raise ValueError("section vanishes on the quadric")
    nu1 = min(j for (_i, j) in series)
    nu2 = min(i for (i, j) in series if j == nu1)
    return (nu1, nu2), series[(nu2, nu1)]


def coordinate_flag_valuation(section, step_indices, chart_index, param_index):
    """Closed-form valuation and unit for a coordinate flag on projective
    space: minimal exponents taken hierarchically along the step variables,
    then the parameter variable."""
    terms = dict(section.terms)
    entries = []
    for index in step_indices:
        k = min(e[index] for e in terms)
        entries.append(k)
        terms = {e: c for e, c in terms.items() if e[index] == k}
    k = min(e[param_index] for e in terms)
    entries.append(k)
    witnesses = [(e, c) for e, c in terms.items() if e[param_index] == k]
    assert len(witnesses) == 1, "remaining degree must sit on the chart variable"
    return tuple(entries), witnesses[0][1]


def oracle_valuation(case_name, section):
    if case_name == "p2":
        return coordinate_flag_valuation(section, [1], 0, 2)
    if case_name == "p3":
        return coordinate_flag_valuation(section, [1, 2], 0, 3)
    if case_name == "quadric_surface":
        return quadric_local_valuation(section)
    if case_name == "fermat_cubic":
        degree = section.degree
        return fermat_local_valuation(section, order=6 * degree + 8)
    raise ValueError(case_name)


# -- division by a single relation -------------------------------------------


def lex_order(elim_var):
    """Sort key of the lexicographic order with ``elim_var`` most
    significant and the other variables in index order."""
    def key(exps):
        return (exps[elim_var],) + exps[:elim_var] + exps[elim_var + 1:]
    return key


def grevlex_order(smallest_var):
    """Sort key of the graded reverse lexicographic order with
    ``smallest_var`` the smallest variable and the others in index order.
    A monomial divisible by the smallest variable is below every monomial of
    the same degree that is not."""
    def key(exps):
        rest = exps[:smallest_var] + exps[smallest_var + 1:]
        return ((sum(exps), -exps[smallest_var])
                + tuple(-e for e in reversed(rest)))
    return key


def leading_monomial(poly, elim_var):
    if not poly:
        raise ValueError("zero polynomial has no leading monomial")
    return max(poly.terms, key=lex_order(elim_var))


def poly_divmod(p, relation, order):
    """Division of p by a single relation F in the monomial order given as a
    sort key: (q, r) with p = q*F + r and no term of r divisible by the
    leading monomial of F.  A single relation is its own Groebner basis, so
    the remainder is unique and depends linearly on p."""
    from okbody.polynomials import HomogPoly

    if p.num_vars != relation.num_vars:
        raise ValueError("mixed numbers of variables")
    if not relation:
        raise ValueError("division by the zero polynomial")
    lm = max(relation.terms, key=order)
    lc = relation.terms[lm]
    q = {}
    r = dict(p.terms)
    while True:
        divisible = [e for e in r if all(a >= b for a, b in zip(e, lm))]
        if not divisible:
            break
        exps = max(divisible, key=order)
        shift = tuple(a - b for a, b in zip(exps, lm))
        factor = r[exps] / lc
        q[shift] = q.get(shift, Fraction(0)) + factor
        for e, c in relation.terms.items():
            key = tuple(a + b for a, b in zip(e, shift))
            value = r.get(key, Fraction(0)) - factor * c
            if value:
                r[key] = value
            else:
                r.pop(key, None)
    q_degree = max(p.degree - relation.degree, 0)
    return (HomogPoly(p.num_vars, q_degree, q),
            HomogPoly(p.num_vars, p.degree, r))


def normal_form(p, relation, elim_var=None):
    """The remainder of p modulo the principal ideal (relation) in the
    lexicographic order with ``elim_var`` (the last variable by default)
    most significant: zero exactly when p lies in the ideal, idempotent and
    linear."""
    if elim_var is None:
        elim_var = p.num_vars - 1
    return poly_divmod(p, relation, lex_order(elim_var))[1]


def reduce_section(case, section):
    """The normal form of a section modulo the case's relation; the section
    itself on projective space."""
    if case.flag.relation is None:
        return section
    return normal_form(section, case.flag.relation)


# -- a form along the final stage's branch -------------------------------------


def _series_product(a, b, length):
    """The coefficients of t^0 .. t^(length-1) of the product of two
    series."""
    out = [0] * length
    for i, x in enumerate(a[:length]):
        if x:
            for j, y in enumerate(b[:length - i]):
                if y:
                    out[i + j] += x * y
    return out


def _branch_powers(stage, degree):
    """The powers 0 .. d' of x_chart = 1, x_param = t0 + t and x_dep = u0 +
    u(t), as coefficients of t^0 .. t^(d'*e), keyed by variable: (t0, u0)
    is a final stage's point in the chart and u the library's branch there,
    solved once.  Truncated further, they are the powers of a lower
    degree, as a shorter branch is a prefix of a longer one."""
    from okbody.series import series_solve_branch

    length = degree * stage.curve_degree + 1
    scale = stage.point[stage.chart]
    u = series_solve_branch(stage.relation, stage.point, length,
                            chart_var=stage.chart, param_var=stage.param,
                            dep_var=stage.dep, count=2)[1]
    values = {stage.chart: [1],
              stage.param: [stage.point[stage.param] / scale, 1],
              stage.dep: [stage.point[stage.dep] / scale, *u[1:]]}
    powers = {var: [[1]] for var in values}
    for var, value in values.items():
        while len(powers[var]) <= degree:
            powers[var].append(_series_product(powers[var][-1], value,
                                               length))
    return powers


def _along_branch(powers, form, length):
    """The coefficients of t^0 .. t^(length-1) of a form along the branch,
    as a sum of truncated products of the powers from _branch_powers."""
    row = [Fraction(0)] * length
    for exps, c in form.terms.items():
        term = [c]
        for var, e in enumerate(exps):
            term = _series_product(term, powers[var][e], length)
        row = [x + y for x, y in zip(row, term)]
    return row


def final_series(stage, *forms):
    """The coefficients of t^0 .. t^(d'*e) of forms of one degree d' along
    a final stage's branch at its point, by _branch_powers and
    _along_branch.  One list per form."""
    (degree,) = {form.degree for form in forms}
    powers = _branch_powers(stage, degree)
    return [_along_branch(powers, form, degree * stage.curve_degree + 1)
            for form in forms]


# -- value sets ---------------------------------------------------------------


def oracle_value_set(case, basis):
    """Independent triangularization driven entirely by the local-expansion
    oracle valuations."""
    sections = list(basis)
    data = [oracle_valuation(case.name, s) for s in sections]
    for _ in range(10000):
        seen = {}
        collision = None
        for idx, (vec, _unit) in enumerate(data):
            if vec in seen:
                candidate = (vec, seen[vec], idx)
                if collision is None or candidate < collision:
                    collision = candidate
            else:
                seen[vec] = idx
        if collision is None:
            return tuple(sorted(vec for vec, _unit in data))
        _vec, first, later = collision
        ratio = data[later][1] / data[first][1]
        combined = sections[later] - ratio * sections[first]
        combined = reduce_section(case, combined)
        assert combined, "oracle basis collapsed"
        sections[later] = combined
        data[later] = oracle_valuation(case.name, combined)
    raise RuntimeError("oracle triangularization did not terminate")


def step_coordinates(relation, steps):
    """(pivot, to_y, relation') for each flag step h, in the coordinates of
    the member before it: the pivot is the last variable in h, to_y writes
    x_pivot through y = h and the other coordinates, and relation' is the
    relation after that substitution (None on projective space).  The
    relation and the later steps go on to {h = 0} as their y^0 part."""
    from okbody.polynomials import HomogPoly

    coordinates, steps = [], list(steps)
    while steps:
        h, *steps = steps
        units = [tuple(int(j == i) for j in range(h.num_vars))
                 for i in range(h.num_vars)]
        coeffs = [h.terms.get(unit, 0) for unit in units]
        pivot = max(i for i, c in enumerate(coeffs) if c)
        to_y = HomogPoly.linear_form([
            (1 if i == pivot else -c) / coeffs[pivot]
            for i, c in enumerate(coeffs)])
        moved = (None if relation is None
                 else relation.substitute(pivot, to_y))
        coordinates.append((pivot, to_y, moved))
        relation = None if moved is None else moved.coefficient_of(pivot, 0)
        steps = [f.substitute(pivot, to_y).coefficient_of(pivot, 0)
                 for f in steps]
    return coordinates


def expansion_value_set(basis, flag):
    """The value set of the span of a basis independent modulo the
    relation, from the sections' flag expansions.  Each step writes a
    section in its coordinates (x_pivot through y = h, by
    ``step_coordinates`` of the flag's relation and steps), takes the
    remainder of one division by the relation in grevlex with y smallest,
    and splits it by the power k of y into sections on the next member; a
    final block of prefix (k_1, ..., k_{n-1}) puts its series coefficient j
    at the point in column (k_1, ..., k_{n-1}, j), every block's series
    read off one branch solved at the basis degree.  The value set is the
    pivot columns of the sections' rows, by ``row_reduce``, in lex order."""
    from okbody.polynomials import HomogPoly

    stage = flag.final_stage
    powers = _branch_powers(stage, max((s.degree for s in basis), default=0))

    def expand(section, coordinates, prefix):
        if not coordinates:
            series = _along_branch(powers, section,
                                   section.degree * stage.curve_degree + 1)
            return {prefix + (j,): c for j, c in enumerate(series) if c}
        (pivot, to_y, relation), split, row = coordinates[0], {}, {}
        normal = section.substitute(pivot, to_y)
        if relation is not None:
            normal = poly_divmod(normal, relation, grevlex_order(pivot))[1]
        for e, c in normal.terms.items():
            split.setdefault(e[pivot], {})[e[:pivot] + e[pivot + 1:]] = c
        for k, terms in split.items():
            block = HomogPoly(section.num_vars - 1, section.degree - k, terms)
            row.update(expand(block, coordinates[1:], prefix + (k,)))
        return row

    coordinates = step_coordinates(flag.relation, flag.steps)
    rows = [expand(section, coordinates, ()) for section in basis]
    columns = sorted(set().union(*rows))
    _reduced, pivots = row_reduce([[row.get(col, 0) for col in columns]
                                   for row in rows])
    if len(pivots) < len(rows):
        raise ValueError("basis is not linearly independent modulo the "
                         "relation")
    return tuple(columns[i] for i in pivots)


def standard_basis(case, level):
    """The standard monomials of degree c*level, by enumeration: the
    monomials that the relation's leading monomial (lex, the last variable
    most significant, as ``reduce_section`` takes it) does not divide, all
    of them on projective space."""
    from okbody.polynomials import HomogPoly, graded_monomials

    flag = case.flag
    monos = graded_monomials(flag.ambient_vars, case.c * level)
    if flag.relation is not None:
        lead = leading_monomial(flag.relation, flag.ambient_vars - 1)
        monos = [m for m in monos if not all(a >= b for a, b in zip(m, lead))]
    return tuple(map(HomogPoly.monomial, monos))


def powers_basis(case, level):
    """A basis of the powers system's level: of the distinct level-fold
    products of the degree-c monomials that are their own normal forms,
    reduced modulo the relation, those independent of the products before
    them (the pivot columns of the products as columns).  Its size is the
    level's dimension, found by elimination and not by counting standard
    monomials."""
    from okbody.polynomials import HomogPoly, graded_monomials

    level_one = [
        m for m in graded_monomials(case.flag.ambient_vars, case.c)
        if reduce_section(case, HomogPoly.monomial(m)).terms == {m: 1}]
    monomials = sorted({tuple(map(sum, zip(*combo))) for combo
                        in combinations_with_replacement(level_one, level)})
    products = [reduce_section(case, HomogPoly.monomial(m))
                for m in monomials]
    coords = sorted({e for p in products for e in p.terms})
    _rows, pivots = row_reduce([[p.terms.get(e, 0) for p in products]
                                for e in coords])
    return tuple(products[i] for i in pivots)


# -- Riemann-Roch prediction on the final curve -------------------------------


def riemann_roch_orders(curve_degree: int, degree: int) -> tuple[int, ...]:
    """The orders at the flag point of the degree-d' forms on a final line
    (e = 1), conic (e = 2) or plane cubic at a flex (e = 3), predicted by
    Riemann-Roch.  The forms are the sections of L = O(d'), of degree d'e,
    and j is an order exactly when h^0(L - jp) > h^0(L - (j+1)p).  On a
    line or conic (genus 0) h^0(L - jp) = d'e - j + 1, so every j in
    0 .. d'e occurs.  On a cubic (genus 1) the flex tangent cuts 3p, so
    L - jp ~ (3d' - j)p, with h^0 = 3d' - j for j < 3d' and 1 for j = 3d'
    (the trivial divisor): j = 3d' - 1 is missing when d' >= 1."""
    top = curve_degree * degree
    if curve_degree <= 2 or degree == 0:
        return tuple(range(top + 1))
    if curve_degree == 3:
        return tuple(range(top - 1)) + (top,)
    raise ValueError("the prediction covers curves of degree at most 3")


def per_degree_value_set(stage, degree: int) -> tuple[int, ...]:
    """The final stage's value set of degree d' from that degree alone: the
    pivot columns, by ``row_reduce``, of the series of all degree-d'
    monomials truncated to j <= d'*e, with no echelon shared across
    degrees."""
    from okbody.polynomials import HomogPoly, graded_monomials

    rows = final_series(stage, *map(HomogPoly.monomial, graded_monomials(
        len(stage.point), degree)))
    return tuple(row_reduce(rows)[1])


# -- a form along a curve's branch (sympy) -------------------------------------


def form_along_branch(form, point, branch, chart, param, dep):
    """The coefficients of t^0 .. t^(P-1), P = len(branch), of a form in
    three variables along a branch at a point: sympy substitutes
    x_chart = 1, x_param = t0 + t and x_dep = u0 + u(t), with (t0, u0) the
    point in the chart and u the branch, expands, and reads them off."""
    import sympy

    t = sympy.Symbol("t")

    def rational(value):
        value = Fraction(value)
        return sympy.Rational(value.numerator, value.denominator)

    scale = Fraction(point[chart])
    values = [None] * 3
    values[chart] = sympy.Poly(1, t, domain="QQ")
    values[param] = sympy.Poly(rational(point[param] / scale) + t, t,
                               domain="QQ")
    values[dep] = sympy.Poly(rational(point[dep] / scale) + sum(
        rational(c) * t ** k for k, c in enumerate(branch)), t, domain="QQ")
    total = sympy.Poly(0, t, domain="QQ")
    for exps, c in form.terms.items():
        term = sympy.Poly(rational(c), t, domain="QQ")
        for value, e in zip(values, exps):
            term = term * value ** e
        total = total + term
    coefficients = [total.coeff_monomial(t ** k) for k in range(len(branch))]
    return [Fraction(int(c.p), int(c.q)) for c in coefficients]


# -- single-point divisor representatives ------------------------------------


def oracle_single_point_member(curve, points):
    """The exhaustive scan: the first point P of E(F_p), in enumeration
    order, with d*P equal to the class of the degree-d divisor, or None."""
    from okbody.elliptic import INFINITY

    d, target = len(points), reduce(curve.add, points, INFINITY)
    for candidate in curve.points:
        if curve.mul(d, candidate) == target:
            return candidate
    return None


# -- generation degree by tuple sums ------------------------------------------


def brute_generation_degree(sg, kmax):
    """Smallest k <= kmax such that every vector of each level m > k of a
    semigroup is a sum of vectors of levels j_1 + ... + j_r = m with every
    j_i <= k, or None."""
    levels = all_levels(sg)
    zero = (0,) * len(next(v for level in levels.values() for v in level))
    for k in range(1, kmax + 1):
        generated = {0: {zero}}
        for m in range(1, len(levels) + 1):
            generated[m] = {tuple(a + b for a, b in zip(prev, vec))
                            for j in range(1, min(k, m) + 1)
                            for prev in generated[m - j]
                            for vec in levels[j]}
            if m > k and not set(levels[m]) <= generated[m]:
                break
        else:
            return k
    return None
