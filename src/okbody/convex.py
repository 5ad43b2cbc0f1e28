"""Exact rational convex geometry at desk scale.

Polytopes are stored by their canonical vertex list: the minimal set of
points whose convex hull is the polytope, lexicographically sorted.  Two
polytopes are equal exactly when their canonical lists are identical, so no
tolerance ever enters.

Hulls are computed by the double-description method (Motzkin et al. 1953;
Fukuda and Prodon 1996) in integer arithmetic.  The points are scaled to
integers, projected onto coordinates of their affine hull and lifted to
(p, 1); the extreme rays of the cone {a : a . (p, 1) >= 0 for every point}
are then exactly the facet inequalities of the hull, and a point is a
vertex when no other point is tight on all of its facets.  A polytope
computes this double description once from its vertex list and reads its
dimension, facets and normal fan from it.  Facets carry primitive integer
inward normals, which are the rays of the normal fan (the combinatorial
data of the associated toric variety).

Before the double description, one pass per axis drops each point strictly
inside an axis-parallel segment between two points that stay: it is their
convex combination and never a vertex, so the hull and its vertices are
exactly those of all the points.  The quotients value/level of a graded
piece form segments along the last axis, so this leaves about two points
per prefix.  Coordinates are ints or Fractions; anything else, a float
included, is a TypeError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .linalg import Echelon, kernel_basis
from .polynomials import Frozen, Scalar, _exact

Point = tuple[Fraction, ...]
# (a, beta) for a . x >= beta
Constraint = tuple[tuple[int, ...], Fraction]


class RationalPolytope(Frozen):
    """Canonical form: the vertex list is minimal and lex-sorted.  Equal
    and hashed by (dim, vertices)."""

    def __init__(self, dim: int, vertices: tuple[Point, ...]):
        if any(len(v) != dim for v in vertices):
            raise ValueError("vertex of wrong dimension")
        vars(self).update(dim=dim, vertices=vertices)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim, self.vertices) == (other.dim, other.vertices)

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))

    @cached_property
    def _hull(self) -> _Hull:
        return _double_description(*_lattice(self.vertices))

    def is_full_dimensional(self) -> bool:
        return bool(self.vertices) and self._hull.dimension == self.dim

    def facets(self) -> tuple[Constraint, ...]:
        """Inward facet inequalities (a, beta) with a . x >= beta on the
        polytope, a a primitive integer vector, lex-sorted.
        Full-dimensional only."""
        if not self.is_full_dimensional():
            raise ValueError("polytope is not full-dimensional")
        return self._hull.inequalities

    def __str__(self) -> str:
        rows = [" (" + ", ".join(str(c) for c in v) + ")" for v in self.vertices]
        return "polytope with vertices" + "".join(rows)


class _Hull(Frozen):
    """Double-description data of a finite point set: its affine dimension,
    the indices of the points that are vertices, and the facet inequalities
    a . x >= beta.  The inequality normals vanish off the pivot coordinates
    of the affine hull, so for a full-dimensional hull they are the
    primitive facet normals."""

    def __init__(self, dimension: int, vertices: tuple[int, ...],
                 inequalities: tuple[Constraint, ...]):
        vars(self).update(dimension=dimension, vertices=vertices,
                          inequalities=inequalities)


def _lattice(points: Iterable[Sequence[Scalar]]
             ) -> tuple[list[tuple[int, ...]], int]:
    """The points scaled to integer points by the lcm L of their
    coordinates' denominators, and L."""
    rows = [tuple(map(_exact, p)) for p in points]
    scale = lcm(*(c.denominator for p in rows for c in p))
    return [tuple(c.numerator * (scale // c.denominator) for c in p)
            for p in rows], scale


def _double_description(ints: Sequence[tuple[int, ...]], scale: int) -> _Hull:
    """The hull of the points p / scale, for nonempty integer points p of
    equal length, in integer arithmetic.

    The points are projected onto the pivot coordinates of their
    differences, an echelon grown only until its rank is the dimension
    (or the differences run out), and lifted to q = (p, 1).  The extreme
    rays of the cone {a : a . q >= 0} are found by inserting one q at a
    time, starting from the first independent lifted points: rays on the
    negative side of q are replaced by the combinations of adjacent
    (positive, negative) pairs that are tight on q.  Two rays are adjacent
    when no third ray is tight on every point that both are tight on (the
    combinatorial test).  Inserting the points farthest from the centroid
    first makes most later points interior, at one dot product per ray.
    """
    n = len(ints[0])
    base = ints[0]
    # the pivot columns of the differences' echelon are a maximal
    # independent set of coordinate columns, so the projection onto them is
    # injective on the affine hull; they depend only on the span, so the
    # differences stop at rank n, and they are taken from the lex-last
    # point back, since the points nearest the lex-first base often share
    # its first coordinates and add no rank
    differences = Echelon(n)
    for p in reversed(ints):
        if differences.rank == n:
            break
        differences.add([a - b for a, b in zip(p, base)])
    pivots = differences.pivots()
    k = len(pivots)
    lifted = [tuple(p[j] for j in pivots) + (1,) for p in ints]
    count = len(lifted)
    total = [sum(column) for column in zip(*lifted)]
    order = sorted(range(count), key=lambda i: (
        -sum((count * a - b) ** 2 for a, b in zip(lifted[i], total)), i))
    independent = Echelon(k + 1)
    start = []
    for i in order:
        if independent.rank == k + 1:
            break
        if independent.add(lifted[i]):
            start.append(i)
    rays = []
    for j in start:
        tight = [lifted[i] for i in start if i != j]
        ray = _primitive(kernel_basis(tight, k + 1)[0])[0]
        if _idot(lifted[j], ray) < 0:
            ray = tuple(-x for x in ray)
        rays.append((ray, sum(1 << i for i in start if i != j)))
    started = set(start)
    for i in order:
        if i in started:
            continue
        q, bit = lifted[i], 1 << i
        signed = [(_idot(q, ray), ray, mask) for ray, mask in rays]
        negative = [entry for entry in signed if entry[0] < 0]
        kept = [(ray, mask | bit if s == 0 else mask)
                for s, ray, mask in signed if s >= 0]
        if not negative:
            rays = kept
            continue
        added = []
        for sp, rp, zp in signed:
            if sp <= 0:
                continue
            for sm, rm, zm in negative:
                common = zp & zm
                if common.bit_count() < k - 1 or any(
                        common & mask == common for _s, ray, mask in signed
                        if ray is not rp and ray is not rm):
                    continue
                added.append((_primitive([sp * b - sm * a
                                          for a, b in zip(rp, rm)])[0],
                              common | bit))
        rays = kept + added
    # a vertex is the only point on all of its facets; any other point lies
    # inside a face of dimension >= 1 that another input point spans, so
    # some other point is tight on all of its facets
    tight = [0] * count
    for r, (_ray, mask) in enumerate(rays):
        for i in range(count):
            if mask >> i & 1:
                tight[i] |= 1 << r
    vertices = [i for i in range(count)
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
    return _Hull(k, tuple(vertices), tuple(sorted(inequalities)))


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def convex_hull(points: Iterable[Sequence[Scalar]]) -> RationalPolytope:
    """Minimal vertex set of the convex hull, exactly; repeated points and
    lower-dimensional hulls are allowed.  The points are scaled to integer
    points by one positive factor, which keeps their lex order, so they are
    deduplicated, pruned to their segment ends, sorted and hulled as plain
    integer tuples."""
    ints, scale = _lattice(points)
    if not ints:
        raise ValueError("empty point set")
    dim = len(ints[0])
    if any(len(p) != dim for p in ints):
        raise ValueError("mixed dimensions")
    ints = sorted(_segment_ends(list(set(ints))))
    hull = _double_description(ints, scale)
    return RationalPolytope(dim, tuple(
        tuple(Fraction(c, scale) for c in ints[i]) for i in hull.vertices))


def _segment_ends(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The distinct points of equal length less those strictly inside
    axis-parallel segments (exact; see the module docstring): one pass per
    axis, last first, keeps the least and greatest point of each run that
    agrees off the axis, which are the run's ends on the axis."""
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


def polytope_equal(a: RationalPolytope, b: RationalPolytope) -> bool:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return a.vertices == b.vertices


def scaled_simplex(n: int, c: int, d: int) -> RationalPolytope:
    """The simplex with vertices 0, c*e_1, ..., c*e_{n-1} and c*d*e_n."""
    if n < 1 or c < 1 or d < 1:
        raise ValueError("n, c and d must be positive")
    verts = [tuple(Fraction(0) for _ in range(n))]
    for i in range(n - 1):
        verts.append(tuple(Fraction(c if j == i else 0) for j in range(n)))
    verts.append(tuple(Fraction(c * d if j == n - 1 else 0) for j in range(n)))
    return RationalPolytope(n, tuple(sorted(verts)))


def _primitive(vector: Sequence[Scalar]) -> tuple[tuple[int, ...], Fraction]:
    """Scale a rational vector to a primitive integer vector; returns the
    integer vector and the positive factor that was divided out."""
    denom = lcm(*(v.denominator for v in vector))
    ints = [int(v * denom) for v in vector]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints), Fraction(g, denom)


def normal_fan_rays(polytope: RationalPolytope) -> tuple[tuple[int, ...], ...]:
    """Primitive inward facet normals, lex-sorted: the rays of the normal fan
    of the polytope, i.e. the fan of the toric variety it defines."""
    return tuple(normal for normal, _offset in polytope.facets())


def polytope_to_json(polytope: RationalPolytope) -> str:
    """Canonical UTF-8 text form, bit-exact across runs: rationals are
    rendered as "numerator/denominator"."""
    payload = {
        "dim": polytope.dim,
        "vertices": [[f"{c.numerator}/{c.denominator}" for c in v]
                     for v in polytope.vertices],
    }
    return json.dumps(payload, indent=2) + "\n"
