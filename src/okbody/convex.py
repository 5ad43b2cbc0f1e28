"""Exact rational convex geometry at desk scale: lifted planar polygons.

Every polytope here is the lift of a planar polygon P in {q >= 0},

  {(x, y) : x >= 0 in Q^(n-1), (sum(x), y) in P},

which is what an Okounkov body of these flags is (each fiber of a level
is a simplex over its prefix sum s times a set of last entries) and what
the expected simplex is.  A polytope is made from planar points (q, y)
alone: P is their hull, and the lift is the hull of the lifts of P's
vertices, (q*e_i, y) for each i when q > 0 and (0, y) when q = 0, which
are its vertices, as for q > 0 they lie on distinct rays.  A polytope
keeps only integers: P's vertices times their least common denominator,
the scale, and the lifts of that chain, lexicographically sorted; two
polytopes are equal exactly when these are identical: no tolerance ever
enters.  Each polytope is hulled once, by Andrew's monotone chain, on one
integer chain (its points times a common denominator), lifted, sorted and
written as ints: only `polygon` and `vertices` make Fractions.

A full-dimensional lift has a facet per edge of P, with P's inward normal
(alpha, beta) repeated as (alpha, ..., alpha, beta), and for n - 1 >= 2
the facets x_i >= 0 in place of P's edge on q = 0.  `normal_fan_rays`
reads their primitive integer normals, the rays of the normal fan (the
toric variety's combinatorial data), off the chain.  Coordinates are ints
or Fractions; anything else, a float included, is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polynomials import Frozen, Scalar, _exact


class RationalPolytope(Frozen):
    """The lift into dimension dim of the hull P of planar points (q, y)
    with q >= 0, kept as ints: `chain`, P's vertices counterclockwise from
    the lex-least over `scale`, their least common denominator, and
    `lifted`, the chain's sorted lifts; in dimension 1, where sum(x) = 0,
    P is cut to its face on q = 0.  `polygon` and `vertices` read them as
    Fractions, `normal_fan_rays` as facet normals.  A dim other than an
    int >= 1, a point other than a pair, q < 0 or no vertex is refused."""

    def __init__(self, dim: int, points: Iterable[tuple[Scalar, Scalar]]):
        if type(dim) is not int:
            raise TypeError(f"dim must be an int, not {dim!r}")
        if dim < 1:
            raise ValueError("dim must be at least 1")
        points = [tuple(point) for point in points]
        if any(len(point) != 2 for point in points):
            raise ValueError("a point is not a pair (q, y)")
        _lift(self, dim, *_integer_chain(points))

    @property
    def polygon(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(q, self.scale), Fraction(y, self.scale))
                     for q, y in self.chain)

    @property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(c, self.scale) for c in v)
                     for v in self.lifted)

    def is_full_dimensional(self) -> bool:
        return len(self.chain) > (1 if self.dim == 1 else 2)


def _integer_chain(points: Sequence[tuple[Scalar, Scalar]]) -> tuple:
    """The common denominator of planar points (ints or Fractions) and the
    points times it, as int pairs."""
    scale = lcm(*{_exact(c).denominator for q, y in points for c in (q, y)})
    return scale, [(q.numerator * (scale // q.denominator),
                     y.numerator * (scale // y.denominator))
                    for q, y in points]


def _hull(chain: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The vertices of the convex hull of int pairs, counterclockwise from
    the lex-least, with no point inside an edge: one for a point and two
    for a segment.  The one hull routine of every polytope."""
    keys = sorted(set(chain))

    def half(run):
        out = []
        for q, y in run:
            # drop the last point until it makes a strict left turn
            while len(out) > 1:
                (qa, ya), (qb, yb) = out[-2:]
                if (qb - qa) * (y - ya) > (yb - ya) * (q - qa):
                    break
                out.pop()
            out.append((q, y))
        return out

    return half(keys)[:-1] + half(reversed(keys))[:-1] or keys  # one or none


def _lift(polytope, dim: int, scale: int, points: list) -> RationalPolytope:
    """Fill a new polytope with the lift into dimension dim of the hull P
    of int pairs over scale: hull and check them, divide P's vertices and
    scale by their gcd, then lift and sort them as ints."""
    polygon = _hull(points)
    if any(q < 0 for q, _y in polygon):
        raise ValueError("a point has q < 0")
    p, lifted = dim - 1, []
    if not p:
        polygon = [point for point in polygon if not point[0]]
    if not polygon:
        raise ValueError("a polytope needs a vertex")
    g, zero = gcd(scale, *(c for point in polygon for c in point)), (0,) * p
    chain = tuple((q // g, y // g) for q, y in polygon)
    for q, y in chain:
        lifted += ([zero[:i] + (q,) + zero[i + 1:] + (y,)
                    for i in range(p)] if q else [zero + (y,)])
    vars(polytope).update(dim=dim, scale=scale // g, chain=chain,
                          lifted=tuple(sorted(lifted)))
    return polytope


def polytope_equal(a: RationalPolytope, b: RationalPolytope) -> bool:
    """a == b for polytopes of one dimension; a dimension mismatch is a
    ValueError.  It stays because the benchmark worker calls it."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return a.scale == b.scale and a.lifted == b.lifted


def scaled_simplex(n: int, c: int, d: int) -> RationalPolytope:
    """The simplex with vertices 0, c*e_1, ..., c*e_{n-1} and c*d*e_n: the
    lift of conv{(0, 0), (c, 0), (0, c*d)}, an int chain over 1.  n, c
    and d must be ints (a bool is none): anything else is a TypeError."""
    if n < 1 or c < 1 or d < 1:
        raise ValueError("n, c and d must be positive")
    if not type(n) is type(c) is type(d) is int:
        raise TypeError(f"n, c and d must be ints, not {n!r}, {c!r}, {d!r}")
    return _lift(RationalPolytope.__new__(RationalPolytope), n, 1,
                 [(0, 0), (c, 0), (0, c * d)])


def normal_fan_rays(polytope: RationalPolytope) -> tuple[tuple[int, ...], ...]:
    """The primitive inward facet normals, lex-sorted: e_i for each i when
    p = dim - 1 >= 2, P's inward normal on each other edge, and -1 and 1
    on a segment; the rays of the normal fan of the polytope, i.e. the fan
    of the toric variety it defines.  Full-dimensional only."""
    if not polytope.is_full_dimensional():
        raise ValueError("polytope is not full-dimensional")
    p, chain = polytope.dim - 1, polytope.chain
    if not p:  # a segment on q = 0: its two ends
        return ((-1,), (1,))
    rays = [(0,) * i + (1,) + (0,) * (p - i) for i in range(p) if p > 1]
    for (qa, ya), (qb, yb) in zip(chain, chain[1:] + chain[:1]):
        if p > 1 and qa == qb == 0:
            continue
        # the inward normal is the left one on a counterclockwise edge
        alpha, beta = ya - yb, qb - qa
        g = gcd(alpha, beta)
        rays.append((alpha // g,) * p + (beta // g,))
    return tuple(sorted(rays))


def polytope_to_json(polytope: RationalPolytope) -> str:
    """Canonical UTF-8 text form, bit-exact across runs: rationals are
    rendered as "numerator/denominator", in the text of
    json.dumps(payload, indent=2) and a newline, written from the ints."""
    scale = polytope.scale
    rows = ",\n".join("    [\n" + ",\n".join(
        f'      "{c // (g := gcd(c, scale))}/{scale // g}"' for c in v)
        + "\n    ]" for v in polytope.lifted)
    return f'{{\n  "dim": {polytope.dim},\n  "vertices": [\n{rows}\n  ]\n}}\n'
