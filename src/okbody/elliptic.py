"""Short Weierstrass elliptic curves over a prime field, with exhaustive
point enumeration and the chord-tangent group law.

At desk scale the whole group E(F_p) is enumerated once, so divisor-class
computations reduce to finite group arithmetic: summing the points of an
effective divisor gives its class, and a degree-d divisor is linearly
equivalent to d times a single point exactly when that class is divisible by
d in the group.  Over a finite field the division may fail; over an
algebraically closed field it never does.

Membership is answered from a per-curve table of d*E(F_p), built on the
first query of each degree d: it maps each class d*P to the first P in the
enumeration order of the points, so a query costs one group-law sum and one
lookup.  Points are checked once, where they enter the group law (``add``,
``mul``, ``negate``, ``single_point_member``): a point is INFINITY or a
pair of integers reduced modulo p that satisfies the equation.

No part of the semigroup, body or certificate path uses this module, and
``import okbody`` does not load it: it stays, as a submodule, for the
benchmark's ``ec_sweep`` workload.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union


class _Infinity:
    """The point at infinity, the identity of the group law."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

Point = Union[tuple[int, int], _Infinity]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class EllipticCurveFp:
    """y^2 = x^3 + a*x + b over F_p, p an odd prime, with nonzero
    discriminant 4a^3 + 27b^2."""

    def __init__(self, p: int, a: int, b: int):
        if not is_prime(p) or p == 2:
            raise ValueError("p must be an odd prime")
        a %= p
        b %= p
        if (4 * a ** 3 + 27 * b ** 2) % p == 0:
            raise ValueError("singular curve: discriminant vanishes")
        self.p = p
        self.a = a
        self.b = b
        self._division: dict[int, Mapping[Point, Point]] = {}

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """All points, the point at infinity first, affine points sorted."""
        roots: dict[int, list[int]] = {}
        for y in range(self.p):
            roots.setdefault(y * y % self.p, []).append(y)
        affine = []
        for x in range(self.p):
            rhs = (x ** 3 + self.a * x + self.b) % self.p
            for y in roots.get(rhs, ()):
                affine.append((x, y))
        return (INFINITY, *sorted(affine))

    def order(self) -> int:
        return len(self.points)

    def is_on_curve(self, point: Point) -> bool:
        if point is INFINITY:
            return True
        if not isinstance(point, tuple) or len(point) != 2:
            return False
        x, y = point
        return (isinstance(x, int) and isinstance(y, int)
                and 0 <= x < self.p and 0 <= y < self.p
                and (y * y - (x ** 3 + self.a * x + self.b)) % self.p == 0)

    def _require(self, point: Point) -> None:
        if not self.is_on_curve(point):
            raise ValueError(f"{point} is not a point of the curve")

    def negate(self, point: Point) -> Point:
        self._require(point)
        if point is INFINITY:
            return INFINITY
        x, y = point
        return (x, (-y) % self.p)

    def add(self, p1: Point, p2: Point) -> Point:
        """Chord-tangent addition with the point at infinity as identity."""
        self._require(p1)
        self._require(p2)
        return self._add(p1, p2)

    def _add(self, p1: Point, p2: Point) -> Point:
        """``add`` on points already checked to lie on the curve."""
        if p1 is INFINITY:
            return p2
        if p2 is INFINITY:
            return p1
        p = self.p
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2 and (y1 + y2) % p == 0:
            return INFINITY
        if p1 == p2:
            slope = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p)
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p)
        slope %= p
        x3 = (slope * slope - x1 - x2) % p
        y3 = (slope * (x1 - x3) - y1) % p
        return (x3, y3)

    def mul(self, k: int, point: Point) -> Point:
        """k-fold sum by double-and-add; negative k uses the inverse."""
        if k < 0:
            return self.mul(-k, self.negate(point))
        self._require(point)
        result: Point = INFINITY
        addend = point
        while k:
            if k & 1:
                result = self._add(result, addend)
            addend = self._add(addend, addend)
            k >>= 1
        return result

    def division_witnesses(self, d: int) -> Mapping[Point, Point]:
        """Read-only map from each class of d*E(F_p) to its first witness,
        the first P in the enumeration order of ``points`` with d*P equal to
        the class.  Built with one ``mul`` per point on the first query of
        each degree, then kept with the curve."""
        if d < 1:
            raise ValueError("the degree must be positive")
        table = self._division.get(d)
        if table is None:
            witnesses: dict[Point, Point] = {}
            for point in self.points:
                witnesses.setdefault(self.mul(d, point), point)
            table = self._division[d] = MappingProxyType(witnesses)
        return table

    def __repr__(self) -> str:
        return f"EllipticCurveFp(p={self.p}, a={self.a}, b={self.b})"


def single_point_member(curve: EllipticCurveFp, points: Sequence[Point]
                        ) -> Optional[Point]:
    """A point P with d*P linearly equivalent to the given degree-d effective
    divisor, the first one in the enumeration order of E(F_p), or None when
    no F_p-rational witness exists.  With the point at infinity as origin,
    two effective divisors of one degree are linearly equivalent exactly
    when the group-law sums of their points agree."""
    if not points:
        raise ValueError("the divisor must have positive degree")
    target: Point = INFINITY
    for point in points:
        curve._require(point)
        target = curve._add(target, point)
    return curve.division_witnesses(len(points)).get(target)
