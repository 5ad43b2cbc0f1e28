"""Independent group law on y^2 = x^3 + a*x + b over F_p.

The ec_sweep workload uses it to enumerate E(F_p), to generate seeded
divisors, and to check the answers of okbody.elliptic against d*E(F_p).  It
shares no code with okbody.  Affine points are (x, y) tuples and the point at
infinity is None.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

Point = Optional[tuple[int, int]]


class Curve:
    def __init__(self, p: int, a: int, b: int):
        self.p, self.a, self.b = p, a % p, b % p

    def points(self) -> list[Point]:
        """The point at infinity first, then the affine points sorted."""
        p = self.p
        affine = [(x, y) for x in range(p) for y in range(p)
                  if (y * y - x ** 3 - self.a * x - self.b) % p == 0]
        return [None, *affine]

    def on_curve(self, point: Point) -> bool:
        if point is None:
            return True
        x, y = point
        return (0 <= x < self.p and 0 <= y < self.p
                and (y * y - x ** 3 - self.a * x - self.b) % self.p == 0)

    def add(self, P: Point, Q: Point) -> Point:
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            slope = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p)
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, p)
        x3 = (slope * slope - x1 - x2) % p
        return x3, (slope * (x1 - x3) - y1) % p

    def mul(self, k: int, P: Point) -> Point:
        result: Point = None
        for _ in range(k):
            result = self.add(result, P)
        return result

    def total(self, points: list[Point]) -> Point:
        result: Point = None
        for P in points:
            result = self.add(result, P)
        return result


def divisors(curve_points: list[Point], degrees: list[int],
             seed: int) -> Iterator[list[Point]]:
    """Endless seeded stream of effective divisors, degrees taken in turn,
    points drawn uniformly with repetition."""
    rng = random.Random(seed)
    index = 0
    while True:
        d = degrees[index % len(degrees)]
        yield [rng.choice(curve_points) for _ in range(d)]
        index += 1


def encode(point: Point) -> object:
    """JSON form of a point: [x, y], or "inf" for the point at infinity."""
    return "inf" if point is None else list(point)


def decode(value: object) -> Point:
    return None if value == "inf" else (int(value[0]), int(value[1]))
