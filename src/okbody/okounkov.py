"""Graded value semigroups and their body estimates.

For a case study with very ample class scaled by c, two graded linear
systems are available at each level m:

  complete  the full degree-(m*c) graded piece of the coordinate ring,
  powers    the span of all m-fold products of level-1 elements.

On a hypersurface (or projective space) the two are the same piece: every
standard monomial of degree m*c is a product of m standard monomials of
degree c (see GradedSystem), so both kinds have the standard monomials as
basis and the same value sets.

The value set of a level is the set of valuation vectors of the nonzero
elements of its span (Lazarsfeld and Mustata 2009, section 1; Kaveh and
Khovanskii 2012); it has as many elements as the span has dimensions.  A
full graded piece needs no section's valuation: in a step's coordinates
(grevlex, y = h smallest, the relation's leading monomial free of y) the
standard monomials of degree D are y^k mu, mu standard on the next member,
each its own normal form, so the degree-D piece has the value set

  {(k_1, ..., k_{n-1}, j) : sum k_i <= D, j in V(D - sum k_i)}

in lex order, V(d') being the value set of the degree-d' forms on the final
curve or line; the final stage gives V(0), ..., V(c*M) in one pass.

Collecting the value sets of levels 1..M gives a finite piece of the graded
value semigroup; its cone slice at height one is an inner estimate of the
limit body.  When every vertex of a candidate polytope that is also a valid
outer bound already occurs among the level-1 vectors, the semigroup
generated by the full system is finitely generated (the vertex criterion),
and the body equals the candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .convex import GradedPoint, RationalPolytope, cone_slice
from .varieties import CaseStudy

KINDS = ("powers", "complete")

Vector = tuple[int, ...]


class GradedSystem:
    """The per-level dimensions of one graded linear system: the count of
    standard monomials of degree c*m, for either kind.

    A complete level is the full graded piece, which the standard monomials
    span.  A powers level is the span of the m-fold products of level-1
    sections, and it is the full piece too: a standard monomial of degree
    c*m factors into m monomials of degree c, and the relation's leading
    monomial divides none of them, since each divides the whole product, so
    every standard monomial of degree c*m is such a product."""

    def __init__(self, case: CaseStudy, kind: str):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        self.case = case
        self.kind = kind

    def dimension(self, level: int) -> int:
        """The Hilbert function C(N-1+D, N-1) - C(N-1+D-delta, N-1) of a
        hypersurface of degree delta in N variables at D = c*level (the
        second term absent on projective space)."""
        if level < 1:
            raise ValueError("levels start at 1")
        n = self.case.flag.ambient_vars - 1
        degree = self.case.section_degree(level)
        relation = self.case.flag.relation
        low = degree - relation.degree if relation is not None else -1
        return comb(n + degree, n) - (comb(n + low, n) if low >= 0 else 0)


@dataclass(frozen=True)
class OkounkovSemigroup:
    """The enumerated levels 1..max_level of the graded value semigroup of
    one case study and one kind of graded system."""

    case: CaseStudy
    kind: str
    max_level: int
    levels: dict[int, tuple[Vector, ...]]

    def level(self, m: int) -> tuple[Vector, ...]:
        return self.levels[m]

    def graded_points(self) -> list[GradedPoint]:
        return [GradedPoint(vec, m)
                for m in sorted(self.levels)
                for vec in self.levels[m]]


def semigroup(case: CaseStudy, kind: str, max_level: int) -> OkounkovSemigroup:
    """Enumerate value sets for all levels 1..max_level, each assembled from
    the final stage's value sets V(d') as in the module docstring, all
    computed in one call.  A level whose system's dimension is not the full
    piece's raises ValueError."""
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    system = GradedSystem(case, kind)
    curve = case.flag.final_stage.value_sets(case.section_degree(max_level))

    def piece(degree: int, steps: int) -> list[Vector]:
        if not steps:
            return [(j,) for j in curve[degree]]
        return [(k,) + rest for k in range(degree + 1)
                for rest in piece(degree - k, steps - 1)]

    levels = {m: tuple(piece(case.section_degree(m), len(case.flag.stages)))
              for m in range(1, max_level + 1)}
    for m, level in levels.items():
        if len(level) != system.dimension(m):
            raise ValueError(f"level {m}: the {kind} system's dimension "
                             f"{system.dimension(m)} is not {len(level)}, "
                             "that of the full graded piece")
    return OkounkovSemigroup(case, kind, max_level, levels)


def body_estimate(sg: OkounkovSemigroup) -> RationalPolytope:
    """Height-one cone slice over every enumerated graded point: an exact
    inner approximation of the limit body, monotone in max_level."""
    return cone_slice(sg.graded_points())


def vertex_criterion(candidate: RationalPolytope,
                     level_one: Iterable[Vector]) -> bool:
    """True when every vertex of the candidate polytope is an integer point
    occurring among the level-1 valuation vectors.  Combined with the
    candidate being a valid outer bound, this certifies finite generation of
    the graded value semigroup and pins the body to the candidate."""
    available = set(level_one)
    for vertex in candidate.vertices:
        if any(c.denominator != 1 for c in vertex):
            return False
        if tuple(int(c) for c in vertex) not in available:
            return False
    return True


def generation_degree(sg: OkounkovSemigroup, kmax: int) -> int | None:
    """Smallest k <= kmax such that every enumerated graded point above
    level k is a sum of enumerated graded points of level <= k (brute-force
    decomposition search), or None if no such k exists below the bound.

    This is an empirical witness on the enumerated levels only; it is never
    a certificate by itself.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    zero = (0,) * len(sg.levels[1][0])
    for k in range(1, kmax + 1):
        generated: dict[int, set[Vector]] = {0: {zero}}
        ok = True
        for m in range(1, sg.max_level + 1):
            reachable: set[Vector] = set()
            for j in range(1, min(k, m) + 1):
                for prev in generated[m - j]:
                    for vec in sg.levels[j]:
                        reachable.add(tuple(a + b for a, b in zip(prev, vec)))
            generated[m] = reachable
            if m > k and not set(sg.levels[m]) <= reachable:
                ok = False
                break
        if ok:
            return k
    return None


def semigroup_to_json(sg: OkounkovSemigroup) -> str:
    """Canonical UTF-8 text form with integer entries, levels in increasing
    order and vectors lex-sorted.  Bit-exact across runs."""
    payload = {
        "case": sg.case.name,
        "kind": sg.kind,
        "M": sg.max_level,
        "levels": {str(m): [list(vec) for vec in sg.levels[m]]
                   for m in sorted(sg.levels)},
    }
    return json.dumps(payload, indent=2) + "\n"
