"""Graded value semigroups and their body estimates.

For a case study with very ample class scaled by c, level m of the
semigroup comes from the complete linear system: the full degree-(m*c)
graded piece of the coordinate ring.  On a hypersurface or projective space
the span of all m-fold products of level-1 elements (the powers system) is
that same piece (see GradedSystem), so the two kinds have the same value
sets.

The value set of a level is the set of valuation vectors of the nonzero
elements of its span (Lazarsfeld and Mustata 2009, section 1; Kaveh and
Khovanskii 2012); it has as many elements as the span has dimensions.  A
full graded piece needs no section's valuation: in a step's coordinates
(grevlex, y = h smallest, the relation's leading monomial free of y) the
standard monomials of degree D are y^k mu, mu standard on the next member,
each its own normal form, so the degree-D piece has the value set

  {(k_1, ..., k_{n-1}, j) : sum k_i <= D, j in V(D - sum k_i)}

in lex order, V(d') being the value set of the degree-d' forms on the final
plane curve (a line on P^n), all from one pass of the final stage.  A
semigroup keeps only these sets: its generation search reads a level's
fibers (s, V(c*m - s)) over the prefix sums s, and its vectors are built
only when read.

Collecting the value sets of levels 1..M gives a finite piece of the graded
value semigroup; the hull of its quotients v/m is an inner estimate of the
limit body.  As each fiber is a simplex over its prefix sum s times a set
of last entries, that hull is the lift {x >= 0, (sum(x), y) in P} of the
planar hull P of the fibers' pairs (s, min V)/m and (s, max V)/m (see
okbody.convex), each degree's at its first level being enough, hulled
once as ints times lcm(1..M).  When every vertex of a candidate polytope
that is also a valid outer bound already occurs among the level-1
vectors, the semigroup generated by the full system is finitely generated
(the vertex criterion), and the body equals the candidate.
generation_degree proves the degree of generation when V follows the
Riemann-Roch rule of okbody.valuation.
"""

from __future__ import annotations

import json
from math import comb, lcm
from typing import Iterable

from .convex import RationalPolytope, _lift
from .polynomials import Frozen, graded_monomials
from .varieties import CaseStudy

KINDS = ("powers", "complete")

Vector = tuple[int, ...]


class GradedSystem:
    """The per-level dimensions of the graded coordinate ring: the count of
    standard monomials of degree c*m, the Hilbert function.

    A level of the complete system is the full graded piece, which the
    standard monomials span.  A level of the powers system, the span of the
    m-fold products of level-1 sections, is the full piece too: a standard
    monomial of degree c*m factors into m monomials of degree c, and the
    relation's leading monomial divides none of them, since each divides
    the whole product, so every standard monomial of degree c*m is such a
    product.  So one count serves both labels of KINDS.  The tests and the
    benchmark's tracer read it; semigroup cites it for this proof."""

    def __init__(self, case: CaseStudy):
        self.case = case

    def dimension(self, level: int) -> int:
        """The Hilbert function C(N-1+D, N-1) - C(N-1+D-delta, N-1) of a
        hypersurface of degree delta in N variables at D = c*level (the
        second term absent on projective space)."""
        if level < 1:
            raise ValueError("levels start at 1")
        n = self.case.flag.ambient_vars - 1
        degree = self.case.c * level
        relation = self.case.flag.relation
        low = degree - relation.degree if relation is not None else -1
        return comb(n + degree, n) - (comb(n + low, n) if low >= 0 else 0)


class OkounkovSemigroup(Frozen):
    """Levels 1..max_level of the graded value semigroup of one case study,
    labelled with its kind, held as curve = (V(0), ..., V(c*M)) and
    steps = n - 1; level m, built when read, is the set of prefix + (j,)
    with sum(prefix) = s <= c*m and j in V(c*m - s); rule_from is the d0
    of _FinalStage.value_sets_and_rule, from which the Riemann-Roch rule,
    on its premise e in V(1), gave the V; None when it gave none."""

    def __init__(self, case: CaseStudy, kind: str, max_level: int,
                 curve: tuple[tuple[int, ...], ...], steps: int,
                 rule_from: int | None = None):
        vars(self).update(case=case, kind=kind, max_level=max_level,
                          curve=curve, steps=steps, rule_from=rule_from)

    def fibers(self, m: int) -> list[tuple[int, tuple[int, ...]]]:
        """Level m as the pairs (s, V(c*m - s)), s = 0 .. c*m the prefix
        sums (0 alone without steps)."""
        if not 1 <= m <= self.max_level:
            raise KeyError(m)
        degree = self.case.c * m
        return [(s, self.curve[degree - s])
                for s in range(degree + 1 if self.steps else 1)]

    def level(self, m: int) -> tuple[Vector, ...]:
        """Level m, lex-sorted: e[:-1] + (j,), j in V(e[-1]), deg e = c*m."""
        if not 1 <= m <= self.max_level:
            raise KeyError(m)
        return tuple(e[:-1] + (j,) for e in reversed(
            graded_monomials(self.steps + 1, self.case.c * m))
            for j in self.curve[e[-1]])

    def proof_level(self, k: int) -> int | None:
        """max(m*, k) + 1 of generation_degree's lemma if <= M, else None,
        m* = 1 + ceil((2g - 1)/(c*e)) when the rule gave V."""
        if self.rule_from is None:
            return None
        c, e = self.case.c, self.case.flag.final_stage.curve_degree
        m_star = 1 - (1 - (e - 1) * (e - 2)) // (c * e)
        return max(m_star, k) + 1 if max(m_star, k) < self.max_level else None


def semigroup(case: CaseStudy, kind: str, max_level: int) -> OkounkovSemigroup:
    """Levels 1..max_level from the final stage's value sets V(d'), all
    computed in one call, each level of GradedSystem's dimension by
    construction.  The kind, "complete" or "powers" (KINDS), only labels
    the result and its text, as both give the same levels (see
    GradedSystem); it stays an argument because the benchmark harness
    passes it, in its CASE:KIND:M job specs and in the fermat_powers job
    whose digests are pinned."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if type(max_level) is not int:
        raise TypeError(f"max_level must be an int, not {max_level!r}")
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    curve, rule_from = case.flag.final_stage.value_sets_and_rule(
        case.c * max_level)
    return OkounkovSemigroup(case, kind, max_level, curve,
                             len(case.flag.steps), rule_from)


def body_estimate(sg: OkounkovSemigroup) -> RationalPolytope:
    """The hull of the quotients v/m of the vectors v of levels 1..M, an
    inner estimate of the limit body, monotone in M: the lift of the hull P
    of the fibers' pairs (s, min V)/m and (s, max V)/m (see okbody.convex).
    V(d') is the fiber over s = c*m - d' of each level m >= m0 = max(1,
    ceil(d'/c)), at (c, 0) + (-d', j)/m, between (c, 0) = V(0) over s = c
    at level 1 and its pair at m0; so P is the hull of the pairs of each d'
    at its m0 (d' = c*m at m without steps), at most 2(c*M + 1), hulled and
    lifted once as ints times lcm(1..M).  With steps, V(0) other than {0}
    is a ValueError."""
    c, curve, scale = sg.case.c, sg.curve, lcm(*range(1, sg.max_level + 1))
    if sg.steps and curve[0] != (0,):
        raise ValueError(f"V(0) is {curve[0]}, not (0,): the constants")
    corners = []
    for d in range(0 if sg.steps else c, len(curve), 1 if sg.steps else c):
        m, values = max(1, -(-d // c)), curve[d]
        corners += [((c * m - d) * (scale // m), j * (scale // m))
                    for j in values[:1] + values[-1:]]
    return _lift(RationalPolytope.__new__(RationalPolytope), sg.steps + 1,
                 scale, corners)


def vertex_criterion(candidate: RationalPolytope,
                     level_one: Iterable[Vector]) -> bool:
    """True when every vertex of the candidate polytope is an integer point
    occurring among the level-1 valuation vectors.  Combined with the
    candidate being a valid outer bound, this certifies finite generation of
    the graded value semigroup and pins the body to the candidate."""
    # scale is the vertices' least common denominator: over 1 they are ints
    return candidate.scale == 1 and set(candidate.lifted) <= set(level_one)


def generation_degree(sg: OkounkovSemigroup, kmax: int) -> int | None:
    """Smallest k <= kmax such that every enumerated graded point above
    level k is a sum of enumerated graded points of level <= k (brute-force
    decomposition search), or None if no such k exists below the bound.
    The prefixes of sum s1 plus those of sum s2 are all the prefixes of sum
    s1 + s2, so the search adds fibers: A(s1) + V(s2) lies over s1 + s2.

    A witness on levels 1..M; a proof at every level when the rule gave V
    from d0 = sg.rule_from on, as then level m + 1 is level m plus level 1
    for m >= m* = 1 + ceil((2g - 1)/(c*e)), at least ceil(2g/(c*e)) =
    ceil(d0/c): (k, j) with s = sum(k) >= c is (k - a, j) + (a, 0), sum(a)
    = c; else, t = c - s, V(cm + t) = (V(cm) + te) | {0, ..., te - 1}, te
    and 0 lie in V(t), and {0, ..., cme - 2g} in V(cm).  It reads levels to
    min(M, max(m*, k) + 1)."""
    if type(kmax) is not int:
        raise TypeError(f"kmax must be an int, not {kmax!r}")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    fibers = {}  # fibers[m]: level m's, read once per call
    for k in range(1, kmax + 1):
        generated = {0: [{0}]}  # generated[m][s]: sums over s at level m
        for m in range(1, (sg.proof_level(k) or sg.max_level) + 1):
            fibers[m] = fibers.get(m) or sg.fibers(m)
            sums = generated[m] = [set() for _ in fibers[m]]
            for j in range(1, min(k, m) + 1):
                for s1, lower in enumerate(generated[m - j]):
                    for s2, values in fibers[j]:
                        sums[s1 + s2] |= {a + b for a in lower for b in values}
            if m > k and any(set(values) - sums[s] for s, values in fibers[m]):
                break
        else:
            return k
    return None


def semigroup_to_json(sg: OkounkovSemigroup) -> str:
    """Canonical UTF-8 text form with integer entries, levels in increasing
    order and vectors lex-sorted, bit-exact across runs: the text of
    json.dumps(payload, indent=2) and a newline, written from the value
    sets, each V(d') and each prefix's text made once: level m's vectors
    are e[:-1] + (j,), j in V(e[-1]), e over the monomials of degree c*m."""
    c, texts = sg.case.c, [[str(j) for j in values] for values in sg.curve]
    heads, levels = {}, []  # heads[prefix]: a vector's opening, separator
    for m in range(1, sg.max_level + 1):
        vectors = []
        for e in reversed(graded_monomials(sg.steps + 1, c * m)):
            if texts[e[-1]]:
                if (prefix := e[:-1]) not in heads:
                    head = "".join(f"        {k},\n" for k in prefix)
                    heads[prefix] = (f"      [\n{head}        ",
                                     f"\n      ],\n      [\n{head}        ")
                opening, between = heads[prefix]
                vectors.append(opening + between.join(texts[e[-1]]))
        body = ("[\n" + "\n      ],\n".join(vectors) + "\n      ]\n    ]"
                if vectors else "[]")
        levels.append(f'    "{m}": {body}')
    return (f'{{\n  "case": {json.dumps(sg.case.name)},\n'
            f'  "kind": {json.dumps(sg.kind)},\n  "M": {sg.max_level},\n'
            '  "levels": {\n' + ",\n".join(levels) + "\n  }\n}\n")
