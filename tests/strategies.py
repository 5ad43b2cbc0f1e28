"""The tests' shared strategies: semigroups of made-up curves, for the
body and text tests, whose value sets V(0), ..., V(c*M) are given or drawn
rather than read off a flag, and small rationals."""

from fractions import Fraction

import hypothesis.strategies as st

from okbody.okounkov import OkounkovSemigroup
from okbody.varieties import make_case


def fake_semigroup(c, steps, curve):
    """The semigroup of a made-up curve V(0), ..., V(c*M)."""
    return OkounkovSemigroup(make_case("p2", c), "complete",
                             (len(curve) - 1) // c, curve, steps)


@st.composite
def fake_semigroups(draw):
    """A semigroup of a made-up curve: c, the steps and V(0), ..., V(c*M)
    drawn, V(d') a set in {0, ..., 3d'}, empty only when c does not divide
    d', so that no level is empty."""
    c, steps, top = (draw(st.integers(1, 2)), draw(st.integers(0, 3)),
                     draw(st.integers(1, 4)))
    curve = [draw(st.frozensets(st.integers(0, 3 * d), max_size=3,
                                min_size=int(d % c == 0)))
             for d in range(c * top + 1)]
    return fake_semigroup(c, steps, tuple(tuple(sorted(v)) for v in curve))


def small_fractions(bound, max_denominator):
    """The values of st.fractions(-bound, bound, max_denominator=...),
    sampled from their sorted list, which draws several times faster; in
    the order (|v|, v), so that shrinking still heads to 0."""
    values = {Fraction(p, q) for q in range(1, max_denominator + 1)
              for p in range(-bound * q, bound * q + 1)}
    return st.sampled_from(sorted(values, key=lambda v: (abs(v), v)))
