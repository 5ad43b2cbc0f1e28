"""Semigroups of made-up curves, for the body and text tests: the value
sets V(0), ..., V(c*M) are given or drawn rather than read off a flag."""

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
