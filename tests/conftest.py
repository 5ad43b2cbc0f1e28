import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from okbody import CaseStudy, Flag, HomogPoly, make_case

# every @given test draws the same examples on every run, and no example
# saved by an earlier run is replayed; a test's own @settings keep these
settings.register_profile("okbody", derandomize=True, database=None)
settings.load_profile("okbody")


@pytest.fixture(scope="session")
def p2():
    return make_case("p2")


@pytest.fixture(scope="session")
def p3():
    return make_case("p3")


@pytest.fixture(scope="session")
def quadric():
    return make_case("quadric_surface")


@pytest.fixture(scope="session")
def fermat():
    return make_case("fermat_cubic")


@pytest.fixture(scope="session")
def off_flex_cubic():
    """The plane cubic y^2 z = x^3 + z^3 at (2:3:1), a point that is no
    flex, flagged by its tangent -2x + y + z (contact order 2 < 3): n = 1
    and no line meets the curve at the point alone, so V(1) = {0, 1, 2}.
    H - 3p has order 2 in the curve's Pic^0.  Not a shipped case."""
    x, y, z = (HomogPoly.variable(3, i) for i in range(3))
    flag = Flag(3, y ** 2 * z - x ** 3 - z ** 3, [],
                HomogPoly.linear_form([-2, 1, 1]), (2, 3, 1))
    return CaseStudy("plane_cubic_off_the_flex", flag, 1)
