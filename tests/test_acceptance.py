"""Acceptance suite: one test per criterion, each printing a pass line.

Every comparison is exact (rational vertex equality, set equality); there
are no tolerances anywhere.  Expected values are frozen constants that were
first confirmed by the independent oracles in tests/oracles.py.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache, reduce

from okbody.convex import (RationalPolytope, normal_fan_rays, polytope_equal,
                           scaled_simplex)
from okbody.elliptic import INFINITY, EllipticCurveFp, single_point_member
from okbody.okounkov import (GradedSystem, body_estimate, generation_degree,
                             semigroup, vertex_criterion)
from okbody.polynomials import HomogPoly
from okbody.varieties import make_case, make_negative_control, verify_flag

from oracles import (all_levels, brute_hull_vertices_2d, expansion_value_set,
                     oracle_value_set, powers_basis, reduce_section,
                     row_reduce, standard_basis)

FERMAT_LEVEL_ONE = ((0, 0), (0, 1), (0, 3), (1, 0))
GENERATION_DEGREES = {"p2": 1, "p3": 1, "quadric_surface": 1,
                      "fermat_cubic": 1}
ENUMERATION_LEVEL = {"p2": 4, "p3": 4, "quadric_surface": 4,
                     "fermat_cubic": 3}


@lru_cache(maxsize=None)
def cached_case(name, c=1):
    return make_case(name, c)


@lru_cache(maxsize=None)
def cached_semigroup(name, c, kind, max_level):
    return semigroup(cached_case(name, c), kind, max_level)


def report(number, message, started):
    print(f"ACCEPTANCE {number} PASS: {message} "
          f"({time.monotonic() - started:.1f}s)")


def test_criterion_01_projective_space_bodies():
    started = time.monotonic()
    for name in ("p2", "p3"):
        for c in (1, 2):
            case_started = time.monotonic()
            case = cached_case(name, c)
            body = body_estimate(cached_semigroup(name, c, "complete", 4))
            assert polytope_equal(body, scaled_simplex(case.n, c, 1))
            assert time.monotonic() - case_started < 10
    report(1, "projective space bodies equal the expected simplex for "
              "c in {1, 2} at M = 4, each case under 10 s", started)


def test_criterion_02_quadric_surface_body():
    started = time.monotonic()
    sg = cached_semigroup("quadric_surface", 1, "complete", 4)
    body = body_estimate(sg)
    assert polytope_equal(body, scaled_simplex(2, 1, 2))
    assert body.vertices == ((Fraction(0), Fraction(0)),
                             (Fraction(0), Fraction(2)),
                             (Fraction(1), Fraction(0)))
    for m in range(1, 5):
        assert len(sg.level(m)) == (m + 1) ** 2
    elapsed = time.monotonic() - started
    assert elapsed < 30
    report(2, "quadric surface body is the triangle (0,0)(1,0)(0,2) and "
              "level sizes are (m+1)^2 for m <= 4", started)


def test_criterion_03_fermat_cubic_body_and_golden_level():
    started = time.monotonic()
    case = cached_case("fermat_cubic")
    sg = cached_semigroup("fermat_cubic", 1, "complete", 3)
    body = body_estimate(sg)
    assert polytope_equal(body, scaled_simplex(2, 1, 3))
    level_one_basis = standard_basis(case, 1)
    assert oracle_value_set(case, level_one_basis) == FERMAT_LEVEL_ONE
    assert sg.level(1) == FERMAT_LEVEL_ONE
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(3, "Fermat cubic body is the triangle (0,0)(1,0)(0,3) and the "
              "level-1 value set matches the oracle-confirmed golden set",
           started)


def test_criterion_04_finite_generation_certificates():
    started = time.monotonic()
    for name, expected_degree in GENERATION_DEGREES.items():
        case = cached_case(name)
        simplex = case.expected_body()
        for kind in ("powers", "complete"):
            sg = cached_semigroup(name, 1, kind, ENUMERATION_LEVEL[name])
            assert vertex_criterion(simplex, sg.level(1)), (name, kind)
            degree = generation_degree(sg, kmax=2)
            assert degree is not None and degree <= 2, (name, kind)
            assert degree == expected_degree, (name, kind)
    report(4, "vertex criterion certifies every case study for both kinds; "
              "empirical generation degree is 1 everywhere", started)


def test_criterion_05_homogeneity():
    started = time.monotonic()
    matched_level = {"p2": 4, "p3": 4, "quadric_surface": 2,
                     "fermat_cubic": 2}
    for name, level in matched_level.items():
        body_c1 = body_estimate(cached_semigroup(name, 1, "complete", level))
        body_c2 = body_estimate(cached_semigroup(name, 2, "complete", level))
        assert polytope_equal(body_c2, RationalPolytope(body_c1.dim, (
            (2 * q, 2 * y) for q, y in body_c1.polygon))), name
    report(5, "doubling c exactly doubles every body at matched M", started)


def test_criterion_06_kind_agreement():
    started = time.monotonic()
    for name in GENERATION_DEGREES:
        case = cached_case(name)
        system = GradedSystem(case)
        sg_p = cached_semigroup(name, 1, "powers", 4)
        sg_c = cached_semigroup(name, 1, "complete", 4)
        for m in range(1, 5):
            # the powers rank by elimination of the multiplied-out products
            assert len(powers_basis(case, m)) == system.dimension(m), \
                (name, m)
            assert sg_p.level(m) == sg_c.level(m), (name, m)
    report(6, "powers and complete systems have equal dimensions and "
              "identical value sets for every m <= 4", started)


def test_criterion_07_flag_verification():
    started = time.monotonic()
    for name in GENERATION_DEGREES:
        assert verify_flag(cached_case(name)).passed, name
    for name, d in (("quadric_surface", 2), ("fermat_cubic", 3)):
        contact = next(c for c in verify_flag(cached_case(name)).checks
                       if c.name == "single-point contact")
        assert contact.passed and f"contact order {d}" in contact.detail
    control = verify_flag(make_negative_control())
    assert not control.passed
    contact = next(c for c in control.checks
                   if c.name == "single-point contact")
    assert "contact order 1" in contact.detail
    report(7, "all shipped flags verify (contact orders 2 and 3 as "
              "required); the negative control fails with contact order 1",
           started)


def test_criterion_08_elliptic_single_point_sweep():
    started = time.monotonic()
    curve = EllipticCurveFp(101, 0, 1)
    assert (curve.order() - 102) ** 2 <= 4 * 101  # Hasse bound
    rng = random.Random(2024)
    for d in (2, 3, 5):
        for _ in range(200):
            divisor = [rng.choice(curve.points) for _ in range(d)]
            target = reduce(curve.add, divisor, INFINITY)
            witness = single_point_member(curve, divisor)
            if witness is None:
                assert all(curve.mul(d, p) != target for p in curve.points)
            else:
                assert curve.mul(d, witness) == target
    for _ in range(1000):
        p, q, r = (rng.choice(curve.points) for _ in range(3))
        assert curve.add(curve.add(p, q), r) == curve.add(p, curve.add(q, r))
    report(8, "600 sampled divisor classes over F_101 all verified "
              "(witness equation or exhaustive no-witness check); 1000 "
              "associativity triples pass; Hasse bound holds", started)


def test_criterion_09_property_suites():
    started = time.monotonic()
    # semigroup closure on all enumerated level pairs
    for name in GENERATION_DEGREES:
        sg = cached_semigroup(name, 1, "complete", ENUMERATION_LEVEL[name])
        levels = all_levels(sg)
        for i in levels:
            for j in levels:
                if i + j in levels:
                    target = set(levels[i + j])
                    assert all(tuple(a + b for a, b in zip(u, v)) in target
                               for u in levels[i] for v in levels[j])
    # value-set invariance under 20 random invertible basis changes
    rng = random.Random(404)
    trials = [("quadric_surface", 2)] * 10 + [("fermat_cubic", 1)] * 10
    for name, m in trials:
        case = cached_case(name)
        basis = list(standard_basis(case, m))
        reference = expansion_value_set(basis, case.flag)
        assert reference == cached_semigroup(name, 1, "complete", m).level(m)
        dim = len(basis)
        while True:
            matrix = [[rng.randrange(-2, 3) for _ in range(dim)]
                      for _ in range(dim)]
            if len(row_reduce(matrix)[1]) == dim:
                break
        recombined = []
        for row in matrix:
            section = HomogPoly(case.flag.ambient_vars, case.c * m, {})
            for coeff, vec in zip(row, basis):
                section = section + coeff * vec
            recombined.append(reduce_section(case, section))
        assert expansion_value_set(recombined, case.flag) == reference
    # planar hull idempotence and permutation invariance on random clouds,
    # shifted by 8 to q >= 0
    rng = random.Random(808)
    for _ in range(15):
        cloud = [(Fraction(rng.randrange(-8, 9), rng.randrange(1, 4)) + 8,
                  Fraction(rng.randrange(-8, 9), rng.randrange(1, 4)))
                 for _ in range(rng.randrange(1, 15))]
        hull = RationalPolytope(2, cloud).polygon
        assert RationalPolytope(2, hull).polygon == hull
        shuffled = list(cloud)
        rng.shuffle(shuffled)
        assert RationalPolytope(2, shuffled + cloud).polygon == hull
        assert sorted(hull) == brute_hull_vertices_2d(cloud)
    report(9, "closure on all level pairs, value-set basis invariance on "
              "20 recombinations, "
              "hull properties on random clouds (all exact)", started)


def test_criterion_10_toric_export():
    started = time.monotonic()
    from okbody.cli import main
    import json
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        for name in GENERATION_DEGREES:
            assert main(["export-toric", "--case", name, "--max-level", "2",
                         "--out", tmp]) == 0
        data = json.loads(
            (Path(tmp) / "p2_c1_M2_complete_fan.json").read_text())
        assert {tuple(r) for r in data["rays"]} == {(1, 0), (0, 1), (-1, -1)}
    body = body_estimate(cached_semigroup("p2", 1, "complete", 2))
    assert set(normal_fan_rays(body)) == {(1, 0), (0, 1), (-1, -1)}
    report(10, "normal fan rays exported for every case; projective plane "
               "rays are exactly {(1,0),(0,1),(-1,-1)}", started)
