import math
import random
from functools import reduce

import pytest
from oracles import oracle_single_point_member

from okbody.elliptic import (INFINITY, EllipticCurveFp, is_prime,
                             single_point_member)


@pytest.fixture(scope="module")
def e5():
    return EllipticCurveFp(5, 0, 1)


@pytest.fixture(scope="module")
def e101():
    return EllipticCurveFp(101, 0, 1)


def test_f5_curve_has_exactly_six_points(e5):
    # independent enumeration: brute force over all affine pairs
    brute = [(x, y) for x in range(5) for y in range(5)
             if (y * y - x ** 3 - 1) % 5 == 0]
    assert e5.order() == 6
    assert set(e5.points) == {INFINITY, *brute}


def test_group_order_annihilates(e5):
    for point in e5.points:
        assert e5.mul(6, point) is INFINITY


def test_identity_and_inverse(e101):
    rng = random.Random(0)
    for _ in range(50):
        point = rng.choice(e101.points)
        assert e101.add(point, INFINITY) == point
        assert e101.add(point, e101.negate(point)) is INFINITY


def test_associativity_and_commutativity(e101):
    rng = random.Random(1)
    for _ in range(300):
        p, q, r = (rng.choice(e101.points) for _ in range(3))
        assert e101.add(e101.add(p, q), r) == e101.add(p, e101.add(q, r))
        assert e101.add(p, q) == e101.add(q, p)


def test_mul_is_additive_in_the_scalar(e101):
    rng = random.Random(2)
    for _ in range(40):
        point = rng.choice(e101.points)
        m, k = rng.randrange(0, 30), rng.randrange(0, 30)
        assert e101.mul(m + k, point) == \
            e101.add(e101.mul(m, point), e101.mul(k, point))


def test_mul_against_naive_addition(e101):
    rng = random.Random(3)
    for _ in range(20):
        point = rng.choice(e101.points)
        k = rng.randrange(0, 25)
        naive = INFINITY
        for _i in range(k):
            naive = e101.add(naive, point)
        assert e101.mul(k, point) == naive


def test_hasse_bound(e5, e101):
    for curve in (e5, e101):
        assert abs(curve.order() - (curve.p + 1)) <= 2 * math.isqrt(curve.p) + 2
        assert (curve.order() - (curve.p + 1)) ** 2 <= 4 * curve.p


def test_point_membership_enforced(e101):
    with pytest.raises(ValueError):
        e101.add((1, 1), INFINITY)
    with pytest.raises(ValueError):
        e101.mul(2, (3, 5))


@pytest.mark.parametrize("bad", [(105, 41), (4, 41 - 101), (4, 142),
                                 (4.0, 41), [4, 41], (4, 41, 0)])
def test_unreduced_or_malformed_coordinates_rejected(e101, bad):
    # (4, 41) is on the curve; each bad form names the same residues or is
    # not a pair of integers, and would miss every table key
    assert e101.is_on_curve((4, 41))
    assert not e101.is_on_curve(bad)
    with pytest.raises(ValueError):
        e101.add(bad, e101.negate((4, 41)))
    with pytest.raises(ValueError):
        e101.mul(3, bad)
    with pytest.raises(ValueError):
        single_point_member(e101, [INFINITY, bad])
    with pytest.raises(ValueError):
        single_point_member(e101, [bad])


def test_bad_curves_rejected():
    with pytest.raises(ValueError):
        EllipticCurveFp(10, 1, 1)
    with pytest.raises(ValueError):
        EllipticCurveFp(5, 0, 0)  # discriminant zero
    assert is_prime(101) and not is_prime(1)


# -- single-point representatives -----------------------------------------------


def test_forced_witness_for_multiples(e101):
    rng = random.Random(4)
    for _ in range(20):
        q = rng.choice(e101.points)
        d = rng.randrange(1, 6)
        witness = single_point_member(e101, [q] * d)
        assert witness is not None
        assert e101.mul(d, witness) == e101.mul(d, q)


def test_degree_one_returns_the_class_itself(e5):
    for point in e5.points:
        assert single_point_member(e5, [point]) == point


def test_degree_two_witnesses_verify(e101):
    rng = random.Random(5)
    missing = 0
    for _ in range(60):
        divisor = [rng.choice(e101.points) for _ in range(2)]
        target = reduce(e101.add, divisor, INFINITY)
        witness = single_point_member(e101, divisor)
        if witness is None:
            missing += 1
            assert all(e101.mul(2, p) != target for p in e101.points)
        else:
            assert e101.mul(2, witness) == target
    assert 0 < missing < 60  # division by 2 fails for about half the classes


def test_coprime_degree_always_has_witness(e101):
    # |E(F_101)| = 102 and gcd(5, 102) = 1, so division by 5 never fails
    assert math.gcd(5, e101.order()) == 1
    rng = random.Random(6)
    for _ in range(40):
        divisor = [rng.choice(e101.points) for _ in range(5)]
        assert single_point_member(e101, divisor) is not None


def test_infinity_class_witnessed_by_infinity(e101):
    point = e101.points[1]
    divisor = [point, e101.negate(point)]
    assert e101.add(*divisor) is INFINITY
    assert single_point_member(e101, divisor) is INFINITY


def test_empty_divisor_rejected(e101):
    with pytest.raises(ValueError):
        single_point_member(e101, [])


def test_divisor_point_off_curve_rejected(e101):
    with pytest.raises(ValueError):
        single_point_member(e101, [(1, 1)])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 102, 103, 204])
def test_table_matches_scan_on_every_class(e101, d):
    for point in e101.points:
        divisor = [point] + [INFINITY] * (d - 1)
        assert single_point_member(e101, divisor) == \
            oracle_single_point_member(e101, divisor)


@pytest.mark.parametrize("d", [3, 5])
def test_table_matches_scan_on_seeded_classes(d):
    curve = EllipticCurveFp(1009, 0, 1)
    rng = random.Random(20261018 + d)
    for _ in range(200):
        divisor = [rng.choice(curve.points) for _ in range(d)]
        assert single_point_member(curve, divisor) == \
            oracle_single_point_member(curve, divisor)


def test_division_table_built_once_per_degree(monkeypatch):
    calls = []
    mul = EllipticCurveFp.mul

    def counted(self, k, point):
        calls.append(k)
        return mul(self, k, point)

    monkeypatch.setattr(EllipticCurveFp, "mul", counted)
    curve = EllipticCurveFp(101, 0, 1)
    assert curve.order() == 102 and calls == []
    rng = random.Random(7)
    for d in (3, 2):
        table = curve.division_witnesses(d)
        assert calls == [d] * curve.order()
        calls.clear()
        for _ in range(20):
            single_point_member(
                curve, [rng.choice(curve.points) for _ in range(d)])
        assert curve.division_witnesses(d) is table and calls == []
    with pytest.raises(TypeError):
        table[INFINITY] = INFINITY
    for d in (0, -1):
        with pytest.raises(ValueError):
            curve.division_witnesses(d)
