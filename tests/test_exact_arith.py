from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gwseries.exact_arith import (
    CyclotomicNumber,
    OrderMismatch,
    cyclotomic_polynomial,
    euler_phi,
    integer_nth_root,
    rational_nth_root,
)
from gwseries.qseries import QSeries

ORDERS = (1, 3, 9, 24, 72)
CASES = 100


def _random_element(rng: random.Random, order: int) -> CyclotomicNumber:
    dim = euler_phi(order)
    nums = tuple(rng.randint(-9, 9) for _ in range(dim))
    return CyclotomicNumber(order, nums, rng.randint(1, 7))


def test_integer_nth_root_exact_and_missing():
    assert integer_nth_root(729, 6) == 3
    assert integer_nth_root(728, 6) is None
    assert integer_nth_root(1, 17) == 1
    assert integer_nth_root(0, 3) == 0


def test_integer_nth_root_of_huge_integers():
    # far beyond float range: 10**400 overflows a float conversion
    assert integer_nth_root(10**400, 2) == 10**200
    assert integer_nth_root(10**400 + 1, 2) is None
    assert integer_nth_root((10**200 + 1) ** 2 - 1, 2) is None
    assert integer_nth_root(7**480, 3) == 7**160
    assert integer_nth_root(7**480 + 1, 3) is None
    assert integer_nth_root(-(7**480), 3) == -(7**160)
    assert QSeries([10**400], 0, 4).nth_root(2) == QSeries([10**200], 0, 4)


def test_rational_nth_root():
    assert rational_nth_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert rational_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_nth_root(Fraction(2, 3), 2) is None


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    # phi(72) = 24: x^24 - x^12 + 1
    poly = cyclotomic_polynomial(72)
    assert len(poly) == 25
    assert poly[0] == 1 and poly[12] == -1 and poly[24] == 1


def test_root_of_unity_basics():
    assert CyclotomicNumber.zeta(1, 0).rational_value() == 1
    assert CyclotomicNumber.zeta(72, 36).rational_value() == -1
    w = CyclotomicNumber.zeta(3, 1)
    assert (1 + w + w * w).is_zero()
    assert CyclotomicNumber.zeta(72, 8) * CyclotomicNumber.zeta(72, 64) == 1


def test_root_of_unity_has_multiplicative_order():
    for order in ORDERS:
        z = CyclotomicNumber.zeta(order)
        assert z**order == 1
        power = CyclotomicNumber.one(order)
        for k in range(1, order):
            power = power * z
            if order > 1 and k < order:
                assert power == CyclotomicNumber.zeta(order, k)
        assert power * z == 1


def test_negative_powers_reduce_mod_order():
    assert CyclotomicNumber.zeta(72, -48) == CyclotomicNumber.zeta(72, 24)
    assert CyclotomicNumber.zeta(9, -1) == CyclotomicNumber.zeta(9, 8)


def test_field_axioms_randomized():
    rng = random.Random(20260818)
    for _ in range(CASES):
        order = rng.choice(ORDERS)
        x = _random_element(rng, order)
        y = _random_element(rng, order)
        z = _random_element(rng, order)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x - x == CyclotomicNumber.zero(order)
        if not y.is_zero():
            assert (x * y) / y == x


def test_inverse_round_trip_randomized():
    rng = random.Random(97)
    done = 0
    while done < CASES:
        order = rng.choice(ORDERS)
        x = _random_element(rng, order)
        if x.is_zero():
            continue
        assert x * x.inverse() == CyclotomicNumber.one(order)
        done += 1
    # orders 2 and 12 are outside ORDERS; a rational element inverts directly
    for order in (2, 12):
        for _ in range(20):
            x = _random_element(rng, order)
            if not x.is_zero():
                assert x * x.inverse() == CyclotomicNumber.one(order)
    rational = CyclotomicNumber.from_rational(72, Fraction(-2, 3))
    assert rational.inverse() == Fraction(-3, 2)
    assert rational * rational.inverse() == CyclotomicNumber.one(72)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(9).inverse()


def test_known_inverse_in_third_roots():
    w = CyclotomicNumber.zeta(3)
    x = 1 + w
    assert x * x.inverse() == 1
    # 1 + w = -w^2, so its inverse is -w
    assert x.inverse() == -(w * w * w * w)


def test_rational_embedding_and_mixed_arithmetic():
    half = CyclotomicNumber.from_rational(24, Fraction(1, 2))
    assert half.is_rational()
    assert half.rational_value() == Fraction(1, 2)
    assert half + Fraction(1, 2) == 1
    assert Fraction(3, 2) - half == 1
    assert half * 4 == 2
    z = CyclotomicNumber.zeta(24)
    assert (z * 0).is_zero()
    assert not (z + 1).is_rational()


def test_embed_into_larger_field():
    w = CyclotomicNumber.zeta(3)
    w72 = w.embed(72)
    assert w72 == CyclotomicNumber.zeta(72, 24)
    assert w72.order == 72
    mixed = w72 + CyclotomicNumber.zeta(72, 1)
    assert not mixed.is_rational()


def test_order_mismatch_raises():
    with pytest.raises(OrderMismatch):
        CyclotomicNumber.zeta(3) + CyclotomicNumber.zeta(9)
    # equal elements of different orders must be embedded before comparing
    with pytest.raises(OrderMismatch):
        CyclotomicNumber.zeta(3) == CyclotomicNumber.zeta(72) ** 24
    assert CyclotomicNumber.zeta(3).embed(72) == CyclotomicNumber.zeta(72) ** 24
    assert CyclotomicNumber.from_rational(3, -1) == CyclotomicNumber.zeta(72, 36)


def test_real_subfield_identity():
    # zeta + 1/zeta is real: for order 9 it satisfies x^3 - 3x + 1 = 0
    z = CyclotomicNumber.zeta(9)
    x = z + z.inverse()
    assert (x**3 - 3 * x + 1).is_zero()


def test_power_arithmetic_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(20):
        order = rng.choice(ORDERS)
        x = _random_element(rng, order)
        e = rng.randint(0, 6)
        expected = CyclotomicNumber.one(order)
        for _ in range(e):
            expected = expected * x
        assert x**e == expected


def test_equality_against_fractions_and_ints():
    one = CyclotomicNumber.one(24)
    assert one == 1
    assert one == Fraction(1)
    assert one != Fraction(1, 2)
    assert CyclotomicNumber.from_rational(24, Fraction(7, 3)) == Fraction(7, 3)


def test_hash_consistency_for_rational_values():
    assert hash(CyclotomicNumber.from_rational(9, Fraction(5, 4))) == hash(Fraction(5, 4))
    table = {CyclotomicNumber.one(24): "unit"}
    assert table[CyclotomicNumber.from_rational(24, 1)] == "unit"
