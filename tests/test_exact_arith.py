"""Exact scalars: the rational root helpers, and Q(zeta_3) as pairs x + y w
of rationals, the constant OmegaSeries, which is all the field arithmetic
the package keeps."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gwseries.exact_arith import integer_nth_root, rational_nth_root
from gwseries.qseries import OmegaSeries, QSeries, ZeroDivisor

CASES = 100


def _number(x, y=0) -> OmegaSeries:
    """x + y w as a constant pair, known through q^0."""
    return OmegaSeries(QSeries.constant(x, 1), QSeries.constant(y, 1))


def _root(n: int, e: int) -> OmegaSeries:
    return OmegaSeries.root_of_unity(n, e, 1)


def _same(a, b) -> bool:
    return (a - b).is_zero()


def _random_number(rng: random.Random) -> OmegaSeries:
    return _number(*(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(2)))


def _random_series(rng: random.Random, truncation: int) -> QSeries:
    valuation = rng.randint(-3, 3)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(truncation - valuation)]
    return QSeries(coeffs, valuation, truncation)


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
    # the pair product reduces by Phi_3 = x^2 + x + 1: w^2 = -1 - w
    w, one = _root(3, 1), _number(1)
    assert _same(w * w, _number(-1, -1))
    assert (w * w + w + one).is_zero()
    assert not _same(w, one)  # w is no root of Phi_1 = x - 1
    # zeta_72^12 = zeta_6 = 1 + w is a root of Phi_6 = x^2 - x + 1
    z6 = _root(72, 12)
    assert _same(z6, _number(1, 1))
    assert (z6 * z6 - z6 + one).is_zero()


def test_root_of_unity_basics():
    assert _same(_root(1, 0), _number(1))
    assert _same(_root(72, 36), _number(-1))
    w = _root(3, 1)
    assert (_number(1) + w + w * w).is_zero()
    assert _same(_root(72, 24) * _root(72, 48), _number(1))


def test_root_of_unity_has_multiplicative_order():
    for n in (1, 2, 3, 6):
        z = _root(n, 1)
        power = _number(1)
        for k in range(1, n):
            power = power * z
            assert _same(power, _root(n, k))
        assert _same(power * z, _number(1))


def test_negative_powers_reduce_mod_order():
    assert _same(_root(72, -48), _root(72, 24))
    assert _same(_root(3, -1), _root(3, 2))
    s = _random_series(random.Random(5), 12)
    assert _same(OmegaSeries.twist(s, -1), OmegaSeries.twist(s, 2))
    assert _same(OmegaSeries.twist(s, -3), OmegaSeries(s, QSeries.zero(12)))


def test_field_axioms_randomized():
    rng = random.Random(20260818)
    for _ in range(CASES):
        x, y, z = (_random_number(rng) for _ in range(3))
        assert _same((x + y) + z, x + (y + z))
        assert _same((x * y) * z, x * (y * z))
        assert _same(x * (y + z), x * y + x * z)
        assert _same(x + y, y + x)
        assert _same(x * y, y * x)
        assert (x - x).is_zero()


def _inverse(x: OmegaSeries) -> OmegaSeries:
    """1/x = conj(x) / N(x): conj(u + v w) = u + v w^2 = (u - v) - v w, and
    N = x conj(x) = u^2 - u v + v^2 is rational."""
    u, v = x.u.coefficient(0), x.v.coefficient(0)
    return _number(u - v, -v) * (1 / (u * u - u * v + v * v))


def test_inverse_round_trip_randomized():
    rng = random.Random(97)
    done = 0
    while done < CASES:
        x = _random_number(rng)
        if x.is_zero():
            continue
        assert _same(x * _inverse(x), _number(1))
        done += 1
    assert _same(_inverse(_number(Fraction(-2, 3))), _number(Fraction(-3, 2)))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        _inverse(_number(0))  # the norm of 0 is 0
    with pytest.raises(ZeroDivisor):
        QSeries.zero(4).inv()


def test_known_inverse_in_third_roots():
    w = _root(3, 1)
    x = _number(1) + w
    assert _same(x * _inverse(x), _number(1))
    # 1 + w = -w^2, so its inverse is -w
    assert _same(_inverse(x), -w)
    assert _same(x * -w, _number(1))


def test_rational_embedding_and_mixed_arithmetic():
    rng = random.Random(24)
    s, r = _random_series(rng, 10), _random_series(rng, 10)
    embedded = OmegaSeries(s, QSeries.zero(10))
    pair = OmegaSeries.twist(r, 1)
    assert _same(embedded + pair, s + pair)
    assert _same(pair - embedded, pair - s)
    assert _same(s - pair, -(pair - s))
    assert _same(embedded * pair, s * pair)
    assert _same(pair * s, s * pair)
    assert _same(pair * Fraction(1, 2) * 2, pair)
    assert (pair * 0).is_zero()
    assert not (pair.v.truncate(9)).is_zero()  # r has a term off the multiples of 3


def test_embed_into_larger_field():
    # Q(zeta_3) = Q(zeta_6) sits in Q(zeta_72) as the powers zeta_72^(12 m)
    assert _same(_root(72, 24), _root(3, 1))
    assert _same(_root(72, 12), _number(1, 1))
    assert _same(_root(6, 1), _root(72, 12))
    assert _same(_root(24, 8), _root(3, 1))


def test_order_mismatch_raises():
    # zeta_9, zeta_24 and zeta_72^9 are not in Q(zeta_3)
    for n, e in ((9, 1), (24, 1), (72, 9), (72, -3)):
        with pytest.raises(ValueError):
            _root(n, e)


def test_real_subfield_identity():
    # the real subfield of Q(zeta_3) is Q: w + 1/w = w + w^2 = -1,
    # and zeta_6 + 1/zeta_6 = 1
    w, z6 = _root(3, 1), _root(6, 1)
    assert _same(w + w * w, _number(-1))
    assert _same(z6 + _inverse(z6), _number(1))


def test_power_arithmetic_matches_repeated_multiplication():
    # the twist commutes with products: s^e twisted is the twist multiplied e times
    rng = random.Random(11)
    for _ in range(20):
        s, k, e = _random_series(rng, 12), rng.randint(-4, 4), rng.randint(1, 4)
        twisted = OmegaSeries.twist(s, k)
        expected = twisted
        for _ in range(e - 1):
            expected = expected * twisted
        assert _same(OmegaSeries.twist(s**e, k), expected)


def test_equality_against_fractions_and_ints():
    one = QSeries.one(3)
    assert _root(72, 72).first_difference(one) is None
    assert _root(72, 36).first_difference(-one) is None
    assert _root(72, 0).first_difference(QSeries.constant(Fraction(1, 2), 3)) == (0, "1/2")
    assert _root(3, 2).first_difference(one) == (0, "-2 + -1*z3^1")
    assert one.first_difference(_root(3, 1)) == (0, "1 + -1*z3^1")
    # the residual's first term may sit in either part
    assert _root(3, 1).first_difference(QSeries.zero(3)) == (0, "1*z3^1")
    assert OmegaSeries.twist(QSeries([1, 1], 1, 4), 1).leading() == (1, "1*z3^1")
