"""Exact scalars: the rational root helpers, and the roots of unity of the
twisted pole rows, which are kept as exponents.  A row's prefactor
zeta_72^e lies in Q(zeta_3) exactly when 12 | e, and is then
zeta_6^m = (-1)^m w^2m for m = e/12 and w = zeta_3, printed x + y*z3^1.
`_root` reads that value back from a report."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import gwseries.e6 as e6
from gwseries.e6 import e6_twisted_pole_reports
from gwseries.exact_arith import integer_nth_root, rational_nth_root
from gwseries.qseries import QSeries, ZeroDivisor


def _root(e: int, pole_coefficient: Fraction | int = 0) -> str | None:
    """pole_coefficient + zeta_72^e as the rows print it, None for 0: the
    residual at q^-1 of a = pole_coefficient q^-1 + O(q^0) against a row with
    prefactor zeta_72^e and the quotient -3 q^-1 + O(q^0)."""
    rows = (("root", 0, 1, 0, e),)  # branch 0, so 3b + p = e
    failure = _first_failure(rows, 0, QSeries([pole_coefficient], -1, 0), QSeries([-3], -1, 0))
    if failure is None:
        return None
    assert failure[0] == -1
    return failure[1]


def _times(first: tuple, second: tuple) -> tuple:
    """The product of x + y w given as (x, y), with w^2 = -1 - w."""
    (a, b), (c, d) = first, second
    return a * c - b * d, a * d + b * c - b * d


def _power(base: tuple, n: int) -> tuple:
    value = (1, 0)
    for _ in range(n):
        value = _times(value, base)
    return value


def _text(x, y) -> str:
    return " + ".join(f"{c}{label}" for c, label in ((x, ""), (y, "*z3^1")) if c) or "0"


def _first_failure(rows: tuple, order: int, a: QSeries, quotient: QSeries) -> tuple[int, str] | None:
    """(exponent, residual) of the one report of `rows`, None for a pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e6, "_TWISTED_POLE_ROWS", rows)
        (report,) = e6_twisted_pole_reports(order, a, quotient)
    return None if report.passed else (report.first_failure.exponent, report.first_failure.residual)


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
    # the omega table reduces by Phi_3 = x^2 + x + 1: w^2 = -1 - w, 1 + w + w^2 = 0
    assert e6._OMEGA_POWERS == ((1, 0), (0, 1), (-1, -1))
    assert [sum(column) for column in zip(*e6._OMEGA_POWERS)] == [0, 0]
    assert _root(48) == "-1 + -1*z3^1"
    # zeta_72^12 = zeta_6 = 1 + w, and zeta_6^2 = w
    assert _root(12) == _text(1, 1)
    assert _root(24) == _text(*_power((1, 1), 2)) == "1*z3^1"


def test_roots_of_unity_basics():
    assert _root(0) == "1"
    assert _root(36) == "-1"
    assert _root(24) == "1*z3^1"
    assert _root(72) == _root(0)


def test_roots_of_unity_have_multiplicative_order():
    # zeta_72^(12 m) runs through the six powers of zeta_6 = 1 + w, period 6
    texts = [_root(12 * m) for m in range(12)]
    assert texts == [_text(*_power((1, 1), m % 6)) for m in range(12)]
    assert len(set(texts)) == 6


def test_negative_powers_reduce_mod_order():
    assert _root(-48) == _root(24)
    assert _root(-12) == _root(60)
    # the twist by w^-1 is the twist by w^2 and w^-4: the q^0 term, one class
    # above the pole, picks up the same w^k; the twist by w differs
    rng = random.Random(5)
    a = QSeries([Fraction(1, 3)] + [Fraction(rng.randint(-9, 9), 7) for _ in range(12)], -1, 12)
    quotient = QSeries([1] + [Fraction(rng.randint(1, 9), 5) for _ in range(12)], -1, 12)
    failures = {k: _first_failure((("twist", 0, k, 0, 0),), 12, a, quotient) for k in (-1, 2, -4, 1)}
    assert failures[-1] == failures[2] == failures[-4] != failures[1]
    assert failures[1][0] == 0


def test_inverse_round_trip_randomized():
    # zeta_72^-e is read as the inverse of zeta_72^e, for e = 12 m far outside [0, 72)
    rng = random.Random(97)
    for _ in range(40):
        m = rng.randint(-60, 60)
        inverse = _power((1, 1), -m % 6)
        assert _times(_power((1, 1), m % 6), inverse) == (1, 0)
        assert _root(-12 * m) == _text(*inverse)


def test_known_inverse_in_third_roots():
    # 1 + w = -w^2, so its inverse is -w: zeta_6 = zeta_72^12 and zeta_6^-1 = zeta_72^-12
    assert _root(12) == _text(1, 1)
    assert _root(-12) == _text(0, -1)
    assert _times((1, 1), (0, -1)) == (1, 0)


def test_embed_into_larger_field():
    # Q(zeta_3) = Q(zeta_6) sits in Q(zeta_72) as the powers zeta_72^(12 m):
    # the constant omega^j of a row is the prefactor zeta_72^(24 j)
    for j in range(3):
        exponent, residual = _first_failure((("constant", j, 0, 0, 0),), 1, QSeries.zero(1), QSeries.zero(1))
        assert (exponent, residual) == (0, _root(24 * j + 36))  # a - omega^j = -omega^j


def test_order_mismatch_fails_at_the_pole():
    # zeta_24, zeta_9 and zeta_72^9 are not in Q(zeta_3): the rows do not
    # reduce them, they fail at the pole and print the power unreduced
    for e in (3, 8, 9, -3):
        assert _root(e) == f"1*z72^{e % 72}"
        assert _root(e, pole_coefficient=Fraction(1, 2)) == f"1/2 + 1*z72^{e % 72}"


def test_equality_against_fractions_and_ints():
    # a residual prints its rational part as a Fraction and its w part as
    # *z3^1, each only when nonzero; a residual of 0 is a pass
    assert _root(36, pole_coefficient=1) is None
    assert _root(36, pole_coefficient=Fraction(3, 2)) == "1/2"
    assert _root(36, pole_coefficient=-1) == "-2"
    assert _root(48, pole_coefficient=1) == "-1*z3^1"
    assert _root(48, pole_coefficient=-1) == "-2 + -1*z3^1"
    assert _root(24, pole_coefficient=1) == "1 + 1*z3^1"


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisor):
        QSeries.zero(4).inv()


def test_power_arithmetic_matches_repeated_multiplication():
    # the twist q -> -q, the even part minus the odd part, commutes with
    # products: s^e twisted is the twist multiplied e times
    rng = random.Random(11)
    for _ in range(20):
        s = QSeries([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(12)], rng.randint(-3, 3))
        e = rng.randint(1, 4)
        twisted = s.dissect(2, 0) - s.dissect(2, 1)
        assert (s**e).dissect(2, 0) - (s**e).dissect(2, 1) == twisted**e
