"""Property tests for the stored form of QSeries, integer numerators over one
denominator, and for its m-dissection, from which the twisted identities
build their series over Q(zeta_3) as pairs x + y w of rational series.

Every result must be canonical (gcd(den, *coeffs) == 1, no zero at either
end) and agree, coefficient by coefficient, with schoolbook arithmetic on
Fraction values, and on pairs (x, y) = x + y w of them, written out below.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gwseries.e6 as e6
from gwseries.qseries import LeadingCoefficientNotPower, QSeries, ValuationNotDivisible

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


# -- strategies ------------------------------------------------------------------------


@st.composite
def rationals(draw, nonzero: bool = False):
    """An int or a Fraction."""
    den = draw(st.integers(1, 12))
    num = draw(st.integers(-9, 9).filter(lambda x: x or not nonzero))
    return num if den == 1 else Fraction(num, den)


@st.composite
def series_with_reference(draw, valuation_low: int = -4):
    """(series, reference); the reference is ({exponent: value}, truncation)
    with the nonzero values exactly as given to the constructor."""
    valuation = draw(st.integers(valuation_low, 3))
    coeffs = draw(st.lists(rationals(), min_size=1, max_size=10))
    if draw(st.booleans()):
        coeffs[0] = 0  # leading zeros must be dropped
    truncation = valuation + len(coeffs) + draw(st.integers(0, 4))
    terms = {valuation + i: c for i, c in enumerate(coeffs) if c}
    return QSeries(coeffs, valuation, truncation), (terms, truncation)


# -- the schoolbook reference ---------------------------------------------------------

OMEGA_POWERS = ((1, 0), (0, 1), (-1, -1))  # w^0, w^1, w^2 = -1 - w


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in sorted(terms.items()) if c and c != (0, 0)}


def _valuation(ref) -> int:
    terms, truncation = ref
    return min(terms, default=truncation)


def _ref_add(a, b, sign: int = 1):
    t = min(a[1], b[1])
    out: dict = {}
    for terms, factor in ((a[0], 1), (b[0], sign)):
        for e, c in terms.items():
            if e < t:
                c = _times(c, factor)
                out[e] = _plus(out[e], c) if e in out else c
    return _nonzero(out), t


def _times(x, y):
    """Product of two numbers, each rational or a pair (x, y) = x + y w."""
    if isinstance(x, tuple) and isinstance(y, tuple):
        (a, b), (c, d) = x, y
        return a * c - b * d, a * d + b * c - b * d  # w^2 = -1 - w
    if isinstance(x, tuple):
        return x[0] * y, x[1] * y
    if isinstance(y, tuple):
        return x * y[0], x * y[1]
    return x * y


def _plus(x, y):
    if isinstance(x, tuple):
        return x[0] + y[0], x[1] + y[1]
    return x + y


def _ref_mul(a, b):
    t = min(a[1] + _valuation(b), b[1] + _valuation(a))
    out: dict = {}
    for ea, ca in a[0].items():
        for eb, cb in b[0].items():
            if ea + eb < t:
                product = _times(ca, cb)
                out[ea + eb] = _plus(out[ea + eb], product) if ea + eb in out else product
    return _nonzero(out), t


def _ref_termwise(a, factor):
    """Each q^e coefficient c replaced by c * factor(e)."""
    return _nonzero({e: _times(c, factor(e)) for e, c in a[0].items()}), a[1]


def _ref_inv(a):
    terms, t = a
    v = _valuation(a)
    cinv = Fraction(1) / terms[v]
    x = [cinv]
    for k in range(1, t - v):
        x.append(-cinv * sum((terms.get(v + i, 0) * x[k - i] for i in range(1, k + 1)), 0))
    return _nonzero({k - v: xk for k, xk in enumerate(x)}), t - 2 * v


def _ref_truncate(a, t: int):
    return {e: c for e, c in a[0].items() if e < t}, t


def _assert_canonical(s: QSeries) -> None:
    assert all(type(x) is int for x in s.coeffs)
    assert s.den > 0 and math.gcd(s.den, *s.coeffs) == 1
    if s.coeffs:
        assert s.coeffs[0] and s.coeffs[-1]
        assert s.valuation + len(s.coeffs) <= s.truncation
    else:
        assert (s.den, s.valuation) == (1, s.truncation)


def _assert_matches(s: QSeries, ref) -> None:
    terms, t = ref
    _assert_canonical(s)
    assert s.truncation == t
    for e in range(min([*terms, t]) - 2, t):
        assert s.coefficient(e) == terms.get(e, 0)
    assert list(s.known_terms()) == sorted(terms.items())


def _assert_pair_matches(x: QSeries, y: QSeries, ref) -> None:
    """x + y w against a reference of pairs."""
    terms, t = ref
    for part, i in ((x, 0), (y, 1)):
        _assert_matches(part, (_nonzero({e: c[i] for e, c in terms.items()}), t))


# -- properties -------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(series_with_reference())
def test_constructor_stores_the_canonical_form(case):
    s, ref = case
    _assert_matches(s, ref)


@PROPERTY_SETTINGS
@given(series_with_reference(), series_with_reference())
def test_sums_and_products_match_schoolbook(first, second):
    (a, ra), (b, rb) = first, second
    _assert_matches(a + b, _ref_add(ra, rb))
    _assert_matches(a - b, _ref_add(ra, rb, -1))
    _assert_matches(a * b, _ref_mul(ra, rb))


@PROPERTY_SETTINGS
@given(st.data())
def test_scale_qdq_twist_and_truncate_match_schoolbook(data):
    """The twist q -> -q is the even part minus the odd part."""
    s, ref = data.draw(series_with_reference())
    k = data.draw(rationals())
    cut = data.draw(st.integers(ref[1] - 6, ref[1]))
    _assert_matches(s.scale(k), _ref_termwise(ref, lambda e: k))
    _assert_matches(s.qdq(), _ref_termwise(ref, lambda e: e))
    _assert_matches(s.dissect(2, 0) - s.dissect(2, 1), _ref_termwise(ref, lambda e: -1 if e % 2 else 1))
    _assert_matches(s.truncate(cut), _ref_truncate(ref, cut))


@PROPERTY_SETTINGS
@given(series_with_reference(valuation_low=-7), st.integers(1, 5), st.integers(-7, 7))
def test_dissection_parts_sum_to_the_series(case, m, r):
    """s.dissect(m, r) keeps the terms with exponent r mod m, and the m
    parts add up to s field by field."""
    s, ref = case
    _assert_matches(s.dissect(m, r), ({e: c for e, c in ref[0].items() if (e - r) % m == 0}, ref[1]))
    total = QSeries.zero(s.truncation)
    for part in (s.dissect(m, c) for c in range(m)):
        total += part
    assert total._fields() == s._fields()


@PROPERTY_SETTINGS
@given(series_with_reference())
def test_inverse_matches_schoolbook(case):
    s, ref = case
    assume(not s.is_zero())
    _assert_matches(s.inv(), _ref_inv(ref))


@st.composite
def sparse_powers(draw):
    """(s, r, root): s = root^d q^v (1 + a few terms) with d | v, so that s^r
    exists over Q for r = p/d; r is never a nonnegative integer."""
    r = draw(st.fractions(-6, 6, max_denominator=5).filter(lambda r: r < 0 or r.denominator > 1))
    d = r.denominator
    root = Fraction(draw(rationals(nonzero=True)))
    valuation = d * draw(st.integers(-2, 2))
    length = draw(st.integers(1, 16))
    terms = draw(st.dictionaries(st.integers(1, length + 2), rationals(nonzero=True), max_size=4))
    unit = [1] + [terms.get(k, 0) for k in range(1, length)]
    return QSeries(unit, valuation, valuation + length).scale(root**d), r, root


@PROPERTY_SETTINGS
@given(sparse_powers())
def test_rational_powers_are_exact_roots_of_integer_powers(case):
    """s^(p/d) to the d equals s^p field by field, on the positive branch
    for even d, with the relative precision kept: truncation T - v + v r."""
    s, r, root = case
    v, p, d = s.valuation, r.numerator, r.denominator
    y = s.pow_rational(r)
    _assert_canonical(y)
    assert y.truncation == s.truncation - v + v * r
    assert y.leading() == (v * r, (abs(root) if d % 2 == 0 else root) ** p)
    assert (y**d)._fields() == (s**p)._fields()
    assert (s.inv() * s)._fields() == QSeries.one(s.truncation - v)._fields()
    if d % 2 == 0:
        with pytest.raises(LeadingCoefficientNotPower):
            (-s).pow_rational(r)
    if d > 1:
        with pytest.raises(ValuationNotDivisible):
            s.shift(1).pow_rational(r)


@PROPERTY_SETTINGS
@given(st.integers(-200, 200))
def test_two_cyclotomic_orders_do_not_mix(e):
    """zeta_72^e enters Q(zeta_3) exactly when 12 | e, as the power
    zeta_6^(e/12) of zeta_6 = 1 + w; any other e fails a twisted row at the
    pole, printed unreduced.  Read from the residual -(1/3) zeta_72^e of a
    row with that prefactor against a = 0 and the quotient q^-1."""
    rows = (("root", 0, 1, 0, e),)  # branch 0, so 3b + p = e
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e6, "_TWISTED_POLE_ROWS", rows)
        (report,) = e6.e6_twisted_pole_reports(0, QSeries.zero(0), QSeries([1], -1, 0))
    assert report.first_failure.exponent == -1
    if e % 12:
        assert report.first_failure.residual == f"-1/3*z72^{e % 72}"
        return
    expected = (Fraction(-1, 3), 0)
    for _ in range(e // 12 % 6):
        expected = _times(expected, (1, 1))
    assert report.first_failure.residual == " + ".join(f"{c}{b}" for c, b in zip(expected, ("", "*z3^1")) if c)


@PROPERTY_SETTINGS
@given(series_with_reference(valuation_low=-7), st.integers(-7, 7))
def test_dissection_twist_matches_schoolbook(case, k):
    """s(w^k q) = sum_r w^(kr) A_r for the 3-dissection A_r = s.dissect(3, r):
    the q^e coefficient times w^(ke)."""
    s, ref = case
    x, y = QSeries.zero(s.truncation), QSeries.zero(s.truncation)
    for r in range(3):
        part, (cx, cy) = s.dissect(3, r), OMEGA_POWERS[k * r % 3]
        x, y = x + part.scale(cx), y + part.scale(cy)
    _assert_pair_matches(x, y, _ref_termwise(ref, lambda e: OMEGA_POWERS[k * e % 3]))
