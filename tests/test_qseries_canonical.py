"""Property tests for the stored form of QSeries: integer numerators over one
denominator, phi(N) power-basis coordinates per exponent.

Every result must be canonical (gcd(den, *coeffs) == 1, no zero block at
either end) and agree, coefficient by coefficient, with schoolbook
arithmetic on Fraction and CyclotomicNumber values written out below.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gwseries.exact_arith import CyclotomicNumber, OrderMismatch, euler_phi
from gwseries.qseries import QSeries

CYCLOTOMIC_ORDERS = (3, 12, 72)
FIELD_ORDERS = st.sampled_from((1, *CYCLOTOMIC_ORDERS))
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


# -- strategies ------------------------------------------------------------------------


@st.composite
def field_elements(draw, order: int, nonzero: bool = False):
    """A rational (int or Fraction) or, for order > 1, a CyclotomicNumber."""
    den = draw(st.integers(1, 12))
    if order == 1 or draw(st.integers(0, 3)) == 0:
        num = draw(st.integers(-9, 9).filter(lambda x: x or not nonzero))
        return num if den == 1 else Fraction(num, den)
    width = euler_phi(order)
    nums = draw(st.lists(st.integers(-4, 4), min_size=width, max_size=width))
    if nonzero and not any(nums):
        nums[0] = 1
    return CyclotomicNumber(order, tuple(nums), den)


@st.composite
def series_with_reference(draw, order: int):
    """(series, reference); the reference is ({exponent: value}, truncation)
    with the nonzero values exactly as given to the constructor.  Over
    Q(zeta_N) the first coefficient is a CyclotomicNumber, so the series has
    order N even when all its values happen to be rational or zero."""
    valuation = draw(st.integers(-4, 3))
    coeffs = draw(st.lists(field_elements(order), min_size=1, max_size=10))
    if order > 1 and not isinstance(coeffs[0], CyclotomicNumber):
        coeffs[0] = CyclotomicNumber.from_rational(order, coeffs[0])
    if draw(st.booleans()):
        coeffs[0] = 0 * coeffs[0]  # leading zeros must be dropped
    truncation = valuation + len(coeffs) + draw(st.integers(0, 4))
    terms = {valuation + i: c for i, c in enumerate(coeffs) if c}
    return QSeries(coeffs, valuation, truncation), (terms, truncation)


@st.composite
def operand_pairs(draw):
    """Two series over Q(zeta_N), each either rational or of order N."""
    order = draw(FIELD_ORDERS)
    a = draw(series_with_reference(draw(st.sampled_from((1, order)))))
    b = draw(series_with_reference(draw(st.sampled_from((1, order)))))
    return order, a, b


# -- the schoolbook reference ---------------------------------------------------------


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in sorted(terms.items()) if c}


def _valuation(ref) -> int:
    terms, truncation = ref
    return min(terms, default=truncation)


def _ref_add(a, b, sign: int = 1):
    t = min(a[1], b[1])
    out: dict = {}
    for terms, factor in ((a[0], 1), (b[0], sign)):
        for e, c in terms.items():
            if e < t:
                out[e] = out.get(e, 0) + factor * c
    return _nonzero(out), t


def _ref_mul(a, b):
    t = min(a[1] + _valuation(b), b[1] + _valuation(a))
    out: dict = {}
    for ea, ca in a[0].items():
        for eb, cb in b[0].items():
            if ea + eb < t:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return _nonzero(out), t


def _ref_termwise(a, factor):
    """Each q^e coefficient c replaced by c * factor(e)."""
    return _nonzero({e: c * factor(e) for e, c in a[0].items()}), a[1]


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
    width = euler_phi(s.order)
    assert all(type(x) is int for x in s.coeffs)
    assert s.den > 0 and math.gcd(s.den, *s.coeffs) == 1
    assert len(s.coeffs) % width == 0
    if s.coeffs:
        assert any(s.coeffs[:width]) and any(s.coeffs[-width:])
        assert s.valuation + len(s.coeffs) // width <= s.truncation
    else:
        assert (s.den, s.valuation) == (1, s.truncation)


def _assert_matches(s: QSeries, ref) -> None:
    terms, t = ref
    _assert_canonical(s)
    assert s.truncation == t
    for e in range(min([*terms, t]) - 2, t):
        assert s.coefficient(e) == terms.get(e, 0)
    assert list(s.known_terms()) == sorted(terms.items())


# -- properties -------------------------------------------------------------------------


@PROPERTY_SETTINGS
@given(st.data())
def test_constructor_stores_the_canonical_form(data):
    order = data.draw(FIELD_ORDERS)
    s, ref = data.draw(series_with_reference(order))
    assert s.order == order
    _assert_matches(s, ref)


@PROPERTY_SETTINGS
@given(operand_pairs())
def test_sums_and_products_match_schoolbook(pair):
    _, (a, ra), (b, rb) = pair
    _assert_matches(a + b, _ref_add(ra, rb))
    _assert_matches(a - b, _ref_add(ra, rb, -1))
    _assert_matches(a * b, _ref_mul(ra, rb))


@PROPERTY_SETTINGS
@given(st.data())
def test_scale_qdq_twist_and_truncate_match_schoolbook(data):
    order = data.draw(FIELD_ORDERS)
    s, ref = data.draw(series_with_reference(order))
    k = data.draw(field_elements(order))
    c = data.draw(field_elements(order, nonzero=True))
    cut = data.draw(st.integers(ref[1] - 6, ref[1]))
    _assert_matches(s.scale(k), _ref_termwise(ref, lambda e: k))
    _assert_matches(s.qdq(), _ref_termwise(ref, lambda e: e))
    base = c if isinstance(c, CyclotomicNumber) else Fraction(c)
    _assert_matches(s.twist(c), _ref_termwise(ref, lambda e: base**e))
    _assert_matches(s.truncate(cut), _ref_truncate(ref, cut))


@PROPERTY_SETTINGS
@given(st.data())
def test_inverse_matches_schoolbook(data):
    order = data.draw(FIELD_ORDERS)
    s, ref = data.draw(series_with_reference(order))
    assume(not s.is_zero())
    _assert_matches(s.inv(), _ref_inv(ref))


@PROPERTY_SETTINGS
@given(st.data())
def test_two_cyclotomic_orders_do_not_mix(data):
    first, second = data.draw(st.permutations(CYCLOTOMIC_ORDERS))[:2]
    a, _ = data.draw(series_with_reference(first))
    b, _ = data.draw(series_with_reference(second))
    with pytest.raises(OrderMismatch):
        a + b
    with pytest.raises(OrderMismatch):
        a * b
