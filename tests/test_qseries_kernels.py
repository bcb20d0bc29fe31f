"""Property tests for the series kernels against references kept here.

`_power` runs Miller's recurrence in Q = q^g, g the gcd of the offsets of
the nonzero coefficients, and scatters the result to every g-th slot; the
reference runs the recurrence densely, through every exponent, over
Fraction values.  `series_match` is checked against the first difference of
two Fraction coefficient maps; sums are checked against schoolbook sums in
test_qseries_canonical.py.  A truncation or scaling that changes nothing
returns the series itself.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gwseries.qseries import QSeries
from gwseries.reporting import series_match

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# the exponents of inv, nth_root(2) and pow_rational(+-1/3), pow_rational(-3)
EXPONENTS = tuple(map(Fraction, ("-1", "1/2", "1/3", "-1/3", "-3")))


def _raise(s: QSeries, r: Fraction) -> QSeries:
    if r == -1:
        return s.inv()
    if r == Fraction(1, 2):
        return s.nth_root(2)
    return s.pow_rational(r)


def _dense_power(terms: dict, valuation: int, truncation: int, r: Fraction, root: Fraction) -> QSeries:
    """s^r for s = c q^v (1 + u_1 q + ...), c = root^6 > 0, by Miller's
    recurrence n y_n = sum_(1 <= k <= n) ((r + 1) k - n) u_k y_(n-k) at every
    exponent n, zero coefficients included."""
    c, rel = terms[valuation], truncation - valuation
    u = [Fraction(terms.get(valuation + n, 0)) / c for n in range(rel)]
    y = [Fraction(1)]
    for n in range(1, rel):
        y.append(sum(((r + 1) * k - n) * u[k] * y[n - k] for k in range(1, n + 1)) / n)
    scale = (abs(root) ** (6 // r.denominator)) ** r.numerator  # the positive root of c, to the p
    shift = int(valuation * r)
    return QSeries([scale * x for x in y], shift, rel + shift)


@st.composite
def class_powers(draw):
    """(terms, valuation, truncation, r, root, g): root^6 q^v (1 + sum u_k q^(g k)),
    its valuation a multiple of r's denominator, of either sign, and its
    number of known coefficients often not a multiple of g."""
    g = draw(st.sampled_from((1, 2, 3, 9)))
    r = draw(st.sampled_from(EXPONENTS))
    valuation = r.denominator * draw(st.integers(-3, 3))
    rel = g * draw(st.integers(0, 5)) + draw(st.integers(1, g))
    root = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
    units = draw(st.lists(st.fractions(-4, 4, max_denominator=5), min_size=rel, max_size=rel))
    terms = {valuation: root**6}
    terms.update({valuation + k: root**6 * x for k, x in enumerate(units) if k and k % g == 0 and x})
    return terms, valuation, valuation + rel, r, root, g


def _series(terms: dict, truncation: int) -> QSeries:
    return QSeries.from_coefficient_map(terms, truncation)


@PROPERTY_SETTINGS
@given(class_powers())
def test_power_on_one_residue_class_matches_the_dense_recurrence(case):
    terms, valuation, truncation, r, root, g = case
    result = _raise(_series(terms, truncation), r)
    assert result._fields() == _dense_power(terms, valuation, truncation, r, root)._fields()
    # the power lives on the class of its valuation, like its argument
    assert all((e - result.valuation) % g == 0 for e, _ in result.known_terms())


@PROPERTY_SETTINGS
@given(class_powers(), st.data())
def test_a_coefficient_off_the_class_gives_the_dense_answer(case, data):
    """One coefficient moved off the residue class lowers g, which is read
    from the data (to 1 when the offset is prime to g): the answer is the
    dense one, not the class answer."""
    terms, valuation, truncation, r, root, g = case
    if g == 1 or truncation - valuation < 2:
        return
    offset = data.draw(st.integers(1, truncation - valuation - 1).filter(lambda k: k % g))
    moved = {**terms, valuation + offset: data.draw(st.fractions(-4, 4, max_denominator=5).filter(bool))}
    result = _raise(_series(moved, truncation), r)
    assert result._fields() == _dense_power(moved, valuation, truncation, r, root)._fields()
    assert result._fields() != _raise(_series(terms, truncation), r)._fields()


@st.composite
def coefficient_maps(draw, low: int = -5):
    """({exponent: Fraction}, truncation) with denominators up to 9, known
    from its lowest exponent on; the map may be empty."""
    valuation = draw(st.integers(low, low + 9))
    truncation = valuation + draw(st.integers(1, 12))
    exponents = st.integers(valuation, truncation - 1)
    terms = draw(st.dictionaries(exponents, st.fractions(-9, 9, max_denominator=9).filter(bool), max_size=8))
    return terms, truncation


def _first_difference(a: dict, b: dict, order: int):
    return next(((e, a.get(e, 0) - b.get(e, 0)) for e in sorted(a.keys() | b.keys())
                 if e < order and a.get(e, 0) != b.get(e, 0)), None)


@PROPERTY_SETTINGS
@given(coefficient_maps(), st.data())
def test_series_match_reports_the_first_difference(case, data):
    """Two sides that agree below the order pass whatever their tails,
    truncations and denominators; otherwise the report names the first
    differing exponent and its exact residual."""
    lhs, tl = case
    order = data.draw(st.integers(min([*lhs, tl]), tl))
    if data.draw(st.booleans()):  # the same series below the order, its own tail beyond
        tr = order + data.draw(st.integers(0, 4))
        tail = data.draw(st.dictionaries(st.integers(order, tr + 3), st.fractions(-9, 9, max_denominator=7)))
        rhs = {**{e: c for e, c in lhs.items() if e < order}, **{e: c for e, c in tail.items() if e < tr and c}}
    else:
        rhs, tr = data.draw(coefficient_maps(low=order - 6))
        tr = max(tr, order)
    report = series_match("m", _series(lhs, tl), _series(rhs, tr), order, (7,))
    difference = _first_difference(lhs, rhs, order)
    assert report.order_certified == order
    if difference is None:
        assert report.passed
    else:
        failure = report.first_failure
        assert (failure.indices, failure.exponent, failure.residual) == ((7,), difference[0], str(difference[1]))


def test_no_op_truncate_and_scale_return_the_series_itself():
    """A series is immutable, so truncating it at its own truncation and
    scaling it by 1 return it unchanged; any other truncation or scalar
    makes a new series."""
    s = QSeries([Fraction(1, 3), 0, 5], -1, 4)
    assert s.truncate(4) is s
    assert s.scale(1) is s and s.scale(Fraction(1)) is s
    for truncation, fields in ((3, (3, -1, (1, 0, 15), 3)), (0, (3, -1, (1,), 0))):
        cut = s.truncate(truncation)
        assert cut is not s and cut._fields() == fields
    assert s.scale(-1) is not s and s.scale(-1)._fields() == (3, -1, (-1, 0, -15), 4)
