from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwseries.d4 import (
    _BRIDGE,
    _D4_SYSTEM,
    D4Coefficients,
    d4_analytic,
    d4_build_potential,
    d4_construction_reports,
    d4_elliptic_weyl_reports,
    d4_eta_forms,
    d4_genus_one,
    d4_ode_reports,
    d4_recursion_solve,
    d4_theta_bridge_reports,
)
from gwseries.frobenius import euler_residual, metric_from_potential, wdvv_residual
from gwseries.modular import _sigma_sieve, f_series, halphen_variables
from gwseries.qseries import QSeries, evaluate


# -- the three coefficient series --------------------------------------------------


def test_recursion_seeds_and_first_coefficients():
    s = d4_recursion_solve(8)
    assert s.a.coefficient(1) == 1
    assert s.a.coefficient(2) == 0
    assert s.a.coefficient(3) == 4
    assert s.a.coefficient(5) == 6
    assert s.b.coefficient(0) == Fraction(-1, 24)
    assert s.b.coefficient(4) == 1
    assert s.c.coefficient(0) == 0
    assert s.c.coefficient(2) == 3
    assert s.c.coefficient(4) == 6


def test_recursion_needs_room_to_pivot():
    with pytest.raises(ValueError):
        d4_recursion_solve(1)


def _fraction_recursion(order: int) -> D4Coefficients:
    """Reference: the system as three Fraction convolution sums, with the
    n-th coefficients isolated on the left from the seeds a_1 = 1,
    b_0 = -1/24, c_0 = 0."""
    a = [Fraction(0)] * order
    b = [Fraction(0)] * order
    c = [Fraction(0)] * order
    a[1] = Fraction(1)
    b[0] = Fraction(-1, 24)
    for n in range(2, order):
        a[n] = sum(
            (a[k] * (Fraction(8, 3) * c[n - k] - 24 * b[n - k]) for k in range(1, n)),
            Fraction(0),
        ) / (n - 1)
        s_aa = sum((a[k] * a[n - k] for k in range(1, n)), Fraction(0))
        s_cc = sum((c[k] * c[n - k] for k in range(1, n)), Fraction(0))
        c[n] = (6 * s_aa - Fraction(8, 3) * s_cc) / n
        s_bc = sum((b[k] * c[n - k] for k in range(1, n)), Fraction(0))
        b[n] = (
            -Fraction(2, 3) * s_aa
            - Fraction(16, 3) * (s_bc + b[0] * c[n])
            + Fraction(8, 9) * s_cc
        ) / n
    make = lambda coeffs: QSeries.from_coefficient_map(
        {e: x for e, x in enumerate(coeffs) if x}, order
    )
    return D4Coefficients(make(a), make(b), make(c))


def test_recursion_matches_the_fraction_sums():
    for order in [*range(2, 41), 125]:
        reference = _fraction_recursion(order)
        solved = d4_recursion_solve(order)
        for field in ("a", "b", "c"):
            s, r = getattr(solved, field), getattr(reference, field)
            assert s == r and s.truncation == r.truncation == order, (order, field)


def test_recursion_agrees_with_divisor_sum_forms():
    recursive = d4_recursion_solve(60)
    closed = d4_analytic(60)
    assert recursive.a == closed.a
    assert recursive.b == closed.b
    assert recursive.c == closed.c


def test_three_pieces_sum_to_the_weight_two_form():
    s = d4_analytic(50)
    assert s.a + s.b + s.c == f_series(50)


def test_divisor_sum_description_of_each_piece():
    s, sigma = d4_analytic(40), _sigma_sieve(39)
    for n in range(1, 40):
        assert s.a.coefficient(n) == (sigma[n] if n % 2 else 0)
        assert s.b.coefficient(n) == (sigma[n // 4] if n % 4 == 0 else 0)
    for e, coeff in s.c.known_terms():
        assert e % 2 == 0 and coeff != 0


def test_eta_quotient_forms_reproduce_the_recursion():
    assert d4_eta_forms(40) == d4_recursion_solve(40)


def test_construction_reports_cover_both_routes():
    reports = d4_construction_reports(
        30, d4_analytic(30), d4_recursion_solve(30), d4_eta_forms(30)
    )
    names = [r.name for r in reports]
    assert names == [
        "d4-recursion-a",
        "d4-recursion-b",
        "d4-recursion-c",
        "d4-eta-form-a",
        "d4-eta-form-b",
        "d4-eta-form-c",
    ]
    for report in reports:
        assert report.passed, report.name


# -- differential equations and bridges ----------------------------------------------


def test_ode_certificates_pass():
    reports = d4_ode_reports(40, d4_analytic(40))
    assert [r.name for r in reports] == ["d4-ode-a", "d4-ode-b", "d4-ode-c"]
    for report in reports:
        assert report.passed, report.name


def test_theta_bridges_pass():
    reports = d4_theta_bridge_reports(40, d4_analytic(40), halphen_variables(40))
    assert [r.name for r in reports] == ["d4-bridge-x2", "d4-bridge-x3", "d4-bridge-x4"]
    for report in reports:
        assert report.passed


def _halphen_pulled_back(a: QSeries, b: QSeries, c: QSeries) -> tuple[QSeries, QSeries, QSeries]:
    """Halphen's system X_i' = 2(X_i X_j + X_i X_k - X_j X_k) at the bridge
    point `_BRIDGE`, pulled back through a = (X_3 - X_4)/4,
    c = -3(X_3 + X_4)/8, b = (2c/3 - X_2)/6."""
    x2, x3, x4 = evaluate(_BRIDGE, (a, b, c))
    d2, d3, d4 = ((x * y + x * z - y * z).scale(2) for x, y, z in ((x2, x3, x4), (x3, x4, x2), (x4, x2, x3)))
    da, dc = (d3 - d4).scale(Fraction(1, 4)), (d3 + d4).scale(Fraction(-3, 8))
    return da, (dc.scale(Fraction(2, 3)) - d2).scale(Fraction(1, 6)), dc


@st.composite
def _series_triples(draw):
    """Three power series known through a common q^(T-1), T in 3..40, each
    with integer numerators over its own denominator."""
    truncation = draw(st.integers(3, 40))
    numerators = st.lists(st.integers(-9, 9), min_size=truncation, max_size=truncation)
    return tuple(
        QSeries([Fraction(n, den) for n in draw(numerators)], 0, truncation)
        for den in draw(st.lists(st.integers(1, 12), min_size=3, max_size=3))
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(_series_triples())
# (0, q^2, 0) at T = 3: c' = 6 a^2 - (8/3) c^2 is zero through O(q^6), the pullback through O(q^5)
@example((QSeries.zero(3), QSeries([0, 0, 1], 0, 3), QSeries.zero(3)))
def test_the_d4_system_is_halphens_system_in_the_bridge_coordinates(triple):
    """`_D4_SYSTEM`'s seven coefficients are Halphen's system seen through
    the map that the d4-bridge reports certify, field by field on any series
    through their common truncation T (a zero tail is known to an order that
    depends on how the expression is written); a coefficient off by 1/3
    (8/3 -> 7/3 in a') breaks it."""
    a, _, c = triple
    t = min(s.truncation for s in triple)
    pulled = [s.truncate(t) for s in _halphen_pulled_back(*triple)]
    rhs = [s.truncate(t) for s in evaluate(_D4_SYSTEM, triple)]
    assert [s._fields() for s in rhs] == [s._fields() for s in pulled]
    ac = (a * c).truncate(t)
    assert ac.is_zero() or (rhs[0] - ac.scale(Fraction(1, 3)))._fields() != pulled[0]._fields()


def _weight(polynomial, weights):
    """The one weight of a homogeneous {exponent tuple: c} polynomial, or None."""
    found = {sum(n * w for n, w in zip(e, weights)) for e in polynomial}
    return found.pop() if len(found) == 1 else None


def test_the_d4_system_raises_the_quasimodular_weight_by_two():
    """a, b and c have weight 2, and each component of `_D4_SYSTEM` is
    homogeneous of weight 4; one added monomial of another weight fails."""
    weights = (2, 2, 2)
    assert [_weight(f, weights) for f in _D4_SYSTEM] == [4, 4, 4]
    for f in _D4_SYSTEM:
        for wrong in ((1, 0, 0), (1, 2, 0), (0, 0, 3)):
            assert _weight({**f, wrong: 1}, weights) is None


def test_tampered_coefficients_fail_the_odes():
    s = d4_analytic(30)
    bump = QSeries.monomial(Fraction(1, 7), 3, s.c.truncation)
    tampered = D4Coefficients(s.a, s.b, s.c + bump)
    failed = {r.name: r for r in d4_ode_reports(30, tampered) if not r.passed}
    assert failed["d4-ode-c"].first_failure.exponent == 3


def test_elliptic_weyl_translation():
    reports = d4_elliptic_weyl_reports(40, d4_analytic(40))
    assert [r.name for r in reports] == ["d4-weyl-h0", "d4-weyl-h1", "d4-weyl-h2"]
    for report in reports:
        assert report.passed, report.name
        assert report.order_certified >= 40


# -- the genus-zero potential ---------------------------------------------------------


def test_potential_metric_and_grading():
    potential = d4_build_potential(d4_analytic(12))
    metric = metric_from_potential(potential)
    assert metric.entry("t0", "t") == 1
    for i in range(1, 5):
        assert metric.entry(f"t{i}", f"t{i}") == Fraction(1, 2)
        assert metric.entry("t0", f"t{i}") == 0
    assert metric.entry("t1", "t2") == 0
    assert euler_residual(potential).passed
    assert potential.degrees == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(0),
    )


def test_potential_quantum_support():
    potential = d4_build_potential(d4_analytic(10))
    keys = set(potential.quantum)
    quartics = {tuple(4 if j == i else 0 for j in range(6)) for i in range(1, 5)}
    pairs = {
        tuple(2 if j in (i, k) else 0 for j in range(6))
        for i in range(1, 5)
        for k in range(i + 1, 5)
    }
    assert keys == {(0, 1, 1, 1, 1, 0)} | quartics | pairs
    s = d4_analytic(10)
    assert potential.quantum[(0, 1, 1, 1, 1, 0)] == s.a
    assert potential.quantum[(0, 4, 0, 0, 0, 0)] == s.b.scale(Fraction(1, 4))
    assert potential.quantum[(0, 2, 2, 0, 0, 0)] == s.c.scale(Fraction(1, 6))


def test_potential_satisfies_wdvv():
    assert wdvv_residual(d4_build_potential(d4_analytic(20)), 20).passed


def test_single_wrong_coefficient_breaks_wdvv(wdvv_reference):
    broken = d4_build_potential(d4_analytic(12)).with_mutated_quantum(
        (0, 1, 1, 1, 1, 0), 2, Fraction(1, 720)
    )
    assert not wdvv_residual(broken, 12).passed
    potential = d4_build_potential(d4_analytic(22))
    for key in potential.quantum:
        # the top slot of the packed residual is read; the next one is masked off
        top = potential.with_mutated_quantum(key, 19, Fraction(-1, 720))
        assert wdvv_residual(top, 20).first_failure.exponent == 19
        past = potential.with_mutated_quantum(key, 20, Fraction(-1, 720))
        assert past.quantum[key] != potential.quantum[key]
        assert wdvv_residual(past, 20).passed
        # a residual far above the potential's own coefficients, exactly
        huge = potential.with_mutated_quantum(key, 2, Fraction(10**40, 7))
        failure = wdvv_residual(huge, 20).first_failure
        reference = wdvv_reference(huge, 20)
        reference.assert_first_failure(failure.indices, (failure.exponent, failure.residual))


# -- genus one -------------------------------------------------------------------------


def test_genus_one_certificates():
    result = d4_genus_one(60, d4_analytic(60))
    assert result.report.passed
    assert result.report.name == "d4-genus-one"
    assert result.linear_coefficient == Fraction(-1, 24)
    # -(1/2) log prod(1 - q^(2n)) starts at (1/2) q^2
    assert result.series.coefficient(0) == 0
    assert result.series.coefficient(1) == 0
    assert result.series.coefficient(2) == Fraction(1, 2)


def test_genus_one_derivative_is_doubled_divisor_series():
    result = d4_genus_one(40, d4_analytic(40))
    derivative = result.series.qdq() + QSeries.constant(result.linear_coefficient, 40)
    doubled = f_series(21).substitute_power(2).truncate(40)
    assert derivative == doubled
