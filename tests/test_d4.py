from __future__ import annotations

from fractions import Fraction

import pytest

from gwseries.d4 import (
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
from gwseries.modular import f_series, halphen_variables, sigma
from gwseries.qseries import QSeries


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
    s = d4_analytic(40)
    for n in range(1, 40):
        assert s.a.coefficient(n) == (sigma(n) if n % 2 else 0)
        assert s.b.coefficient(n) == (sigma(n // 4) if n % 4 == 0 else 0)
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
    assert result.passed
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
