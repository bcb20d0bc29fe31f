from __future__ import annotations

from fractions import Fraction

import pytest

import gwseries.e6 as e6
from gwseries import frobenius, modular, qseries
from gwseries.e6 import (
    _E6_QUANTUM_ROWS,
    _E6_SYSTEM,
    E6Coefficients,
    _gw_dual_route,
    _schwarzian_combination,
    e6_build_fi,
    e6_build_potential,
    e6_coefficient_reports,
    e6_genus_one,
    e6_gw_table,
    e6_h_analytic,
    e6_identity_suite,
    e6_schwarzian_residual_report,
    e6_schwarzian_solve,
    e6_suites,
    e6_twisted_pole_reports,
)
from gwseries.exact_arith import int_convolve
from gwseries.frobenius import euler_residual, metric_from_potential, wdvv_residual
from gwseries.modular import eta_expand, f_series
from gwseries.qseries import QSeries, evaluate

DEGREE_ONE_COUNTS = [1, 1, 2, 0, 2, 1, 2, 0, 1, 2, 2]


# -- the pole series ---------------------------------------------------------------


def test_solver_first_coefficients():
    a = e6_schwarzian_solve(12)
    assert a.coefficient(-1) == Fraction(1, 3)
    for n in (0, 1, 3, 4, 6, 7):
        assert a.coefficient(n) == 0
    assert a.coefficient(2) == Fraction(5, 3)
    assert a.coefficient(5) == Fraction(-7, 3)
    assert a.coefficient(8) == 1


def test_solver_support_is_two_mod_three():
    for e, coeff in e6_schwarzian_solve(40).known_terms():
        assert e % 3 == 2
        assert coeff != 0


def test_solver_rejects_negative_order():
    with pytest.raises(ValueError):
        e6_schwarzian_solve(-1)


def _schwarzian_step_solve(order: int) -> QSeries:
    """Reference: the pole series one coefficient per step, straight from the
    third-order equation.  With a_-1..a_(n-2) known and a_(n-1) withheld, the
    q^(n-8) coefficient of the Schwarzian combination is linear in a_(n-1)
    with slope -n^3 a_-1^7; the q^-8 coefficient carries no unknown."""
    coeffs = {-1: Fraction(1, 3)}
    assert _schwarzian_combination(QSeries.from_coefficient_map(coeffs, 0)).coefficient(-8) == 0
    for n in range(1, order + 1):
        s = _schwarzian_combination(QSeries.from_coefficient_map(coeffs, n)).coefficient(n - 8)
        if s:
            coeffs[n - 1] = s * Fraction(3) ** 7 / n**3
    return QSeries.from_coefficient_map(coeffs, order)


def test_solver_matches_the_schwarzian_step_loop():
    for order in [*range(41), 122]:
        reference = _schwarzian_step_solve(order)
        solved = e6_schwarzian_solve(order)
        assert solved == reference, order
        assert solved.truncation == reference.truncation == order


def test_first_order_system_holds_on_the_eta_side_series():
    f = e6_build_fi(60).f[:3]
    for name, series, rhs in zip(("f0", "f1", "f2"), f, evaluate(_E6_SYSTEM, f)):
        residual = series.qdq() - rhs
        assert residual.is_zero() and residual.truncation == 60, name


def _weight(polynomial, weights):
    """The one weight of a homogeneous {exponent tuple: c} polynomial, or None."""
    found = {sum(n * w for n, w in zip(e, weights)) for e in polynomial}
    return found.pop() if len(found) == 1 else None


def test_rows_and_system_are_graded_by_the_quasimodular_weight():
    """f_0 and f_1 have weight 1 and f_2 weight 2 (the quasi-modular weight,
    Milanov-Ruan, arXiv:1106.2321).  Row i's polynomial is homogeneous of
    weight 1 + k/2, k the degree of its representative monomial in t4, t5
    and t6, and each component of `_E6_SYSTEM` has weight 2 more than the
    generator it differentiates.  One added monomial of another weight, here
    the first monomial times f_1, fails."""
    weights = (1, 1, 2)
    polynomials = [f for f, _ in _E6_QUANTUM_ROWS] + list(_E6_SYSTEM)
    expected = [1 + Fraction(sum(rep[4:7]), 2) for _, rep in _E6_QUANTUM_ROWS] + [w + 2 for w in weights]
    assert [_weight(f, weights) for f in polynomials] == expected
    for f in polynomials:
        i, j, k = next(iter(f))
        assert _weight({**f, (i, j + 1, k): 1}, weights) is None


def test_closed_form_is_shifted_eta_cube():
    order = 40
    closed = e6_h_analytic(order)
    quotient = eta_expand("eta(1)^3 * eta(9)^-3", order + 1)
    rebuilt = QSeries.constant(Fraction(1), order) + quotient.scale(Fraction(1, 3))
    assert closed == rebuilt
    assert closed == e6_schwarzian_solve(order)


def test_defining_equation_residual_vanishes():
    report = e6_schwarzian_residual_report(40, e6_h_analytic(48))
    assert report.passed
    assert report.name == "e6-schwarzian-equation"
    assert report.order_certified == 40


# -- the fourteen coefficient series --------------------------------------------------


def test_build_fi_passes_its_own_cross_checks():
    coeffs = e6_build_fi(32)
    for report in e6_coefficient_reports(24, coeffs, e6_schwarzian_solve(24)):
        assert report.passed, report.name
    coeffs = coeffs.truncate(24)
    assert len(coeffs.f) == 14
    assert {s.truncation for s in (coeffs.a, *coeffs.f)} == {24}
    f0 = coeffs.f[0]
    assert [f0.coefficient(3 * k + 1) for k in range(5)] == [1, 1, 2, 0, 2]
    assert coeffs.f[1].coefficient(0) == Fraction(1, 3)


def test_coefficient_routes_reject_tampering():
    coeffs = e6_build_fi(28)
    f = list(coeffs.f)
    f[2] = f[2] + QSeries.monomial(Fraction(1, 5), 3, f[2].truncation)
    tampered = E6Coefficients(coeffs.a, tuple(f))
    reports = {
        r.name: r for r in e6_coefficient_reports(20, tampered, e6_schwarzian_solve(20))
    }
    assert not reports["e6-f2-derivative-route"].passed
    assert reports["e6-f3-derivative-route"].passed


def test_first_order_system_reports_fail_where_f2_is_raised(monkeypatch):
    built = e6.e6_build_fi

    def perturbed(order):
        coeffs = built(order)
        f2 = coeffs.f[2] + QSeries.monomial(Fraction(1, 7), 10, coeffs.f[2].truncation)
        return coeffs._replace(f=(*coeffs.f[:2], f2, *coeffs.f[3:]))

    monkeypatch.setattr(e6, "e6_build_fi", perturbed)
    reports = dict(e6_suites(30))["e6-coefficients"]
    failures = {
        r.name: (r.first_failure.exponent, r.first_failure.residual)
        for r in reports
        if r.name.startswith("e6-ode-")
    }
    # f_0' = 9 f_0 (f_1^2 - f_2) meets the bump one order up, through f_0 = q + ...
    assert failures == {"e6-ode-f0": (11, "9/7"), "e6-ode-f1": (10, "3/7"), "e6-ode-f2": (10, "10/7")}


def test_derived_series_are_built_once(monkeypatch):
    """1 - a^3 is inverted once per report function, cubed for the
    j-relation and the sextic, and eta(9)^-3 is expanded once per run, for
    the closed form a = 1 + (1/3) eta(1)^3 / eta(9)^3: the twisted rows take
    that quotient and invert nothing.  Square roots and other rational
    powers call no inverse either: they are one recurrence each."""
    order = 60
    coeffs = e6_build_fi(order + 8)
    solved = e6_schwarzian_solve(order + 2)
    a, f0, quotient = coeffs.a.truncate(order + 2), coeffs.f[0], (coeffs.a - 1).scale(3)
    modular._eta_logderiv_unit.cache_clear()
    count = 0
    inv = QSeries.inv

    def counted(self):
        nonlocal count
        count += 1
        return inv(self)

    monkeypatch.setattr(QSeries, "inv", counted)

    def inversions(run):
        nonlocal count
        count = 0
        run()
        return count

    assert inversions(lambda: e6_suites(order)) == 9
    assert inversions(lambda: e6_identity_suite(order, a, f0, quotient)) == 3
    assert inversions(lambda: e6_twisted_pole_reports(order, a, quotient)) == 0
    assert inversions(lambda: e6_coefficient_reports(order, coeffs, solved)) == 2


def _counted_work(monkeypatch) -> dict[str, int]:
    """Counts, from here on, the integer convolutions, the Miller recurrences
    (`QSeries._power`) and the terms of each WDVV engine built."""
    counts = {"int_convolve": 0, "_power": 0, "engine_terms": []}
    power = QSeries._power

    def convolve(*args):
        counts["int_convolve"] += 1
        return int_convolve(*args)

    def counted_power(self, r):
        counts["_power"] += 1
        return power(self, r)

    class CountedEngine(frobenius._WdvvEngine):
        def __init__(self, *args):
            super().__init__(*args)
            counts["engine_terms"].append(sum(map(len, self._terms.values())))

    monkeypatch.setattr(qseries, "int_convolve", convolve)
    monkeypatch.setattr(QSeries, "_power", counted_power)
    monkeypatch.setattr(frobenius, "_WdvvEngine", CountedEngine)
    return counts


def test_build_fi_multiplies_f1_squared_once(monkeypatch):
    # f_1^2 goes into the generator f_2 and into the rows: f_5 holds it, and f_9
    # and f_13 are built on it; `evaluate` reads it from the table it is handed.
    # Each eta quotient's unit starts from its first factor, not from 1 times it.
    counts = _counted_work(monkeypatch)
    e6_build_fi(68)
    assert (counts["int_convolve"], counts["_power"]) == (20, 3)


@pytest.mark.parametrize("raw_f11_block, terms", [(False, 446), (True, 434)])
def test_verify_e6_work_counters(monkeypatch, raw_f11_block, terms):
    """The deterministic work of one `verify e6 --order 60`: series products,
    Miller recurrences and the WDVV engine's derivative terms.  A change that
    adds series work fails here, where a wall time would only be noisy."""
    modular._eta_logderiv_unit.cache_clear()
    counts = _counted_work(monkeypatch)
    e6_suites(60, raw_f11_block=raw_f11_block)
    assert (counts["int_convolve"], counts["_power"], counts["engine_terms"]) == (148, 14, [terms])


# -- modular identities ----------------------------------------------------------------


def test_identity_suite_names_and_verdicts():
    f0 = eta_expand("eta(9)^3 * eta(3)^-1", 30)
    quotient = eta_expand("eta(1)^3 * eta(9)^-3", 31)
    reports = e6_identity_suite(30, e6_h_analytic(32), f0, quotient)
    assert [r.name for r in reports] == [
        "e6-j-relation",
        "e6-cube-unit",
        "e6-cusp-form-sextic",
        "e6-slope-eta",
        "cusp-form-weight12",
        "eta-product-rotation",
        "e6-pole-twist-square",
        "e6-pole-twist-linear",
    ]
    for report in reports:
        assert report.passed, report.name
        assert report.order_certified == 30


def test_twisted_pole_expressions_run_in_the_cyclotomic_field():
    a = e6_h_analytic(15)
    for report in e6_twisted_pole_reports(15, a, (a - 1).scale(3)):
        assert report.passed
        assert report.order_certified >= 15


def test_twisted_pole_reports_fail_where_the_pole_series_is_raised():
    a = e6_h_analytic(20)
    quotient = (a - 1).scale(3)
    a = a + QSeries.monomial(Fraction(1, 7), 10, a.truncation)
    reports = e6_twisted_pole_reports(20, a, quotient)
    assert [r.name for r in reports] == ["e6-pole-twist-square", "e6-pole-twist-linear"]
    for report, index in zip(reports, (-48, -24)):
        assert not report.passed
        assert report.first_failure.indices == (index,)
        assert report.first_failure.exponent == 10
        assert report.first_failure.residual == "1/7"


@pytest.mark.parametrize("exponent", [-1, 0, 1, 2, 10, 29])
def test_twisted_pole_reports_have_teeth(monkeypatch, exponent):
    """(1/7) q^e added to the pole series that `e6_suites` hands the identity
    suite: both twisted reports fail at q^e, whatever the class of e mod 3."""
    order, suite = 30, e6.e6_identity_suite
    bump = QSeries.monomial(Fraction(1, 7), exponent, order + 2)
    monkeypatch.setattr(
        e6, "e6_identity_suite", lambda order, a, f0, quotient: suite(order, a + bump, f0, quotient)
    )
    reports = {r.name: r for _, batch in e6.e6_suites(order) for r in batch}
    for name in ("e6-pole-twist-square", "e6-pole-twist-linear"):
        failure = reports[name].first_failure
        assert (failure.exponent, failure.residual) == (exponent, "1/7"), name
    assert reports["eta-product-rotation"].passed


# -- degree-one counts -----------------------------------------------------------------


def test_gw_table_values_and_certificate():
    table, report = e6_gw_table(10)
    assert report.passed
    assert report.name == "e6-gw-dual-route"
    assert [k for k, _ in table] == list(range(11))
    assert [c for _, c in table] == DEGREE_ONE_COUNTS


@pytest.mark.parametrize("exponent", [9, 11])
def test_gw_dual_route_rejects_f0_off_its_support(monkeypatch, exponent):
    """Both routes agree on a stray term at an exponent not 1 mod 3; the
    support check alone catches it."""
    order = 20
    stray = QSeries.monomial(Fraction(1, 7), exponent, order)
    sqrt_route = e6._sqrt_route_f0
    monkeypatch.setattr(e6, "_sqrt_route_f0", lambda slope: sqrt_route(slope) + stray)
    f0 = eta_expand("eta(9)^3 * eta(3)^-1", order) + stray
    report = _gw_dual_route(order, e6_schwarzian_solve(order + 2), f0)
    assert report.name == "e6-gw-dual-route"
    assert not report.passed
    failure = report.first_failure
    assert (failure.exponent, failure.indices, failure.residual) == (exponent, (exponent,), "1/7")


def test_gw_table_of_zero_degree():
    table, report = e6_gw_table(0)
    assert report.passed
    assert table == [(0, Fraction(1))]


# -- the genus-zero potential ------------------------------------------------------------


def test_potential_metric_and_grading():
    potential = e6_build_potential(e6_build_fi(9))
    metric = metric_from_potential(potential)
    assert metric.entry("t0", "t") == 1
    assert metric.entry("t1", "t6") == Fraction(1, 3)
    assert metric.entry("t2", "t5") == Fraction(1, 3)
    assert metric.entry("t3", "t4") == Fraction(1, 3)
    assert metric.entry("t1", "t1") == 0
    assert metric.entry("t1", "t5") == 0
    assert euler_residual(potential).passed
    assert potential.degrees == (
        Fraction(1),
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(0),
    )


def test_potential_satisfies_wdvv():
    assert wdvv_residual(e6_build_potential(e6_build_fi(15)), 15).passed


def test_single_wrong_coefficient_breaks_wdvv(wdvv_reference):
    broken = e6_build_potential(e6_build_fi(8)).with_mutated_quantum(
        (0, 1, 1, 1, 0, 0, 0, 0), 1, Fraction(1, 720)
    )
    assert not wdvv_residual(broken, 8).passed
    potential = e6_build_potential(e6_build_fi(10))
    for key in potential.quantum:
        # the top slot of the packed residual is read; the next one is masked off
        top = potential.with_mutated_quantum(key, 7, Fraction(-1, 720))
        assert wdvv_residual(top, 8).first_failure.exponent == 7
        past = potential.with_mutated_quantum(key, 8, Fraction(-1, 720))
        assert past.quantum[key] != potential.quantum[key]
        assert wdvv_residual(past, 8).passed
        # a residual far above the potential's own coefficients, exactly
        huge = potential.with_mutated_quantum(key, 2, Fraction(10**40, 7))
        failure = wdvv_residual(huge, 8).first_failure
        reference = wdvv_reference(huge, 8)
        reference.assert_first_failure(failure.indices, (failure.exponent, failure.residual))


def test_transcribed_f11_block_fails_associativity():
    raw = e6_build_potential(e6_build_fi(8), raw_f11_block=True)
    report = wdvv_residual(raw, 8)
    assert not report.passed
    assert report.first_failure.indices == (1, 1, 4, 4)
    assert report.first_failure.exponent == 2
    assert Fraction(report.first_failure.residual) == Fraction(-1, 6)
    assert not wdvv_residual(raw, 8).passed


def test_f11_orbit_completion_is_the_only_difference():
    good = e6_build_potential(e6_build_fi(8))
    raw = e6_build_potential(e6_build_fi(8), raw_f11_block=True)
    missing = (0, 0, 0, 0, 4, 1, 1, 0)
    doubled = (0, 0, 0, 0, 1, 1, 4, 0)
    assert set(good.quantum) - set(raw.quantum) == {missing}
    assert raw.quantum[doubled] == good.quantum[doubled].scale(2)
    same = set(good.quantum) & set(raw.quantum) - {doubled}
    for key in same:
        assert raw.quantum[key] == good.quantum[key]


# -- genus one ---------------------------------------------------------------------------


def test_genus_one_certificates():
    result = e6_genus_one(30, e6_build_fi(30))
    assert result.passed
    assert result.report.name == "e6-genus-one"
    assert result.linear_coefficient == Fraction(-1, 24)
    # -(1/3) log prod(1 - q^(3n)) starts at (1/3) q^3
    assert result.series.coefficient(1) == 0
    assert result.series.coefficient(2) == 0
    assert result.series.coefficient(3) == Fraction(1, 3)


def test_genus_one_derivative_is_tripled_divisor_series():
    result = e6_genus_one(30, e6_build_fi(30))
    derivative = result.series.qdq() + QSeries.constant(result.linear_coefficient, 30)
    tripled = f_series(11).substitute_power(3).truncate(30)
    assert derivative == tripled
