from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwseries.modular as modular
from gwseries.d4 import D4Coefficients, d4_analytic, d4_eta_forms, d4_genus_one
from gwseries.e6 import E6Coefficients, e6_build_fi, e6_genus_one
from gwseries.modular import (
    EtaQuotient,
    J_series,
    dedekind_eta,
    delta_series,
    eisenstein_e4,
    eta_expand,
    eta_unit,
    f_series,
    halphen_reports,
    halphen_variables,
    j_series,
    lattice_theta,
    modular_reports,
    sigma,
    theta_eta_reports,
    theta_jacobi,
    theta_logderiv,
    verify_cusp_form_from_j,
    verify_eta_product_rotation,
    verify_even_part,
    verify_f_eta,
    verify_sigma_doubling,
)
from gwseries.qseries import QSeries, QSeriesError, ZeroDivisor


def _sigma_brute(n: int, power: int = 1) -> int:
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def _pentagonal_coeffs(truncation: int) -> list[int]:
    coeffs = [0] * truncation
    coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < truncation:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < truncation:
                coeffs[e] = -1 if k % 2 else 1
        k += 1
    return coeffs


def _list_product(xs: list[int], ys: list[int], truncation: int) -> list[int]:
    out = [0] * truncation
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys[: truncation - i]):
                out[i + j] += x * y
    return out


# -- divisor sums and the weight-two quasimodular form ---------------------------------


def test_sigma_matches_divisor_enumeration():
    for n in range(1, 300):
        assert sigma(n) == _sigma_brute(n)
    for n in range(1, 60):
        assert sigma(n, 3) == _sigma_brute(n, 3)


def test_sigma_known_values():
    assert sigma(1) == 1
    assert sigma(6) == 12
    assert sigma(10) == 18
    assert sigma(10) == 3 * sigma(5)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(0, 2000), st.sampled_from((1, 3)))
@example(0, 1)
@example(1, 1)
@example(0, 3)
@example(1, 3)
def test_divisor_pair_sieve_matches_sigma(n_max, power):
    assert modular._sigma_sieve(n_max, power) == [0] + [sigma(n, power) for n in range(1, n_max + 1)]


def test_f_series_coefficients():
    f = f_series(10)
    assert f.coefficient(0) == Fraction(-1, 24)
    for n in range(1, 10):
        assert f.coefficient(n) == sigma(n)


def test_even_part_identity():
    assert verify_even_part(80).passed


def test_sigma_doubling_sweep():
    report = verify_sigma_doubling()
    assert report.passed
    assert report.order_certified == 10_000


# -- eta ---------------------------------------------------------------------------


def test_eta_unit_is_the_pentagonal_number_series():
    truncation = 80
    expected = _pentagonal_coeffs(truncation)
    unit = eta_unit(1, truncation)
    assert [unit.coefficient(e) for e in range(truncation)] == expected


def _eta_unit_by_products(scale: int, truncation: int) -> list[int]:
    """prod (1 - q^(scale n)) through q^(T-1), one factor at a time."""
    cs = [0] * truncation
    if truncation > 0:
        cs[0] = 1
    n = scale
    while n < truncation:
        # multiply by (1 - q^n); descending index keeps reads unpolluted
        for i in range(truncation - 1 - n, -1, -1):
            if cs[i]:
                cs[i + n] -= cs[i]
        n += scale
    return cs


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 27), st.integers(0, 500))
@example(1, 0)
@example(1, 1)
@example(27, 500)
def test_pentagonal_eta_unit_matches_the_product(scale, truncation):
    assert modular._eta_unit_coeffs(scale, truncation) == _eta_unit_by_products(scale, truncation)


def test_eta_unit_rescales_exponents():
    narrow = eta_unit(1, 12)
    wide = eta_unit(3, 36)
    for e in range(36):
        expected = narrow.coefficient(e // 3) if e % 3 == 0 else 0
        assert wide.coefficient(e) == expected


def test_dedekind_eta_prefactor():
    eta = dedekind_eta(10, scale=5)
    assert eta.scalar == 1
    assert eta.offset == Fraction(5, 24)
    assert eta.unit.coefficient(0) == 1


def test_f_is_minus_logderiv_of_eta():
    assert verify_f_eta(80).passed


def test_eta_quotient_parse_and_str():
    q = EtaQuotient.parse("eta(2)^-3/2 * eta(1)")
    assert q.factors == ((2, Fraction(-3, 2)), (1, Fraction(1)))
    assert EtaQuotient.parse(str(q)) == q
    assert EtaQuotient.parse("eta(9)^3 * eta(3)^-1").offset == Fraction(1)


def test_eta_quotient_rejects_garbage():
    for bad in ("", "theta(2)", "eta(-1)", "eta(2)^", "eta(2)^^2", "eta(x)", "eta(1)^1/0"):
        with pytest.raises(ValueError):
            EtaQuotient.parse(bad)
    with pytest.raises(ValueError):
        EtaQuotient(((2, Fraction(0)),))


@st.composite
def eta_quotients(draw):
    """1-4 factors eta(q^m)^r, m in 1..12, r nonzero with denominator 1-4."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        num = draw(st.integers(-6, 6).filter(bool))
        factors.append((draw(st.integers(1, 12)), Fraction(num, draw(st.integers(1, 4)))))
    return EtaQuotient(tuple(factors))


def _stored(s: QSeries) -> tuple:
    return s.order, s.den, s.valuation, s.coeffs, s.truncation


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(eta_quotients(), st.integers(1, 150))
def test_eta_quotient_logderiv_equals_the_expanded_route(quotient, truncation):
    """Additivity of the log-derivative gives what expanding the quotient
    (fractional powers through log and exp) and then differentiating gives,
    down to the stored numerators and denominator."""
    assert _stored(quotient.logderiv(truncation)) == _stored(quotient.expand(truncation).logderiv())


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(eta_quotients(), st.integers(-3, 0))
def test_eta_quotient_logderiv_fails_like_the_expanded_route(quotient, truncation):
    with pytest.raises(QSeriesError) as expanded:
        quotient.expand(truncation).logderiv()
    with pytest.raises(QSeriesError) as direct:
        quotient.logderiv(truncation)
    assert type(direct.value) is type(expanded.value) is ZeroDivisor


def test_eta_logderivs_take_no_fractional_power(monkeypatch):
    """The eta forms of the d4 and Halphen suites cost one series inverse
    per truncation, shared by every quotient taken there: no log, exp or
    rational power is ever taken."""
    x = halphen_variables(175)
    modular._eta_logderiv_unit.cache_clear()

    def forbidden(*args, **kwargs):
        raise AssertionError("an eta log-derivative took a power or a logarithm")

    for name in ("pow_rational", "log_unit", "exp_positive"):
        monkeypatch.setattr(QSeries, name, forbidden)
    counts = {"inv": 0, "logderiv": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(QSeries, "inv", counted("inv", QSeries.inv))
    monkeypatch.setattr(EtaQuotient, "logderiv", counted("logderiv", EtaQuotient.logderiv))
    d4_eta_forms(125)
    assert counts == {"inv": 1, "logderiv": 3}
    assert all(r.passed for r in theta_eta_reports(175, x))
    assert counts == {"inv": 2, "logderiv": 6}


def test_eta_expand_accepts_text():
    direct = eta_expand("eta(9)^3 * eta(3)^-1", 12)
    built = EtaQuotient(((9, Fraction(3)), (3, Fraction(-1)))).expand(12)
    assert direct == built
    assert direct.offset == Fraction(1)


def test_fractional_eta_exponent_squares_back():
    half = eta_expand("eta(2)^1/2", 20)
    assert half * half == eta_expand("eta(2)", 20)


# -- cusp forms and j ------------------------------------------------------------------


def test_delta_against_local_convolution_oracle():
    truncation = 20
    unit = _pentagonal_coeffs(truncation)
    power = [1] + [0] * (truncation - 1)
    for _ in range(24):
        power = _list_product(power, unit, truncation)
    delta = delta_series(truncation + 1)
    assert delta.coefficient(0) == 0
    for e in range(truncation):
        assert delta.coefficient(e + 1) == power[e]


def test_delta_ramanujan_values():
    d = delta_series(11)
    expected = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    assert [d.coefficient(n) for n in range(1, 11)] == expected


def test_eisenstein_normalization():
    e4 = eisenstein_e4(4)
    assert e4.coefficient(0) == 1
    assert e4.coefficient(1) == 240
    assert e4.coefficient(2) == 240 * 9


def test_j_series_first_coefficients():
    j = j_series(3)
    assert j.valuation == -1
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 744
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760


def test_J_series_is_rescaled_j_of_q_cubed():
    J = J_series(7)
    assert J.valuation == -3
    assert J.leading() == (-3, Fraction(1, 1728))
    assert J.coefficient(0) == Fraction(744, 1728)
    assert J.coefficient(-2) == 0 and J.coefficient(-1) == 0
    assert J.coefficient(3) == Fraction(196884, 1728)
    assert J.coefficient(6) == Fraction(21493760, 1728)


def test_cusp_form_recovered_from_j():
    discriminant = eta_expand("eta(3)^24", 40).to_qseries()
    report = verify_cusp_form_from_j(40, J_series(40), discriminant)
    assert report.passed
    assert report.name == "cusp-form-weight12"
    bumped = discriminant + QSeries.monomial(1, 30, 40)
    assert verify_cusp_form_from_j(40, J_series(40), bumped).first_failure.exponent == 30


# -- theta constants and the Halphen system ---------------------------------------------


def test_theta3_and_theta4_by_direct_summation():
    truncation = 30
    t3 = theta_jacobi(3, truncation)
    t4 = theta_jacobi(4, truncation)
    assert t3.scalar == 1 and t3.offset == 0
    for series, signed in ((t3.unit, False), (t4.unit, True)):
        expected = {0: 1}
        m = 1
        while m * m < truncation:
            expected[m * m] = -2 if signed and m % 2 else 2
            m += 1
        for e in range(truncation):
            assert series.coefficient(e) == expected.get(e, 0)


def test_theta2_prefactor_and_support():
    t2 = theta_jacobi(2, 14)
    assert t2.scalar == 2
    assert t2.offset == Fraction(1, 4)
    assert list(t2.unit.known_terms()) == [(0, 1), (2, 1), (6, 1), (12, 1)]


def test_theta_index_is_checked():
    with pytest.raises(ValueError):
        theta_jacobi(5, 10)


def test_theta_constants_need_a_known_constant_term():
    for which in (2, 3, 4):
        for truncation in (0, -3):
            with pytest.raises(ValueError, match="truncation >= 1"):
                theta_jacobi(which, truncation)
    assert theta_jacobi(2, 1).unit == QSeries.one(1)


def test_halphen_variable_constants():
    x2 = theta_logderiv(2, 12)
    x3 = theta_logderiv(3, 12)
    x4 = theta_logderiv(4, 12)
    assert x2.coefficient(0) == Fraction(1, 4)
    assert x3.coefficient(0) == 0
    assert x4.coefficient(0) == 0
    assert x3.coefficient(1) == 2
    assert x4.coefficient(1) == -2


def test_theta_eta_forms_agree():
    for report in theta_eta_reports(60, halphen_variables(60)):
        assert report.passed


def test_halphen_system_holds():
    reports = halphen_reports(50, halphen_variables(50))
    for report in reports:
        assert report.passed, report.name
    names = [r.name for r in reports]
    assert names == [
        "halphen-x2x3",
        "halphen-x3x4",
        "halphen-x4x2",
        "theta-eta-x2",
        "theta-eta-x3",
        "theta-eta-x4",
    ]


# -- lattice theta functions ------------------------------------------------------------


def _census(parity: int, truncation: int) -> list[int]:
    counts = [0] * truncation
    bound = int(truncation**0.5) + 1
    for x in itertools.product(range(-bound, bound + 1), repeat=4):
        if sum(x) % 2 == parity:
            norm = sum(c * c for c in x)
            if norm < truncation:
                counts[norm] += 1
    return counts


def test_lattice_theta_even_sum_census():
    for truncation in (0, 1, 2, 40):  # below 1 the thetas are built at 1
        theta = lattice_theta(truncation)[0]
        assert [theta.coefficient(e) for e in range(truncation)] == _census(0, truncation)
    assert theta.coefficient(0) == 1
    assert theta.coefficient(1) == 0
    assert theta.coefficient(2) == 24
    assert theta.coefficient(4) == 24


def test_lattice_theta_shifted_census():
    for truncation in (0, 1, 2, 40):  # below 1 the thetas are built at 1
        theta = lattice_theta(truncation)[1]
        assert [theta.coefficient(e) for e in range(truncation)] == _census(1, truncation)
    assert theta.leading() == (1, 8)
    assert theta.coefficient(2) == 0
    assert theta.coefficient(3) == 32


# -- the full suite ----------------------------------------------------------------------


def test_rotated_eta_product_over_cyclotomic_field():
    report = verify_eta_product_rotation(30)
    assert report.passed
    assert report.name == "eta-product-rotation"


def test_modular_reports_all_pass():
    reports = modular_reports(24)
    names = [r.name for r in reports]
    assert len(names) == len(set(names))
    assert {"divisor-sum-vs-eta-logderiv", "even-part-halving", "sigma-doubling",
            "halphen-x2x3", "eta-product-rotation", "cusp-form-weight12"} <= set(names)
    for report in reports:
        assert report.passed, report.name


# -- genus one ---------------------------------------------------------------------------


def _genus_one_with(model: str, order: int, bump: QSeries):
    """The model's genus-one result with `bump` added to c (d4) or f_5 (e6)."""
    if model == "d4":
        s = d4_analytic(order)
        return d4_genus_one(order, D4Coefficients(s.a, s.b, s.c + bump))
    coeffs = e6_build_fi(order)
    f = list(coeffs.f)
    f[5] = f[5] + bump
    return e6_genus_one(order, E6Coefficients(coeffs.a, tuple(f)))


@pytest.mark.parametrize(
    "model, scale, virasoro_residual", [("d4", 2, Fraction(1, 21)), ("e6", 3, Fraction(3, 56))]
)
def test_genus_one_certificates_have_teeth(monkeypatch, model, scale, virasoro_residual):
    order = 40
    assert _genus_one_with(model, order, QSeries.zero(order)).passed
    # (1/7) q^9 in c enters b + c/3 as 1/21; in f_5 it enters (3/4) f_2 + (3/8) f_5 as 3/56
    report = _genus_one_with(model, order, QSeries.monomial(Fraction(1, 7), 9, order)).report
    assert report.name == f"{model}-genus-one[{model}-genus-one-virasoro]"
    failure = report.first_failure
    assert (failure.exponent, Fraction(failure.residual)) == (9, virasoro_residual)
    # a wrong f(q) shows up on both sides, and the derivative side is reported first
    f_series = modular.f_series
    monkeypatch.setattr(
        modular, "f_series", lambda n: f_series(n) + QSeries.monomial(Fraction(1, 7), 3, n)
    )
    report = _genus_one_with(model, order, QSeries.zero(order)).report
    assert report.name == f"{model}-genus-one[{model}-genus-one-derivative]"
    failure = report.first_failure
    assert (failure.exponent, Fraction(failure.residual)) == (3 * scale, Fraction(-1, 7))
