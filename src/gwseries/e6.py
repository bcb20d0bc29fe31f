"""The orbifold line with three Z/3 points: series, potential, and checks.

The whole structure is generated by one Laurent series with a simple pole,

    a = (1/3) q^-1 + (5/3) q^2 - (7/3) q^5 + q^8 + ...,

obtained either in closed form as 1 + (1/3)(eta(q)/eta(q^9))^3 or as the
unique solution with leading coefficient 1/3 of the Schwarzian-type equation

    a'''/a' - (3/2)(a''/a')^2 = -(1/2) (8 + a^3)/(1 - a^3)^2 * a * (a')^2,

with ' = q d/dq.  The solver does not step through this third-order
equation: `_e6_rhs` rewrites it as a first-order system for f_0, f_1 = a f_0
and f_2, which the shared `solve_qdq_system` solves, and a = f_1/f_0.
Fourteen power series f_0..f_13 built from a and the square root
f_0 = (1/3) (a'/(1 - a^3))^(1/2) populate the genus-zero potential on eight
coordinates.  Everything is certified twice: the solver against the eta
closed form, each derived series against an independent formula, and a suite
of modular identities tying a to the j-invariant, cusp forms, and twisted eta
products, series over Q(zeta_3) with 72nd roots of unity only in their
scalars.  The builders only build;
`e6_suites` builds each series once and hands it to the report functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact_arith import CyclotomicNumber
from .frobenius import FrobeniusPotential, euler_residual, orbit_potential, wdvv_residual
from .modular import (
    J_series,
    dedekind_eta,
    eta_expand,
    genus_one,
    verify_cusp_form_from_j,
    verify_eta_product_rotation,
)
from .qseries import QSeries, solve_qdq_system
from .reporting import GenusOneResult, IdentityReport, failure_report, series_match

_THIRD = Fraction(1, 3)
_SQRT_NORMALIZATION = _THIRD  # the constant A with A^2 = 1/9 and f_0 = q + ...


class E6Coefficients(NamedTuple):
    a: QSeries
    f: tuple[QSeries, ...]

    def truncate(self, order: int) -> "E6Coefficients":
        return E6Coefficients(self.a.truncate(order), tuple(s.truncate(order) for s in self.f))


# -- the pole series ---------------------------------------------------------------


def _schwarzian_combination(a: QSeries) -> QSeries:
    """(1-a^3)^2 [a' a''' - (3/2)(a'')^2] + (1/2)(8+a^3) a (a')^4, ' = q d/dq.

    Vanishes identically on the solution; multiplying the equation through
    by (1-a^3)^2 (a')^2 keeps everything polynomial in known coefficients.
    """
    d1 = a.qdq()
    d2 = d1.qdq()
    d3 = d2.qdq()
    cube = a * a * a
    wronskian = d1 * d3 - (d2 * d2).scale(Fraction(3, 2))
    return (1 - cube) ** 2 * wronskian + ((8 + cube) * a * d1**4).scale(Fraction(1, 2))


def _e6_rhs(f0: QSeries, f1: QSeries, f2: QSeries) -> tuple[QSeries, QSeries, QSeries]:
    """The first-order system of (f_0, f_1, f_2), ' = q d/dq:

        f_0' = 9 f_0 (f_1^2 - f_2)
        f_1' = 9 (f_0^3 - f_1 f_2)
        f_2' = 9 (f_0^3 f_1 - f_2^2)

    It follows from the definitions `e6_build_fi` uses,

        f_0^2 = a'/(9 (1 - a^3)),   f_1 = a f_0,   f_2 = f_1^2 - f_0'/(9 f_0).

    The first line is the definition of f_2 solved for f_0'.  The second is
    f_1' = a' f_0 + a f_0' with a' = 9 (1 - a^3) f_0^2.  The third is the
    Schwarzian equation rewritten: f_2' = 2 f_1 f_1' - (f_0'/f_0)'/9 holds
    a''' only in (a''/a')' = S + (1/2)(a''/a')^2, with S the Schwarzian
    a'''/a' - (3/2)(a''/a')^2, and the equation replaces S by its right side.
    """
    f0sq, f1sq = f0 * f0, f1 * f1
    f0cb = f0sq * f0
    return (
        (f0 * (f1sq - f2)).scale(9),
        (f0cb - f1 * f2).scale(9),
        (f0cb * f1 - f2 * f2).scale(9),
    )


def e6_schwarzian_solve(order: int) -> QSeries:
    """The pole series a = f_1/f_0 from the first-order system `_e6_rhs`.

    The seeds are f_0 = q + O(q^2), f_1 = 1/3 + O(q^2), f_2 = O(q^2), which
    `solve_qdq_system` checks against the system.  The system is solved two
    orders deep: dividing by f_0 = q + ... costs two orders of a.

    >>> e6_schwarzian_solve(9)
    QSeries(1/3q^-1 + 5/3q^2 - 7/3q^5 + q^8 + O(q^9))
    """
    if order < 0:
        raise ValueError("order must be at least 0")
    seeds = ((0, 1), (_THIRD, 0), (0, 0))
    f0, f1, _ = solve_qdq_system(_e6_rhs, seeds, order + 2)
    return (f1 * f0.inv()).truncate(order)


def e6_h_analytic(order: int) -> QSeries:
    """Closed form 1 + (1/3)(eta(q)/eta(q^9))^3 of the pole series.

    Builds only; the comparison with the equation solver is the
    `e6-solver-matches-eta` report.
    """
    quotient = eta_expand("eta(1)^3 * eta(9)^-3", order + 1).to_qseries()
    return QSeries.constant(Fraction(1), order) + quotient.scale(_THIRD)


def e6_schwarzian_residual_report(order: int, a: QSeries) -> IdentityReport:
    """The defining equation holds for `a` through q^(order-1).

    The residual loses eight orders to the pole, so `a` must reach order + 8.
    """
    residual = _schwarzian_combination(a)
    return series_match("e6-schwarzian-equation", residual, QSeries.zero(order), order)


# -- the fourteen coefficient series ------------------------------------------------


def _sqrt_route_f0(a: QSeries) -> QSeries:
    ratio = a.qdq() * (1 - a * a * a).inv()
    return ratio.nth_root(2).scale(_SQRT_NORMALIZATION)


def e6_build_fi(order: int) -> E6Coefficients:
    """All fourteen series at the requested order, from the eta closed forms.

    Builds only; the independent routes to the same series are
    `e6_coefficient_reports`.
    """
    slack = order + 2
    a = e6_h_analytic(slack)
    f0 = eta_expand("eta(9)^3 * eta(3)^-1", slack + 1).to_qseries()
    f1 = a * f0
    x = f0.qdq() * f0.inv()
    f1sq = f1 * f1
    f0sq = f0 * f0
    f0cb = f0sq * f0
    f = (
        f0,
        f1,
        x.scale(Fraction(-1, 9)) + f1sq,
        f0sq,
        f1 * f0,
        x.scale(Fraction(-2, 9)) + f1sq,
        f0cb,
        f1 * f0sq,
        f1sq * f0,
        f1 * f1sq,
        (f1 * f0cb).scale(3),
        (f1sq * f0sq).scale(3),
        f0sq.scale(2) * f0sq + f1 * f1sq * f0,
        (f1 * f0cb).scale(6) - (f1sq * f1sq).scale(3),
    )
    return E6Coefficients(a.truncate(order), tuple(s.truncate(order) for s in f))


def e6_coefficient_reports(
    order: int, coeffs: E6Coefficients, solved: QSeries
) -> list[IdentityReport]:
    """Independent routes to the same series: square root, eta quotient, the
    derivative-based closed forms coming from the flatness calculation, and
    the equation solver's `solved` pole series.

    `coeffs` must reach order + 8, which the defining equation's residual
    needs; `solved` must reach order.
    """
    a = coeffs.a
    f = coeffs.f
    reports = [
        series_match("e6-f0-sqrt-route", _sqrt_route_f0(a), f[0], order),
    ]
    d1 = a.qdq()
    d2 = d1.qdq()
    rational = d1 * (1 - a * a * a).inv()
    curvature = d2 * d1.inv()
    asq_rational = a * a * rational
    reports.append(
        series_match(
            "e6-f2-derivative-route",
            (curvature + asq_rational).scale(Fraction(-1, 18)),
            f[2],
            order,
        )
    )
    reports.append(
        series_match("e6-f3-derivative-route", rational.scale(Fraction(1, 9)), f[3], order)
    )
    reports.append(
        series_match(
            "e6-f4-derivative-route", (a * rational).scale(Fraction(1, 9)), f[4], order
        )
    )
    reports.append(
        series_match(
            "e6-f5-derivative-route",
            (curvature + asq_rational.scale(2)).scale(Fraction(-1, 9)),
            f[5],
            order,
        )
    )
    reports.append(series_match("e6-solver-matches-eta", solved, a, order))
    reports.append(e6_schwarzian_residual_report(order, a))
    return reports


# -- modular identity suite ---------------------------------------------------------


def e6_identity_suite(order: int, a: QSeries, f0: QSeries) -> list[IdentityReport]:
    """The j-invariant relation, the cusp-form identities, and the twisted
    eta expressions for the pole series `a` (the last over Q(zeta_3)), all
    certified through the same order.  `a` must reach order + 2 and the eta
    quotient `f0` = eta(9)^3 / eta(3) must reach order."""
    cube = a * a * a
    one_minus = 1 - cube
    eight_plus = 8 + cube
    d1 = a.qdq()

    lhs_j = (cube * eight_plus**3 * (one_minus**3).inv()).scale(Fraction(-1, 64))
    J = J_series(order)
    reports = [series_match("e6-j-relation", lhs_j, J, order)]

    cube_minus_one = one_minus.scale(-1)
    # offset of this quotient is -3, so expand three orders deeper
    rhs_unit = (
        eta_expand("eta(3)^12 * eta(9)^-12", order + 3).to_qseries().scale(Fraction(1, 27))
    )
    reports.append(series_match("e6-cube-unit", cube_minus_one, rhs_unit, order))

    sextic = (d1**6 * (cube_minus_one**3).inv()).scale(Fraction(1, 27))
    discriminant = eta_expand("eta(3)^24", order).to_qseries()
    reports.append(series_match("e6-cusp-form-sextic", sextic, discriminant, order))

    slope = d1 * one_minus.inv()
    rhs_slope = (f0.truncate(order) ** 2).scale(9)
    reports.append(series_match("e6-slope-eta", slope, rhs_slope, order))

    reports.append(verify_cusp_form_from_j(order, J, discriminant))
    reports.append(verify_eta_product_rotation(order))
    reports.extend(e6_twisted_pole_reports(order, a))
    return reports


# Per report: name, the power of omega = zeta_3 in the constant, the twist
# q -> zeta_3^k q, the branch zeta_72^b of (zeta_3^k)^(1/24) and the phase
# zeta_72^p; the scalar zeta_72^(3b + p) of the twisted quotient is 1.
_TWISTED_POLE_ROWS = (
    ("e6-pole-twist-square", 1, -2, -2, 6),
    ("e6-pole-twist-linear", 2, -1, -1, 3),
)


def e6_twisted_pole_reports(order: int, a: QSeries) -> list[IdentityReport]:
    """a = omega^j + (1/3) (eta(q zeta_3^k)/eta(q^9))^3 * zeta_72^p, reported
    with index 24 k, the twist as a power of zeta_72.

    Twisting eta's q^(1/24) prefactor needs a 72nd root of unity branch;
    the branch taken is the literal one, zeta_72^k read off the exponent,
    matching the product identity for eta(q^3)^4.  Only the scalar lives in
    Q(zeta_72); the series are over Q(zeta_3), and a scalar that is not
    rational fails the report at the pole, where it first enters.
    """
    eta_plain = dedekind_eta(order + 1)
    eta_nine_cubed = eta_expand("eta(9)^3", order + 1)
    reports = []
    for name, omega_power, k, branch_power, phase_power in _TWISTED_POLE_ROWS:
        twisted = eta_plain.twist(
            CyclotomicNumber.zeta(3, k), branch=CyclotomicNumber.zeta(72, branch_power)
        )
        quotient = twisted**3 / eta_nine_cubed
        scalar = quotient.scalar * CyclotomicNumber.zeta(72, phase_power) * _THIRD
        pole = int(quotient.offset)
        if not scalar.is_rational():
            reports.append(failure_report(name, order, (24 * k,), pole, a.coefficient(pole) - scalar))
            continue
        rhs = QSeries.constant(CyclotomicNumber.zeta(3, omega_power), order) + (
            quotient.unit.scale(scalar.rational_value()).shift(pole)
        )
        reports.append(series_match(name, a, rhs, order, indices=(24 * k,)))
    return reports


# -- degree-one counts ---------------------------------------------------------------


def e6_gw_table(kmax: int) -> tuple[list[tuple[int, Fraction]], IdentityReport]:
    """Degree counts c_k (coefficient of q^(3k+1) in f_0) plus their certificate.

    The table values come from the eta quotient.  The certificate recomputes
    f_0 down the entirely independent road the counts originally came from:
    solving the associativity-forced equation for the pole series coefficient
    by coefficient, then applying the square-root formula.  The two tables
    must agree, and f_0 must be supported on exponents 1 mod 3.
    """
    f0_eta = eta_expand("eta(9)^3 * eta(3)^-1", 3 * kmax + 2).to_qseries()
    return _gw_table(kmax, e6_schwarzian_solve(3 * kmax + 4), f0_eta)


def _gw_table(
    kmax: int, solved: QSeries, f0: QSeries
) -> tuple[list[tuple[int, Fraction]], IdentityReport]:
    """`e6_gw_table` from a solver run `solved` that reaches at least 3 kmax + 4
    and the eta quotient `f0` reaching at least 3 kmax + 3."""
    order = 3 * kmax + 2
    f0_eta = f0.truncate(order + 1)
    f0_solver = _sqrt_route_f0(solved.truncate(order + 2)).truncate(order)
    report = series_match("e6-gw-dual-route", f0_solver, f0_eta, order)
    if report.passed:
        for exponent, coeff in f0_eta.known_terms():
            if coeff and exponent % 3 != 1:
                report = failure_report(
                    "e6-gw-dual-route", order, (exponent,), exponent, coeff
                )
                break
    table = [(k, Fraction(f0_eta.coefficient(3 * k + 1))) for k in range(kmax + 1)]
    return table, report


# -- potential, genus one -------------------------------------------------------------


# One row per orbit of the permutations of the pairs (t1,t6), (t2,t5), (t3,t4):
# the index i of the series f_i, its prefactor, and a representative monomial.
_E6_QUANTUM_ROWS = (
    (0, Fraction(1), (0, 1, 1, 1, 0, 0, 0, 0)),
    (1, Fraction(1, 6), (0, 3, 0, 0, 0, 0, 0, 0)),
    (2, Fraction(1), (0, 1, 1, 0, 0, 1, 1, 0)),
    (3, Fraction(1, 2), (0, 2, 0, 0, 1, 1, 0, 0)),
    (4, Fraction(1, 2), (0, 1, 1, 0, 2, 0, 0, 0)),
    (5, Fraction(1, 4), (0, 2, 0, 0, 0, 0, 2, 0)),
    (6, Fraction(1, 6), (0, 1, 0, 0, 3, 0, 1, 0)),
    (7, Fraction(1, 2), (0, 1, 0, 0, 1, 1, 2, 0)),
    (8, Fraction(1, 4), (0, 1, 0, 0, 2, 2, 0, 0)),
    (9, Fraction(1, 24), (0, 1, 0, 0, 0, 0, 4, 0)),
    (10, Fraction(1, 36), (0, 0, 0, 0, 3, 3, 0, 0)),
    (11, Fraction(1, 24), (0, 0, 0, 0, 4, 1, 1, 0)),
    (12, Fraction(1, 8), (0, 0, 0, 0, 2, 2, 2, 0)),
    (13, Fraction(1, 720), (0, 0, 0, 0, 6, 0, 0, 0)),
)


def e6_build_potential(coeffs: E6Coefficients, raw_f11_block: bool = False) -> FrobeniusPotential:
    """Genus-zero potential on (t0, t1..t6, t) with t acting as log q.

    raw_f11_block keeps the f_11 monomials exactly as printed in the source
    the potential was transcribed from, where t4 t5 t6^4 appears twice and
    t4^4 t5 t6 not at all; the default completes the orbit symmetrically,
    which is what associativity requires.
    """
    potential = orbit_potential(
        ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t"),
        (Fraction(1), *[Fraction(2, 3)] * 3, *[_THIRD] * 3, Fraction(0)),
        ((1, 6), (2, 5), (3, 4)),
        [((2, 0, 0, 0, 0, 0, 0, 1), Fraction(1, 2)), ((1, 1, 0, 0, 0, 0, 1, 0), _THIRD)],
        [(rep, prefactor, coeffs.f[i]) for i, prefactor, rep in _E6_QUANTUM_ROWS],
    )
    if raw_f11_block:
        quantum, doubled = potential.quantum, (0, 0, 0, 0, 1, 1, 4, 0)
        del quantum[(0, 0, 0, 0, 4, 1, 1, 0)]
        quantum[doubled] = quantum[doubled].scale(2)
    return potential


def e6_genus_one(order: int, coeffs: E6Coefficients) -> GenusOneResult:
    """Genus-one potential -(1/3) log eta(q^3), certified by `genus_one`:
    q d/dq of it must be -1/24 + sum sigma(n) q^(3n), and the same series
    must come out of the genus-one Virasoro combination (3/4) f_2 + (3/8) f_5.
    """
    virasoro = coeffs.f[2].scale(Fraction(3, 4)) + coeffs.f[5].scale(Fraction(3, 8))
    return genus_one("e6-genus-one", order, 3, virasoro)


# -- verify suite ---------------------------------------------------------------------


def e6_suites(order: int, raw_f11_block: bool = False) -> list[tuple[str, list[IdentityReport]]]:
    """The `verify e6` suites, every series built once.

    The coefficient series are built eight orders deep, which the defining
    equation's residual needs, and truncated down where a check needs less.
    The equation is solved once, two orders deep, for both the solver check
    and the second route of the degree table, and the eta quotient f_0 is
    expanded once, for the coefficients, the slope identity and the table.
    The potential is built from the coefficients truncated to `order`, and
    WDVV is certified through that order.
    """
    coeffs = e6_build_fi(order + 8)
    solved = e6_schwarzian_solve(order + 2)
    f0 = coeffs.f[0]
    at_order = coeffs.truncate(order)
    potential = e6_build_potential(at_order, raw_f11_block)
    return [
        ("e6-coefficients", e6_coefficient_reports(order, coeffs, solved)),
        ("e6-identities", e6_identity_suite(order, coeffs.a.truncate(order + 2), f0)),
        ("e6-gw-table", [_gw_table(max((order - 2) // 3, 0), solved, f0)[1]]),
        ("e6-genus-one", [e6_genus_one(order, at_order).report]),
        ("e6-potential", [wdvv_residual(potential, order), euler_residual(potential)]),
    ]
