"""The orbifold line with three Z/3 points: series, potential, and checks.

The whole structure is generated by one Laurent series with a simple pole,

    a = (1/3) q^-1 + (5/3) q^2 - (7/3) q^5 + q^8 + ...,

obtained either in closed form as 1 + (1/3)(eta(q)/eta(q^9))^3 or as the
unique solution with leading coefficient 1/3 of the Schwarzian-type equation

    a'''/a' - (3/2)(a''/a')^2 = -(1/2) (8 + a^3)/(1 - a^3)^2 * a * (a')^2,

with ' = q d/dq.  The solver does not step through this third-order
equation: the shared `solve_qdq_system` solves the first-order system
`_E6_SYSTEM` for f_0, f_1 = a f_0 and f_2, and a = f_1/f_0.  Fourteen power
series f_0..f_13, polynomials in these generators (`_E6_QUANTUM_ROWS`, data
for `qseries.evaluate` like the system), are the genus-zero correlators on
eight coordinates.  Everything is certified twice: the solver against the
eta closed form, f_0 against the square root (1/3) (a'/(1 - a^3))^(1/2), the
generators against their system, each derived series against an independent
formula, and a suite of modular identities tying a to the j-invariant, cusp
forms, and twisted eta products, read off the 3-dissection of rational
series with the roots of unity kept as exponents.  The builders only build;
`e6_suites` builds each series once, a', a^3 and (1 - a^3)^-1 included
(`pole_series`), and hands them to the report functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .modular import (
    J_series,
    eta_expand,
    genus_one,
    verify_cusp_form_from_j,
    verify_eta_product_rotation,
)
from .qseries import QSeries, evaluate, field_text, solve_qdq_system
from .reporting import GenusOneResult, IdentityReport, failure_report, series_match

if TYPE_CHECKING:
    from .frobenius import FrobeniusPotential

_THIRD = Fraction(1, 3)


class E6Coefficients(NamedTuple):
    a: QSeries
    f: tuple[QSeries, ...]

    def truncate(self, order: int) -> "E6Coefficients":
        return E6Coefficients(self.a.truncate(order), tuple(s.truncate(order) for s in self.f))


# -- the pole series ---------------------------------------------------------------


class PoleSeries(NamedTuple):
    """The pole series a and the series the checks derive from it, ' = q d/dq:
    a', a^3, (1 - a^3)^-1 and the slope a'/(1 - a^3) = 9 f_0^2."""

    a: QSeries
    d1: QSeries
    cube: QSeries
    inverse: QSeries
    slope: QSeries


def pole_series(a: QSeries) -> PoleSeries:
    """a with its derived series, each built once."""
    d1, cube = a.qdq(), a * a * a
    inverse = (1 - cube).inv()
    return PoleSeries(a, d1, cube, inverse, d1 * inverse)


def _schwarzian_combination(pole: PoleSeries) -> QSeries:
    """(1-a^3)^2 [a' a''' - (3/2)(a'')^2] + (1/2)(8+a^3) a (a')^4, ' = q d/dq.

    Vanishes identically on the solution; multiplying the equation through
    by (1-a^3)^2 (a')^2 keeps everything polynomial in known coefficients.
    """
    a, d1, cube = pole.a, pole.d1, pole.cube
    d2 = d1.qdq()
    d3 = d2.qdq()
    wronskian = d1 * d3 - (d2 * d2).scale(Fraction(3, 2))
    return (1 - cube) ** 2 * wronskian + ((8 + cube) * a * d1**4).scale(Fraction(1, 2))


# The first-order system of (f_0, f_1, f_2), ' = q d/dq, one polynomial per
# component (see `qseries.evaluate`):
#
#     f_0' = 9 f_0 (f_1^2 - f_2)
#     f_1' = 9 (f_0^3 - f_1 f_2)
#     f_2' = 9 (f_0^3 f_1 - f_2^2)
#
# It follows from the definitions `e6_build_fi` uses,
#
#     f_0^2 = a'/(9 (1 - a^3)),   f_1 = a f_0,   f_2 = f_1^2 - f_0'/(9 f_0).
#
# The first line is the definition of f_2 solved for f_0'.  The second is
# f_1' = a' f_0 + a f_0' with a' = 9 (1 - a^3) f_0^2.  The third is the
# Schwarzian equation rewritten: f_2' = 2 f_1 f_1' - (f_0'/f_0)'/9 holds
# a''' only in (a''/a')' = S + (1/2)(a''/a')^2, with S the Schwarzian
# a'''/a' - (3/2)(a''/a')^2, and the equation replaces S by its right side.
_E6_SYSTEM = (
    {(1, 2, 0): 9, (1, 0, 1): -9},
    {(3, 0, 0): 9, (0, 1, 1): -9},
    {(3, 1, 0): 9, (0, 0, 2): -9},
)


def e6_schwarzian_solve(order: int) -> QSeries:
    """The pole series a = f_1/f_0 from the first-order system `_E6_SYSTEM`.

    The seeds are f_0 = q + O(q^2), f_1 = 1/3 + O(q^2), f_2 = O(q^2), which
    `solve_qdq_system` checks against the system.  The system is solved two
    orders deep: dividing by f_0 = q + ... costs two orders of a.

    >>> e6_schwarzian_solve(9)
    QSeries(1/3q^-1 + 5/3q^2 - 7/3q^5 + q^8 + O(q^9))
    """
    if order < 0:
        raise ValueError("order must be at least 0")
    seeds = ((0, 1), (_THIRD, 0), (0, 0))
    f0, f1, _ = solve_qdq_system(_E6_SYSTEM, seeds, order + 2)
    return (f1 * f0.inv()).truncate(order)


def e6_h_analytic(order: int) -> QSeries:
    """Closed form 1 + (1/3)(eta(q)/eta(q^9))^3 of the pole series.

    Builds only; the comparison with the equation solver is the
    `e6-solver-matches-eta` report.
    """
    quotient = eta_expand("eta(1)^3 * eta(9)^-3", order + 1)
    return QSeries.constant(Fraction(1), order) + quotient.scale(_THIRD)


# -- the fourteen coefficient series ------------------------------------------------


def _sqrt_route_f0(slope: QSeries) -> QSeries:
    """f_0 = (1/3) (a'/(1 - a^3))^(1/2) from the slope of a, the root q + ..."""
    return slope.nth_root(2).scale(_THIRD)


# One row per orbit of the permutations of the pairs (t1,t6), (t2,t5), (t3,t4),
# row i for the series f_i: the correlator d^k F as a polynomial
# {(i, j, k): c, ...} meaning the sum of c f_0^i f_1^j f_2^k (see
# `qseries.evaluate`), and a representative monomial t^k; `orbit_potential`
# divides by k!.
_E6_QUANTUM_ROWS = (
    ({(1, 0, 0): 1}, (0, 1, 1, 1, 0, 0, 0, 0)),
    ({(0, 1, 0): 1}, (0, 3, 0, 0, 0, 0, 0, 0)),
    ({(0, 0, 1): 1}, (0, 1, 1, 0, 0, 1, 1, 0)),
    ({(2, 0, 0): 1}, (0, 2, 0, 0, 1, 1, 0, 0)),
    ({(1, 1, 0): 1}, (0, 1, 1, 0, 2, 0, 0, 0)),
    ({(0, 0, 1): 2, (0, 2, 0): -1}, (0, 2, 0, 0, 0, 0, 2, 0)),
    ({(3, 0, 0): 1}, (0, 1, 0, 0, 3, 0, 1, 0)),
    ({(2, 1, 0): 1}, (0, 1, 0, 0, 1, 1, 2, 0)),
    ({(1, 2, 0): 1}, (0, 1, 0, 0, 2, 2, 0, 0)),
    ({(0, 3, 0): 1}, (0, 1, 0, 0, 0, 0, 4, 0)),
    ({(3, 1, 0): 3}, (0, 0, 0, 0, 3, 3, 0, 0)),
    ({(2, 2, 0): 3}, (0, 0, 0, 0, 4, 1, 1, 0)),
    ({(4, 0, 0): 2, (1, 3, 0): 1}, (0, 0, 0, 0, 2, 2, 2, 0)),
    ({(3, 1, 0): 6, (0, 4, 0): -3}, (0, 0, 0, 0, 6, 0, 0, 0)),
)


def e6_build_fi(order: int) -> E6Coefficients:
    """All fourteen series at the requested order, from the eta closed forms.

    The generators are f_0 = eta(9)^3/eta(3), f_1 = a f_0 and
    f_2 = f_1^2 - f_0'/(9 f_0); every f_i is its `_E6_QUANTUM_ROWS`
    polynomial in them, through `qseries.evaluate`.  Builds only;
    the independent routes to the same series are `e6_coefficient_reports`.
    """
    slack = order + 2
    a = e6_h_analytic(slack)
    f0 = eta_expand("eta(9)^3 * eta(3)^-1", slack + 1)
    f1 = a * f0
    f1_squared = f1 * f1
    generators = (f0, f1, f1_squared - (f0.qdq() * f0.inv()).scale(Fraction(1, 9)))
    f = evaluate([polynomial for polynomial, _ in _E6_QUANTUM_ROWS], generators, {(0, 2, 0): f1_squared})
    return E6Coefficients(a.truncate(order), tuple(s.truncate(order) for s in f))


def e6_coefficient_reports(
    order: int, pole: PoleSeries, f: Sequence[QSeries], solved: QSeries
) -> list[IdentityReport]:
    """Independent routes to the fourteen series `f`: square root, eta
    quotient, the derivative-based closed forms coming from the flatness
    calculation, the first-order system `_E6_SYSTEM` on the eta-side
    generators f_0, f_1, f_2, and the equation solver's `solved` pole series
    against the closed form in `pole`, and the defining equation on `pole`.

    `pole` and `f` must reach order + 8, which the defining equation's
    residual needs; `solved` must reach order.
    """
    a, d1, slope = pole.a, pole.d1, pole.slope
    curvature = d1.qdq() * d1.inv()
    a_slope = a * slope
    asq_slope = a * a_slope
    reports = [
        series_match("e6-f0-sqrt-route", _sqrt_route_f0(slope), f[0], order),
        series_match(
            "e6-f2-derivative-route",
            (curvature + asq_slope).scale(Fraction(-1, 18)),
            f[2],
            order,
        ),
        series_match("e6-f3-derivative-route", slope.scale(Fraction(1, 9)), f[3], order),
        series_match("e6-f4-derivative-route", a_slope.scale(Fraction(1, 9)), f[4], order),
        series_match(
            "e6-f5-derivative-route",
            (curvature + asq_slope.scale(2)).scale(Fraction(-1, 9)),
            f[5],
            order,
        ),
    ]
    reports.extend(
        series_match(f"e6-ode-f{i}", s.qdq(), rhs, order)
        for i, (s, rhs) in enumerate(zip(f[:3], evaluate(_E6_SYSTEM, f[:3])))
    )
    reports.append(series_match("e6-solver-matches-eta", solved, a, order))
    residual = _schwarzian_combination(pole)  # loses eight orders to the pole
    reports.append(series_match("e6-schwarzian-equation", residual, QSeries.zero(order), order))
    return reports


# -- modular identity suite ---------------------------------------------------------


def e6_identity_suite(
    order: int, pole: PoleSeries, f0: QSeries, quotient: QSeries
) -> list[IdentityReport]:
    """The j-invariant relation, the cusp-form identities, and the twisted
    eta expressions for the pole series (the last with roots of unity), all
    certified through the same order.  `pole` must be built from an a that
    reaches order + 2, since a^3 knows two orders less through the pole at
    q^-1, and the eta quotients
    `f0` = eta(9)^3 / eta(3) and `quotient` = eta(1)^3 / eta(9)^3 must
    reach order."""
    a, d1, cube, inverse, slope = pole
    inverse_cube = inverse**3

    lhs_j = (cube * (8 + cube) ** 3 * inverse_cube).scale(Fraction(-1, 64))
    J = J_series(order)
    reports = [series_match("e6-j-relation", lhs_j, J, order)]

    # offset of this quotient is -3, so expand three orders deeper
    rhs_unit = eta_expand("eta(3)^12 * eta(9)^-12", order + 3).scale(Fraction(1, 27))
    reports.append(series_match("e6-cube-unit", cube - 1, rhs_unit, order))

    sextic = (d1**6 * inverse_cube).scale(Fraction(-1, 27))  # (a^3 - 1)^-3 = -(1 - a^3)^-3
    discriminant = eta_expand("eta(3)^24", order)
    reports.append(series_match("e6-cusp-form-sextic", sextic, discriminant, order))

    rhs_slope = (f0.truncate(order) ** 2).scale(9)
    reports.append(series_match("e6-slope-eta", slope, rhs_slope, order))

    reports.append(verify_cusp_form_from_j(order, J, discriminant))
    reports.append(verify_eta_product_rotation(order))
    reports.extend(e6_twisted_pole_reports(order, a, quotient))
    return reports


# Per report: name, the power of omega = zeta_3 in the constant, the twist
# q -> zeta_3^k q, the branch zeta_72^b of (zeta_3^k)^(1/24) and the phase
# zeta_72^p; the scalar zeta_72^(3b + p) of the twisted quotient is 1.
_TWISTED_POLE_ROWS = (
    ("e6-pole-twist-square", 1, -2, -2, 6),
    ("e6-pole-twist-linear", 2, -1, -1, 3),
)
# omega^0, omega^1, omega^2 = -1 - omega as (x, y) for x + y omega
_OMEGA_POWERS = ((1, 0), (0, 1), (-1, -1))


def e6_twisted_pole_reports(order: int, a: QSeries, quotient: QSeries) -> list[IdentityReport]:
    """a = omega^j + (1/3) (eta(q zeta_3^k)/eta(q^9))^3 * zeta_72^p, reported
    with index 24 k, the twist as a power of zeta_72.

    Twisting eta's q^(1/24) prefactor needs a 72nd root of unity branch;
    the branch taken is the literal one, zeta_72^b read off the row,
    matching the product identity for eta(q^3)^4.  The prefactor is kept as
    zeta_72^e times a rational, e = 3b + p mod 72.  Outside Q(zeta_3), when
    12 does not divide e, it fails the report at the pole, where it first
    enters.  Otherwise it is zeta_6^m = (-1)^m omega^2m for m = e/12.  The
    series part needs no other root of unity: eta(q^9) is a series in q^9,
    which the twist fixes, so the twist multiplies the q^n term of the unit
    of `quotient` = eta(q)^3 / eta(q^9)^3 = q^pole + ... by omega^kn.  So
    the terms of `quotient` with exponent r mod 3 (`dissect`) pick up
    omega^(2m + k(r - pole)), and the residual is x + y omega for two
    rational series x and y, printed x + y*z3^1 at its first nonzero term.
    `a` and `quotient` must reach order.
    """
    pole = quotient.valuation
    parts = [quotient.truncate(order).dissect(3, r) for r in range(3)]
    reports = []
    for name, omega_power, k, branch_power, phase_power in _TWISTED_POLE_ROWS:
        phase = (3 * branch_power + phase_power) % 72
        if phase % 12:
            prefactor = (-_THIRD * quotient.coefficient(pole), f"*z72^{phase}")
            failure = pole, field_text((a.coefficient(pole), ""), prefactor)
        else:
            m = phase // 12
            sign, (x, y) = _THIRD * (-1) ** m, _OMEGA_POWERS[omega_power % 3]
            res_x, res_y = a.truncate(order) - x, QSeries.constant(-y, order)
            for r, part in enumerate(parts):
                x, y = _OMEGA_POWERS[(2 * m + k * (r - pole)) % 3]
                res_x, res_y = res_x - part.scale(sign * x), res_y - part.scale(sign * y)
            failure = None
            if (e := min(res_x.valuation, res_y.valuation)) < order:
                failure = e, field_text((res_x.coefficient(e), ""), (res_y.coefficient(e), "*z3^1"))
        report = IdentityReport(name, order) if failure is None else failure_report(name, order, (24 * k,), *failure)
        reports.append(report)
    return reports


# -- degree-one counts ---------------------------------------------------------------


def e6_gw_table(kmax: int) -> tuple[list[tuple[int, Fraction]], IdentityReport]:
    """Degree counts c_k (coefficient of q^(3k+1) in f_0) plus their certificate.

    The table values come from the eta quotient; the certificate is
    `_gw_dual_route` through q^(3 kmax + 2).
    """
    order = 3 * kmax + 2
    f0 = eta_expand("eta(9)^3 * eta(3)^-1", order)
    table = [(k, Fraction(f0.coefficient(3 * k + 1))) for k in range(kmax + 1)]
    return table, _gw_dual_route(order, e6_schwarzian_solve(order + 2), f0)


def _gw_dual_route(order: int, solved: QSeries, f0: QSeries) -> IdentityReport:
    """The eta quotient `f0` against f_0 down the entirely independent road
    the degree counts originally came from: solving the associativity-forced
    equation for the pole series `solved`, then applying the square-root
    formula.  The two must agree through q^(order-1), and f_0 must be
    supported on exponents 1 mod 3 there.  `solved` must reach order + 2.
    """
    report = series_match("e6-gw-dual-route", _sqrt_route_f0(pole_series(solved).slope), f0, order)
    if report.passed:
        for exponent, coeff in f0.truncate(order).known_terms():
            if coeff and exponent % 3 != 1:
                return failure_report("e6-gw-dual-route", order, (exponent,), exponent, coeff)
    return report


# -- potential, genus one -------------------------------------------------------------


def e6_build_potential(coeffs: E6Coefficients, raw_f11_block: bool = False) -> FrobeniusPotential:
    """Genus-zero potential on (t0, t1..t6, t) with t acting as log q.

    raw_f11_block keeps the f_11 monomials exactly as printed in the source
    the potential was transcribed from, where t4 t5 t6^4 appears twice and
    t4^4 t5 t6 not at all; the default completes the orbit symmetrically,
    which is what associativity requires.  The transcribed block breaks both
    block swaps, so that potential records no symmetries.
    """
    from .frobenius import FrobeniusPotential, orbit_potential

    potential = orbit_potential(
        ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t"),
        (Fraction(1), *[Fraction(2, 3)] * 3, *[_THIRD] * 3, Fraction(0)),
        ((1, 6), (2, 5), (3, 4)),
        [((2, 0, 0, 0, 0, 0, 0, 1), Fraction(1)), ((1, 1, 0, 0, 0, 0, 1, 0), _THIRD)],
        [(rep, s) for (_, rep), s in zip(_E6_QUANTUM_ROWS, coeffs.f)],
    )
    if not raw_f11_block:
        return potential
    quantum, doubled = dict(potential.quantum), (0, 0, 0, 0, 1, 1, 4, 0)
    del quantum[(0, 0, 0, 0, 4, 1, 1, 0)]
    quantum[doubled] = quantum[doubled].scale(2)
    return FrobeniusPotential(potential.coords, potential.degrees, potential.classical, quantum)


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

    The coefficient series and the series derived from the pole series are
    built eight orders deep, which the defining equation's residual needs,
    and every check takes them at that depth.
    The equation is solved once, two orders deep, for both the solver check
    and the second route of the degree table, and the eta quotients are
    expanded once, in `e6_build_fi`: f_0 for the coefficients, the slope
    identity and the table, and eta(1)^3 / eta(9)^3 = 3 (a - 1) for the
    closed form and the twisted rows.
    The potential is built from the coefficients truncated to `order`, and
    WDVV is certified through that order.
    """
    from .frobenius import euler_residual, wdvv_residual

    coeffs = e6_build_fi(order + 8)
    pole = pole_series(coeffs.a)
    solved = e6_schwarzian_solve(order + 2)
    f0, quotient = coeffs.f[0], (coeffs.a - 1).scale(3)
    at_order = coeffs.truncate(order)
    potential = e6_build_potential(at_order, raw_f11_block)
    return [
        ("e6-coefficients", e6_coefficient_reports(order, pole, coeffs.f, solved)),
        ("e6-identities", e6_identity_suite(order, pole, f0, quotient)),
        ("e6-gw-table", [_gw_dual_route(order, solved, f0)]),
        ("e6-genus-one", [e6_genus_one(order, at_order).report]),
        ("e6-potential", [wdvv_residual(potential, order), euler_residual(potential)]),
    ]
