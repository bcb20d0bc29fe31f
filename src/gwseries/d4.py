"""The orbifold line with four Z/2 points: series, potential, and checks.

Three q-series drive everything here.  In the genus-zero potential they
multiply the three invariant quartic blocks of the coordinates t1..t4:

    a (four-point block t1 t2 t3 t4),   a = q + 4q^3 + 6q^5 + ...
    b (pure quartics t_i^4 / 4),        b = -1/24 + q^4 + ...
    c (mixed squares t_i^2 t_j^2 / 6),  c = 3q^2 + 6q^4 + ...

They are determined twice over: by the associativity recursion with the
normalization a_1 = 1, and in closed form from the weight-two Eisenstein
series f(q) = -1/24 + sum sigma(n) q^n as

    a = (f(q) - f(-q))/2,   b = f(q^4),   c = f - a - b.

The agreement of the two constructions, the first-order system they satisfy,
their eta-quotient forms, the theta-function bridges, and the lattice
theta-series comparison are all exposed as IdentityReports.  The builders
only build; `d4_suites` and `halphen_suites` build each series once and hand
it to the report functions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .modular import (  # noqa: F401  (eta_expand: perfbench's tracer test reads d4's binding)
    EtaQuotient,
    eta_expand,
    f_series,
    genus_one,
    halphen_reports,
    halphen_variables,
    lattice_theta,
)
from .qseries import QSeries, evaluate, solve_qdq_system
from .reporting import GenusOneResult, IdentityReport, series_match

if TYPE_CHECKING:
    from .frobenius import FrobeniusPotential

_HALF = Fraction(1, 2)


class D4Coefficients(NamedTuple):
    a: QSeries
    b: QSeries
    c: QSeries


# The first-order quadratic system associativity forces, ' = q d/dq, one
# polynomial in (a, b, c) per component (see `qseries.evaluate`):
#
#     a' =  (8/3) a c - 24 a b
#     b' = -(2/3) a^2 - (16/3) b c + (8/9) c^2
#     c' =   6 a^2 - (8/3) c^2
_D4_SYSTEM = (
    {(1, 0, 1): Fraction(8, 3), (1, 1, 0): -24},
    {(2, 0, 0): Fraction(-2, 3), (0, 1, 1): Fraction(-16, 3), (0, 0, 2): Fraction(8, 9)},
    {(2, 0, 0): 6, (0, 0, 2): Fraction(-8, 3)},
)


def d4_recursion_solve(order: int) -> D4Coefficients:
    """Solve the system `_D4_SYSTEM` equivalent to associativity.

    Its q^0 part forces c_0 = 0 and its q^1 part b_0 = -1/24 (using
    a_1 = 1); from those seeds `solve_qdq_system` isolates every later
    coefficient:

    >>> sol = d4_recursion_solve(6)
    >>> sol.a
    QSeries(q + 4q^3 + 6q^5 + O(q^6))
    >>> sol.c
    QSeries(3q^2 + 6q^4 + O(q^6))
    """
    if order < 2:
        raise ValueError("need at least two coefficients to apply a_1 = 1")
    seeds = ((0, 1), (Fraction(-1, 24), 0), (0, 0))
    return D4Coefficients(*solve_qdq_system(_D4_SYSTEM, seeds, order))


def d4_analytic(order: int) -> D4Coefficients:
    """Closed forms from the divisor-sum series f = -1/24 + sum sigma(n) q^n.

    Builds only; the comparison with the recursion and the eta forms is
    `d4_construction_reports`.
    """
    f = f_series(order)
    a = f.dissect(2, 1)
    quarter_order = -(-order // 4)
    b = f_series(quarter_order).substitute_power(4).truncate(order)
    return D4Coefficients(a, b, f - a - b)


# a, b, c as minus the log-derivatives of eta(1) * eta(2)^-3/2 * eta(4)^1/2,
# eta(4)^1/4 and eta(2)^3/2 * eta(4)^-3/4
_D4_ETA_FORMS = {
    "a": EtaQuotient(((1, Fraction(1)), (2, Fraction(-3, 2)), (4, _HALF))),
    "b": EtaQuotient(((4, Fraction(1, 4)),)),
    "c": EtaQuotient(((2, Fraction(3, 2)), (4, Fraction(-3, 4)))),
}


def d4_eta_forms(order: int) -> D4Coefficients:
    """The same three series as minus log-derivatives of the eta quotients
    `_D4_ETA_FORMS`, each from `EtaQuotient.logderiv`: the eta product and
    one series inverse, with no fractional power taken.
    """
    return D4Coefficients(*(-_D4_ETA_FORMS[field].logderiv(order) for field in ("a", "b", "c")))


def d4_ode_reports(order: int, coeffs: D4Coefficients) -> list[IdentityReport]:
    """The first-order quadratic system the three series satisfy."""
    series = (coeffs.a, coeffs.b, coeffs.c)
    return [
        series_match(f"d4-ode-{name}", s.qdq(), rhs, order)
        for name, s, rhs in zip("abc", series, evaluate(_D4_SYSTEM, series))
    ]


# The theta bridge: X_i = q d/dq log theta_i as linear polynomials in (a, b, c)
# (see `qseries.evaluate`),
#
#     X_2 = -6 b + (2/3) c,   X_3 = 2 a - (4/3) c,   X_4 = -2 a - (4/3) c
_BRIDGE = (
    {(0, 1, 0): -6, (0, 0, 1): Fraction(2, 3)},
    {(1, 0, 0): 2, (0, 0, 1): Fraction(-4, 3)},
    {(1, 0, 0): -2, (0, 0, 1): Fraction(-4, 3)},
)


def d4_theta_bridge_reports(
    order: int, coeffs: D4Coefficients, x: dict[int, QSeries]
) -> list[IdentityReport]:
    """Null-value log-derivatives X_i = q d/dq log theta_i against `_BRIDGE`."""
    return [
        series_match(f"d4-bridge-x{i}", x[i], rhs, order)
        for i, rhs in zip((2, 3, 4), evaluate(_BRIDGE, coeffs))
    ]


def d4_eta_form_reports(
    order: int, analytic: D4Coefficients, quotients: D4Coefficients
) -> list[IdentityReport]:
    """Eta-quotient log-derivative forms against the divisor-sum forms."""
    return [series_match(f"d4-eta-form-{x}", q, a, order) for x, q, a in zip("abc", quotients, analytic)]


def d4_construction_reports(
    order: int,
    analytic: D4Coefficients,
    recursive: D4Coefficients,
    quotients: D4Coefficients,
) -> list[IdentityReport]:
    """Recursion, divisor-sum forms, and eta forms all agree."""
    recursion = [series_match(f"d4-recursion-{x}", r, a, order) for x, r, a in zip("abc", recursive, analytic)]
    return recursion + d4_eta_form_reports(order, analytic, quotients)


# One row per orbit of the permutations of t1..t4: the correlator d^k F as a
# polynomial in (a, b, c) (see `qseries.evaluate`), and a representative
# monomial t^k.  `orbit_potential` divides by k!, so the terms are a t1 t2 t3 t4,
# b t_i^4 / 4 and c t_i^2 t_j^2 / 6.
_D4_QUANTUM_ROWS = (
    ({(1, 0, 0): 1}, (0, 1, 1, 1, 1, 0)),
    ({(0, 1, 0): 6}, (0, 4, 0, 0, 0, 0)),
    ({(0, 0, 1): Fraction(2, 3)}, (0, 2, 2, 0, 0, 0)),
)


def d4_build_potential(coeffs: D4Coefficients) -> FrobeniusPotential:
    """Genus-zero potential on coordinates (t0, t1..t4, t), t acting as log q."""
    from .frobenius import orbit_potential

    correlators = evaluate([polynomial for polynomial, _ in _D4_QUANTUM_ROWS], coeffs)
    return orbit_potential(
        ("t0", "t1", "t2", "t3", "t4", "t"),
        (Fraction(1), _HALF, _HALF, _HALF, _HALF, Fraction(0)),
        ((1,), (2,), (3,), (4,)),
        [((2, 0, 0, 0, 0, 1), Fraction(1)), ((1, 2, 0, 0, 0, 0), _HALF)],
        [(rep, s) for (_, rep), s in zip(_D4_QUANTUM_ROWS, correlators)],
    )


def d4_elliptic_weyl_reports(order: int, coeffs: D4Coefficients) -> list[IdentityReport]:
    """Match against the rank-four root lattice theta series.

    The flat-coordinate potential found on the root-system side carries
    h0 = (1/8) Theta_{shifted}, and h1, h2 built from Theta_{even} and the
    log-derivative of eta(q^2); these must reproduce a, b, c exactly.
    """
    theta_even, theta_shift = lattice_theta(order)
    half_logderiv = EtaQuotient(((2, _HALF),)).logderiv(order)
    h0 = theta_shift.scale(Fraction(1, 8))
    h1 = (half_logderiv + theta_even.scale(Fraction(1, 24))).scale(-_HALF)
    h2 = (half_logderiv - theta_even.scale(Fraction(1, 24))).scale(Fraction(-3, 2))
    return [
        series_match("d4-weyl-h0", h0, coeffs.a, order),
        series_match("d4-weyl-h1", h1, coeffs.b, order),
        series_match("d4-weyl-h2", h2, coeffs.c, order),
    ]


def d4_genus_one(order: int, coeffs: D4Coefficients) -> GenusOneResult:
    """Genus-one potential -(1/2) log eta(q^2), certified by `genus_one`
    against f(q^2) directly and through the genus-one Virasoro combination
    b + c/3."""
    return genus_one("d4-genus-one", order, 2, coeffs.b + coeffs.c.scale(Fraction(1, 3)))


# -- verify suites ---------------------------------------------------------------------


def d4_suites(order: int) -> list[tuple[str, list[IdentityReport]]]:
    """The `verify d4` suites, every series built once.

    The closed forms are built at `order`, and the potential built from them
    is certified by WDVV through that order.
    """
    from .frobenius import euler_residual, wdvv_residual

    s = d4_analytic(order)
    potential = d4_build_potential(s)
    return [
        (
            "d4-construction",
            d4_construction_reports(order, s, d4_recursion_solve(order), d4_eta_forms(order)),
        ),
        (
            "d4-odes-and-bridges",
            d4_ode_reports(order, s)
            + d4_theta_bridge_reports(order, s, halphen_variables(order)),
        ),
        ("d4-elliptic-weyl", d4_elliptic_weyl_reports(order, s)),
        ("d4-genus-one", [d4_genus_one(order, s).report]),
        ("d4-potential", [wdvv_residual(potential, order), euler_residual(potential)]),
    ]


def halphen_suites(order: int) -> list[tuple[str, list[IdentityReport]]]:
    """The `verify halphen` suites: the Halphen system, then the eta forms and
    theta bridges of the (2,2,2,2) series, every series built once."""
    x = halphen_variables(order)
    s = d4_analytic(order)
    return [
        ("halphen-system", halphen_reports(order, x)),
        ("eta-forms", d4_eta_form_reports(order, s, d4_eta_forms(order))),
        ("theta-bridges", d4_theta_bridge_reports(order, s, x)),
    ]
