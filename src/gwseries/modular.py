"""Named modular objects as exact q-expansions.

Divisor sums, the weight-two quasi-modular series f(q), Dedekind eta and eta
quotients, Jacobi theta constants with their Halphen system, lattice theta
functions for the even-sum sublattice of Z^4, and the classical tower
E4 -> Delta -> j -> J.  Everything is a QSeries with exact coefficients.
A fractional q-power prefactor stays where it is known: an eta quotient's
q^offset in `EtaQuotient.offset`, beside its unit, and theta_2's 2 q^(1/4)
in `theta_logderiv`.  Identity checks come back as IdentityReports.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .exact_arith import Frozen, exact
from .qseries import QSeries, ValuationNotDivisible
from .reporting import GenusOneResult, IdentityReport, failure_report, series_match

# -- divisor sums -------------------------------------------------------------

SIGMA_DOUBLING_N_MAX = 10_000


def _sigma_sieve(n_max: int, power: int = 1) -> list[int]:
    """sigma(n, power) for 0 <= n <= n_max, with 0 in entry 0, by a sieve
    over the divisor pairs n = d k with d <= k: for each d <= sqrt(n_max) one
    slice adds d^power + k^power at d*d, d*(d+1), ..., and d*d, where k = d,
    gives the second d^power back."""
    sums = [0] * (n_max + 1)
    powers = range(n_max + 1) if power == 1 else [k**power for k in range(n_max + 1)]
    for d in range(1, math.isqrt(n_max) + 1):
        dp = powers[d]
        sums[d * d :: d] = [s + dp + kp for s, kp in zip(sums[d * d :: d], powers[d : n_max // d + 1])]
        sums[d * d] -= dp
    return sums


def f_series(truncation: int) -> QSeries:
    """The logarithmic eta derivative -1/24 + sum sigma(n) q^n.

    >>> f_series(4).coefficient(0)
    Fraction(-1, 24)
    >>> f_series(4).coefficient(2)
    Fraction(3, 1)
    """
    if truncation < 1:
        raise ValueError("order must be >= 1")
    coeffs = [Fraction(-1, 24)] + [Fraction(s) for s in _sigma_sieve(truncation - 1)[1:]]
    return QSeries(coeffs, 0, truncation)


# -- eta quotients --------------------------------------------------------------


def _eta_unit_coeffs(scale: int, truncation: int) -> list[int]:
    """Integer coefficients of prod_{n>=1} (1 - x^n), x = q^scale, through
    q^(T-1), by Euler's pentagonal theorem: the product is the sum of
    (-1)^k x^(k(3k-1)/2) over all integers k."""
    cs = [0] * truncation
    k = 0
    while (pentagonal := scale * k * (3 * k - 1) // 2) < truncation:
        for exponent in (pentagonal, pentagonal + scale * k):  # k and -k
            if exponent < truncation:
                cs[exponent] = -1 if k % 2 else 1
        k += 1
    return cs


def eta_unit(scale: int, truncation: int) -> QSeries:
    """The unit part prod (1 - q^(scale*n)) of eta(q^scale)."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    return QSeries(_eta_unit_coeffs(scale, truncation), 0, truncation)


@functools.lru_cache(maxsize=None)
def _eta_logderiv_unit(truncation: int) -> QSeries:
    """L = q d/dq log prod (1 - q^n) through O(q^truncation), from the
    pentagonal unit and one inverse; never from the divisor sieve, which
    `divisor-sum-vs-eta-logderiv` and `d4-eta-form-*` check it against."""
    u = eta_unit(1, truncation)
    return u.qdq() * u.inv()


class EtaQuotient(Frozen):
    """A finite product prod eta(q^m)^r with exact rational exponents r,
    that is q^offset times the unit prod (1 - q^(m n))^r, since
    eta(q^m) = q^(m/24) prod (1 - q^(m n))."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, Fraction], ...]):
        factors = tuple((int(m), Fraction(exact(r))) for m, r in factors)
        # this validates input: the command line reaches it through `parse`
        for m, _ in factors:
            if m < 1:
                raise ValueError(f"eta scale must be positive, got {m}")
        self._freeze(tuple((m, r) for m, r in factors if r))  # eta(q^m)^0 = 1 is not stored

    @property
    def offset(self) -> Fraction:
        return sum((Fraction(m) * r / 24 for m, r in self.factors), Fraction(0))

    def unit(self, truncation: int) -> QSeries:
        """The quotient without its q^offset, through O(q^truncation)."""
        units = [eta_unit(m, truncation).pow_rational(r) for m, r in self.factors]
        return functools.reduce(QSeries.__mul__, units) if units else QSeries.one(truncation)

    def expand(self, truncation: int) -> QSeries:
        """q^offset times `unit(truncation)`, known through
        O(q^(offset + truncation)); the offset must be an integer."""
        if self.offset.denominator != 1:
            raise ValuationNotDivisible(f"offset {self.offset} is not an integer")
        return self.unit(truncation).shift(int(self.offset))

    def logderiv(self, truncation: int) -> QSeries:
        """q d/dq log of the quotient through O(q^truncation), never expanded.

        The log-derivative is additive over products and homogeneous over
        powers, and the unit of eta(q^m) is u_1(q^m) for u_1 = prod (1 - q^n),
        so with L = q d/dq log u_1 = (q du_1/dq) / u_1,

            q d/dq log prod eta(q^m)^(r_m) = offset + sum r_m m L(q^m).

        L is `_eta_logderiv_unit` at the same truncation, shared by every
        log-derivative taken there.  The result equals
        offset + (q du/dq) / u for the expanded u = `unit(truncation)`,
        stored form included:

        >>> EtaQuotient(((1, Fraction(24)),)).logderiv(4)   # E_2
        QSeries(1 - 24q - 72q^2 - 96q^3 + O(q^4))
        >>> quotient = EtaQuotient.parse("eta(2)^-3/2 * eta(4)^1/2")
        >>> u = quotient.unit(30)
        >>> quotient.logderiv(30) == u.qdq() * u.inv() + quotient.offset
        True
        """
        L = _eta_logderiv_unit(truncation)
        out = QSeries.constant(self.offset, truncation)
        for m, r in self.factors:
            out = out + L.substitute_power(m).truncate(truncation).scale(r * m)
        return out

    _FACTOR_RE = re.compile(r"^eta\((\d+)\)(?:\^(-?\d+(?:/\d+)?))?$")

    @classmethod
    def parse(cls, text: str) -> "EtaQuotient":
        """Parse the textual form "eta(9)^3 * eta(3)^-1".

        >>> EtaQuotient.parse("eta(2)^-3/2 * eta(1)").factors
        ((2, Fraction(-3, 2)), (1, Fraction(1, 1)))
        """
        factors = []
        for piece in text.split("*"):
            piece = piece.strip()
            m = cls._FACTOR_RE.match(piece)
            if not m:
                raise ValueError(f"cannot parse eta factor {piece!r}")
            try:
                exponent = Fraction(m.group(2) or 1)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in the exponent of {piece!r}") from None
            factors.append((int(m.group(1)), exponent))
        return cls(tuple(factors))

    def __str__(self):
        """The factors joined by ' * '; the empty quotient is '1'."""
        return " * ".join(f"eta({m})" if r == 1 else f"eta({m})^{r}" for m, r in self.factors) or "1"


# a thin wrapper, but perfbench's tracer counts its calls (modular.eta_expand.*)
def eta_expand(quotient: EtaQuotient | str, truncation: int) -> QSeries:
    if isinstance(quotient, str):
        quotient = EtaQuotient.parse(quotient)
    return quotient.expand(truncation)


# -- Jacobi theta constants and the Halphen system ---------------------------------


def theta_jacobi(which: int, truncation: int) -> QSeries:
    """Theta constant as a lattice sum over m in Z.

    which=2: 1 + q^2 + q^6 + ..., theta_2 = sum q^((m+1/2)^2) without its
             prefactor 2 q^(1/4), which `theta_logderiv` accounts for
    which=3: sum q^(m^2)
    which=4: sum (-1)^m q^(m^2)

    The constant term is known only from truncation 1 on.
    """
    if which not in (2, 3, 4):
        raise ValueError("theta index must be 2, 3, or 4")
    if truncation < 1:
        raise ValueError(f"theta constants need truncation >= 1, not {truncation}")
    if which == 2:
        # (m+1/2)^2 = 1/4 + m(m+1); m and -(m+1) pair up
        entries: dict[int, int] = {}
        m = 0
        while m * (m + 1) < truncation:
            entries[m * (m + 1)] = 1
            m += 1
        return QSeries.from_coefficient_map(entries, truncation)
    entries = {0: 1}
    m = 1
    while m * m < truncation:
        entries[m * m] = 2 if which == 3 else (2 if m % 2 == 0 else -2)
        m += 1
    return QSeries.from_coefficient_map(entries, truncation)


# a one-liner, but perfbench's tracer counts its calls (modular.theta_logderiv.*)
def theta_logderiv(which: int, truncation: int) -> QSeries:
    """X_i = q d/dq log theta_i, the Halphen variables; theta_2's prefactor
    2 q^(1/4) adds 1/4."""
    theta = theta_jacobi(which, truncation)
    return theta.qdq() * theta.inv() + (Fraction(1, 4) if which == 2 else 0)


def halphen_variables(truncation: int) -> dict[int, QSeries]:
    """All three Halphen variables, keyed by theta index 2, 3, 4."""
    return {i: theta_logderiv(i, truncation) for i in (2, 3, 4)}


# theta_2 = 2*eta(q^2)^-1*eta(q^4)^2 carries the scalar 2, which the
# log-derivative never sees, so the quotients are stored without scalars.
_THETA_ETA_FORMS = {
    2: EtaQuotient(((2, Fraction(-1)), (4, Fraction(2)))),
    3: EtaQuotient(((1, Fraction(-2)), (2, Fraction(5)), (4, Fraction(-2)))),
    4: EtaQuotient(((1, Fraction(2)), (2, Fraction(-1)))),
}


def theta_eta_reports(truncation: int, x: dict[int, QSeries]) -> list[IdentityReport]:
    """X_i from the theta sum against the log-derivative of its eta-quotient
    form (`EtaQuotient.logderiv`, from the eta product and one inverse),
    i = 2, 3, 4."""
    return [
        series_match(f"theta-eta-x{i}", x[i], _THETA_ETA_FORMS[i].logderiv(truncation), truncation)
        for i in (2, 3, 4)
    ]


def halphen_reports(truncation: int, x: dict[int, QSeries]) -> list[IdentityReport]:
    """The three Halphen equations plus the theta-eta forms, as separate reports."""
    out = []
    for i, j in ((2, 3), (3, 4), (4, 2)):
        lhs = (x[i] + x[j]).qdq().scale(Fraction(1, 2))
        rhs = (x[i] * x[j]).scale(2)
        out.append(series_match(f"halphen-x{i}x{j}", lhs, rhs, truncation, indices=(i, j)))
    out.extend(theta_eta_reports(truncation, x))
    return out


# -- lattice theta functions ---------------------------------------------------


def lattice_theta(truncation: int) -> tuple[QSeries, QSeries]:
    """Sums of q^(x,x), for norms below the truncation, over the even-sum
    lattice M = {x in Z^4 : sum x_i even} and over its coset M + (1,0,0,0).

    theta_3^4 counts all of Z^4 by norm, and membership is a parity
    condition on the coordinate sum, which the norm reads off: x_i^2 = x_i
    (mod 2), so (x,x) = sum x_i (mod 2).  The even-sum lattice is the part of
    theta_3^4 at even exponents and the coset the part at odd ones:

    >>> lattice_theta(4)
    (QSeries(1 + 24q^2 + O(q^4)), QSeries(8q + 32q^3 + O(q^4)))
    """
    # a theta constant needs its constant term known, so build at least to O(q)
    theta = theta_jacobi(3, max(truncation, 1)) ** 4
    return theta.dissect(2, 0).truncate(truncation), theta.dissect(2, 1).truncate(truncation)


# -- Eisenstein series, Delta, j, J ------------------------------------------------


def eisenstein_e4(truncation: int) -> QSeries:
    coeffs = [Fraction(1)] + [Fraction(240 * s) for s in _sigma_sieve(truncation - 1, 3)[1:]]
    return QSeries(coeffs, 0, truncation)


def delta_series(truncation: int) -> QSeries:
    """The weight-12 cusp form eta(q)^24 = q - 24q^2 + 252q^3 - ..."""
    return EtaQuotient(((1, Fraction(24)),)).expand(truncation).truncate(truncation)


def j_series(truncation: int) -> QSeries:
    """j = E4^3 / Delta = q^-1 + 744 + 196884q + ..., known through q^(T-1)."""
    slack = truncation + 2
    num = eisenstein_e4(slack) ** 3
    den = delta_series(slack)
    return (num * den.inv()).truncate(truncation)


def J_series(truncation: int) -> QSeries:
    """J(q) = j(q^3)/1728, a Laurent series with valuation -3."""
    inner = j_series(truncation // 3 + 2)
    return inner.substitute_power(3).scale(Fraction(1, 1728)).truncate(truncation)


# -- genus one ---------------------------------------------------------------------


def genus_one(name: str, order: int, scale: int, virasoro: QSeries) -> GenusOneResult:
    """Genus-one potential -(1/scale) log eta(q^scale), split into its log q
    coefficient (-1/24) and a power series, with two certificates: its
    q d/dq (`-derivative`) and the model's genus-one Virasoro combination of
    its coefficient series (`-virasoro`) must both be f(q^scale)."""
    linear = Fraction(-1, 24)  # -(1/scale) times the q^(scale/24) of eta(q^scale)
    series = eta_unit(scale, order).log_unit().scale(Fraction(-1, scale))
    f_scaled = f_series(-(-order // scale)).substitute_power(scale).truncate(order)
    derivative = QSeries.constant(linear, order) + series.qdq()
    checks = [series_match(f"{name}-{side}", lhs, f_scaled, order)
              for side, lhs in (("derivative", derivative), ("virasoro", virasoro))]
    failed = next((check for check in checks if not check.passed), None)
    report = IdentityReport(name, order) if failed is None else failed._replace(name=f"{name}[{failed.name}]")
    return GenusOneResult(linear, series, report)


# -- modular identity suite ---------------------------------------------------------


def verify_f_eta(truncation: int) -> IdentityReport:
    """f(q) built from divisor sums against -q d/dq log eta(q)."""
    lhs = f_series(truncation)
    rhs = -EtaQuotient(((1, Fraction(1)),)).logderiv(truncation)
    return series_match("divisor-sum-vs-eta-logderiv", lhs, rhs, truncation)


def verify_even_part(truncation: int) -> IdentityReport:
    """(f(q) + f(-q))/2 = 3 f(q^2) - 2 f(q^4): the even part of f."""
    f = f_series(truncation)
    lhs = f.dissect(2, 0)
    base = f_series(truncation // 2 + 1)
    rhs = base.substitute_power(2).scale(3) - f_series(truncation // 4 + 1).substitute_power(4).scale(2)
    return series_match("even-part-halving", lhs, rhs, truncation)


def verify_sigma_doubling() -> IdentityReport:
    """sigma(4n) = 3 sigma(2n) - 2 sigma(n) for all n <= SIGMA_DOUBLING_N_MAX."""
    n_max = SIGMA_DOUBLING_N_MAX
    sums = _sigma_sieve(4 * n_max)
    for n in range(1, n_max + 1):
        residual = sums[4 * n] - 3 * sums[2 * n] + 2 * sums[n]
        if residual:
            return failure_report("sigma-doubling", n_max, (n,), n, Fraction(residual))
    return IdentityReport("sigma-doubling", n_max)


def verify_eta_product_rotation(truncation: int) -> IdentityReport:
    """Rotated eta product:

        zeta_24 * eta(q) eta(q w^-1) eta(q w^-2) eta(q^9) = eta(q^3)^4,

    where w = zeta_3 = exp(2 pi i/3) and each twist q -> q w^-k carries the
    branch zeta_72^-k for the 24th root in the prefactor.  The roots of unity
    multiply to zeta_72^(3 - 1 - 2) = 1, so both prefactors are q^(1/2),
    compared first.  With A_r the terms of the rational eta unit u with
    exponent r mod 3 (`dissect`), u(w^-1 q) = A_0 + w^2 A_1 + w A_2 = x + w y
    for x = A_0 - A_1 and y = A_2 - A_1, since w^2 = -1 - w.  Its twist by
    w^-2 is the conjugate x + w^2 y, so the two multiply to the norm
    x^2 - xy + y^2 = (x - y)^2 + xy, a rational series: the left unit is
    four rational products.
    """
    name = "eta-product-rotation"
    lhs, rhs = EtaQuotient(((1, Fraction(3)), (9, Fraction(1)))), EtaQuotient(((3, Fraction(4)),))
    if lhs.offset != rhs.offset:
        return failure_report(name, truncation, (), 0, f"offset {lhs.offset} != {rhs.offset}")
    unit, unit_nine = eta_unit(1, truncation), eta_unit(9, truncation)
    a0, a1, a2 = (unit.dissect(3, r) for r in range(3))
    x, y = a0 - a1, a2 - a1
    norm = (x - y) ** 2 + x * y
    return series_match(name, norm * (unit * unit_nine), rhs.unit(truncation), truncation)


def verify_cusp_form_from_j(truncation: int, J: QSeries, discriminant: QSeries) -> IdentityReport:
    """(q dJ/dq)^6 / (2^6 3^9 J^4 (J-1)^3) = eta(q^3)^24, from the series
    J = `J_series` and `discriminant` = eta(q^3)^24 through the truncation."""
    one = QSeries.one(truncation)
    num = J.qdq() ** 6
    den = (J**4 * (J - one) ** 3).scale(Fraction(2**6 * 3**9))
    lhs = num * den.inv()
    return series_match("cusp-form-weight12", lhs, discriminant, truncation)


def modular_reports(truncation: int) -> list[IdentityReport]:
    """The whole modular identity suite, every q-series check at one order."""
    discriminant = EtaQuotient(((3, Fraction(24)),)).expand(truncation)
    return [
        verify_f_eta(truncation),
        verify_even_part(truncation),
        verify_sigma_doubling(),
        *halphen_reports(truncation, halphen_variables(truncation)),
        verify_eta_product_rotation(truncation),
        verify_cusp_form_from_j(truncation, J_series(truncation), discriminant),
    ]
