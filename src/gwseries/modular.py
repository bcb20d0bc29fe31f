"""Named modular objects as exact q-expansions.

Divisor sums, the weight-two quasi-modular series f(q), Dedekind eta and eta
quotients, Jacobi theta constants with their Halphen system, lattice theta
functions for the even-sum sublattice of Z^4, and the classical tower
E4 -> Delta -> j -> J.  Everything is a QSeries or PuiseuxSeries with exact
coefficients; identity checks come back as IdentityReports.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from .exact_arith import CyclotomicNumber, Frozen
from .qseries import PuiseuxSeries, QSeries
from .reporting import (
    GenusOneResult,
    IdentityReport,
    combine,
    failure_report,
    pass_report,
    puiseux_match,
    series_match,
)

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


def sigma(n: int, power: int = 1) -> int:
    """Sum of the `power`-th powers of the positive divisors of n.

    >>> sigma(6)
    12
    >>> sigma(10) == 3 * sigma(5)
    True
    """
    if n < 1:
        raise ValueError("sigma is defined for positive integers")
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += d**power
            if d * d != n:
                total += (n // d) ** power
    return total


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


def dedekind_eta(truncation: int, scale: int = 1) -> PuiseuxSeries:
    """eta(q^scale) = q^(scale/24) * prod (1 - q^(scale*n))."""
    return PuiseuxSeries(1, Fraction(scale, 24), eta_unit(scale, truncation))


class EtaQuotient(Frozen):
    """A finite product prod eta(q^m)^r with exact rational exponents r."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, Fraction], ...]):
        factors = tuple((int(m), Fraction(r)) for m, r in factors)
        # these validate input: the command line reaches them through `parse`
        for m, r in factors:
            if m < 1:
                raise ValueError(f"eta scale must be positive, got {m}")
            if r == 0:
                raise ValueError("zero exponents are not stored")
        self._freeze(factors)

    @property
    def offset(self) -> Fraction:
        return sum((Fraction(m) * r / 24 for m, r in self.factors), Fraction(0))

    def expand(self, truncation: int) -> PuiseuxSeries:
        unit = QSeries.one(truncation)
        for m, r in self.factors:
            base = eta_unit(m, truncation)
            if r.denominator == 1:
                unit = unit * base ** int(r)
            else:
                unit = unit * base.pow_rational(r)
        return PuiseuxSeries(1, self.offset, unit)

    def logderiv(self, truncation: int) -> QSeries:
        """q d/dq log of the quotient through O(q^truncation), never expanded.

        The log-derivative is additive over products and homogeneous over
        powers, and the unit of eta(q^m) is u_1(q^m) for u_1 = prod (1 - q^n),
        so with L = q d/dq log u_1 = (q du_1/dq) / u_1,

            q d/dq log prod eta(q^m)^(r_m) = offset + sum r_m m L(q^m).

        L is `_eta_logderiv_unit` at the same truncation, shared by every
        log-derivative taken there.  The result equals
        `expand(truncation).logderiv()`, stored form included:

        >>> EtaQuotient(((1, Fraction(24)),)).logderiv(4)   # E_2
        QSeries(1 - 24q - 72q^2 - 96q^3 + O(q^4))
        >>> quotient = EtaQuotient.parse("eta(2)^-3/2 * eta(4)^1/2")
        >>> quotient.logderiv(30) == quotient.expand(30).logderiv()
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
        if not factors:
            raise ValueError("empty eta quotient")
        return cls(tuple(factors))

    def __str__(self):
        return " * ".join(
            f"eta({m})" if r == 1 else f"eta({m})^{r}" for m, r in self.factors
        )


# a thin wrapper, but perfbench's tracer counts its calls (modular.eta_expand.*)
def eta_expand(quotient: EtaQuotient | str, truncation: int) -> PuiseuxSeries:
    if isinstance(quotient, str):
        quotient = EtaQuotient.parse(quotient)
    return quotient.expand(truncation)


# -- Jacobi theta constants and the Halphen system ---------------------------------


def theta_jacobi(which: int, truncation: int) -> PuiseuxSeries:
    """Theta constant as a lattice sum over m in Z.

    which=2: sum q^((m+1/2)^2) = 2 q^(1/4) (1 + q^2 + q^6 + ...)
    which=3: sum q^(m^2)
    which=4: sum (-1)^m q^(m^2)

    The unit's constant term is known only from truncation 1 on.
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
        return PuiseuxSeries(2, Fraction(1, 4), QSeries.from_coefficient_map(entries, truncation))
    entries = {0: 1}
    m = 1
    while m * m < truncation:
        entries[m * m] = 2 if which == 3 else (2 if m % 2 == 0 else -2)
        m += 1
    return PuiseuxSeries(1, Fraction(0), QSeries.from_coefficient_map(entries, truncation))


# a one-liner, but perfbench's tracer counts its calls (modular.theta_logderiv.*)
def theta_logderiv(which: int, truncation: int) -> QSeries:
    """X_i = q d/dq log theta_i, the Halphen variables."""
    return theta_jacobi(which, truncation).logderiv()


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

    Membership is a parity condition on the coordinate sum, and
    (-1)^(sum x_i) = prod (-1)^(x_i) splits over the coordinates, so theta_3^4
    counts all of Z^4, theta_4^4 the even sums minus the odd ones, and the
    two cosets are (theta_3^4 + theta_4^4)/2 and (theta_3^4 - theta_4^4)/2:

    >>> lattice_theta(4)
    (QSeries(1 + 24q^2 + O(q^4)), QSeries(8q + 32q^3 + O(q^4)))
    """
    # a theta constant needs its constant term known, so build at least to O(q)
    theta3, theta4 = (theta_jacobi(i, max(truncation, 1)).to_qseries() ** 4 for i in (3, 4))
    even, shifted = ((theta3 + theta4.scale(sign)).scale(Fraction(1, 2)) for sign in (1, -1))
    return even.truncate(truncation), shifted.truncate(truncation)


# -- Eisenstein series, Delta, j, J ------------------------------------------------


def eisenstein_e4(truncation: int) -> QSeries:
    coeffs = [Fraction(1)] + [Fraction(240 * s) for s in _sigma_sieve(truncation - 1, 3)[1:]]
    return QSeries(coeffs, 0, truncation)


def delta_series(truncation: int) -> QSeries:
    """The weight-12 cusp form eta(q)^24 = q - 24q^2 + 252q^3 - ..."""
    return EtaQuotient(((1, Fraction(24)),)).expand(truncation).to_qseries().truncate(truncation)


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
    eta = dedekind_eta(order, scale=scale)
    linear = eta.offset * Fraction(-1, scale)
    series = eta.unit.log_unit().scale(Fraction(-1, scale))
    f_scaled = f_series(-(-order // scale)).substitute_power(scale).truncate(order)
    derivative = QSeries.constant(linear, order) + series.qdq()
    report = combine(
        name,
        [
            series_match(f"{name}-derivative", derivative, f_scaled, order),
            series_match(f"{name}-virasoro", virasoro, f_scaled, order),
        ],
    )
    return GenusOneResult(linear, series, report)


# -- modular identity suite ---------------------------------------------------------


def verify_f_eta(truncation: int) -> IdentityReport:
    """f(q) built from divisor sums against -q d/dq log eta(q)."""
    lhs = f_series(truncation)
    rhs = -EtaQuotient(((1, Fraction(1)),)).logderiv(truncation)
    return series_match("divisor-sum-vs-eta-logderiv", lhs, rhs, truncation)


def verify_even_part(truncation: int) -> IdentityReport:
    """(f(q) + f(-q))/2 = 3 f(q^2) - 2 f(q^4)."""
    f = f_series(truncation)
    lhs = (f + f.twist(-1)).scale(Fraction(1, 2))
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
    return pass_report("sigma-doubling", n_max)


def verify_eta_product_rotation(truncation: int) -> IdentityReport:
    """Rotated eta product:

        zeta_24 * eta(q) eta(q w^-1) eta(q w^-2) eta(q^9) = eta(q^3)^4,

    where w = zeta_3 = exp(2 pi i/3) and each twist q -> q w^-k carries the
    branch zeta_72^-k for the 24th root in the prefactor.  The series are
    over Q(zeta_3); only the scalars need Q(zeta_72).
    """
    z = CyclotomicNumber.zeta(72)
    eta = dedekind_eta(truncation)
    lhs = (
        eta
        * eta.twist(CyclotomicNumber.zeta(3, -1), branch=z ** (-1))
        * eta.twist(CyclotomicNumber.zeta(3, -2), branch=z ** (-2))
        * dedekind_eta(truncation, scale=9)
        * z**3
    )
    rhs = EtaQuotient(((3, Fraction(4)),)).expand(truncation)
    return puiseux_match("eta-product-rotation", lhs, rhs, truncation)


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
    discriminant = EtaQuotient(((3, Fraction(24)),)).expand(truncation).to_qseries()
    return [
        verify_f_eta(truncation),
        verify_even_part(truncation),
        verify_sigma_doubling(),
        *halphen_reports(truncation, halphen_variables(truncation)),
        verify_eta_product_rotation(truncation),
        verify_cusp_form_from_j(truncation, J_series(truncation), discriminant),
    ]
