"""Truncated Laurent series in q with exact coefficients.

A QSeries stores finitely many exact coefficients together with a truncation
order T: coefficients at exponents >= T are unknown, not zero.  Every
operation propagates the truncation honestly, so a computed coefficient is
always a theorem about the underlying series.

Coefficients lie in Q and are stored as in FLINT's fmpq_poly: integer
numerators `coeffs`, one per exponent, over one positive `den`, in canonical
form (gcd(den, *coeffs) == 1, no zero at either end).  Arithmetic is integer
arithmetic with one denominator update and one gcd; products go through
`int_convolve`, inverses and powers that are not nonnegative integers through
one recurrence (`_power`), and both step only through the residue class that
the nonzero coefficients occupy, every g-th exponent, g read from the
numerators.  Fractions only enter and leave at the boundary:
the constructor, `from_coefficient_map`, `coefficient`, `known_terms`,
`leading`, `format_series` and `to_json_dict`.

There is no other coefficient field.  A twist q -> w q by a root of unity w
of order m multiplies the terms with exponent r mod m (`dissect`) by w^r, so
an identity of twisted series is a statement about the m parts of rational
series, with the powers of w kept as exponents by the caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

from .exact_arith import Frozen, int_convolve, rational_nth_root

_SCALARS = (int, Fraction)
_ONE = Fraction(1)


class QSeriesError(ArithmeticError):
    """Base class for series arithmetic failures."""


class ZeroDivisor(QSeriesError):
    """Inversion of a series with no known nonzero coefficient."""


class NotUnit(QSeriesError):
    """Logarithm or exponential precondition violated."""


class ValuationNotDivisible(QSeriesError):
    """Root or rescaling demanded an exponent the grading cannot supply."""


class LeadingCoefficientNotPower(QSeriesError):
    """Leading coefficient has no exact root in the coefficient field."""


class PrecisionError(QSeriesError):
    """A coefficient beyond the truncation order was requested."""


class QSeries(Frozen):
    """Exact Laurent series known through q^(truncation-1).

    Stored as (den, valuation, coeffs, truncation) in the canonical form of
    the module docstring; the constructor takes exact values.

    >>> s = QSeries([1, -1, 0, 2], valuation=-1, truncation=5)
    >>> s
    QSeries(q^-1 - 1 + 2q^2 + O(q^5))
    >>> s.coefficient(2)
    Fraction(2, 1)
    >>> (s * s).truncation
    4
    >>> s + QSeries.one(3) == s.truncate(3) + 1
    True
    >>> h = QSeries([Fraction(1, 2), Fraction(-1, 3)], 0, 3)
    >>> (h.den, h.coeffs)
    (6, (3, -2))
    """

    __slots__ = ("den", "valuation", "coeffs", "truncation")

    def __new__(cls, coeffs: Iterable[Fraction | int], valuation: int = 0, truncation: int | None = None):
        values = [c if isinstance(c, _SCALARS) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in values))
        if truncation is None:
            truncation = valuation + len(values)
        return cls._make(den, valuation, [c.numerator * (den // c.denominator) for c in values], truncation)

    @classmethod
    def _make(cls, den: int, valuation: int, coeffs: Sequence[int], truncation: int):
        """The series with these fields in canonical form: zero ends dropped,
        the common factor of den and the numerators divided out.  Every
        series is made here, because equality compares the fields."""
        lo, hi = 0, len(coeffs)
        while lo < hi and not coeffs[lo]:
            lo += 1
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        valuation += lo
        if lo == hi:
            valuation, den = truncation, 1
        elif valuation + hi - lo > truncation:
            raise ValueError("coefficients extend past the truncation order")
        coeffs = tuple(coeffs[lo:hi])
        if den > 1 and (g := math.gcd(den, *coeffs)) > 1:
            den //= g
            coeffs = tuple([x // g for x in coeffs])
        series = object.__new__(cls)
        _set_den(series, den)
        _set_valuation(series, valuation)
        _set_coeffs(series, coeffs)
        _set_truncation(series, truncation)
        return series

    def _replace(self, den=None, valuation=None, coeffs=None, truncation=None) -> "QSeries":
        """A copy with the fields given replaced, brought to canonical form."""
        return QSeries._make(
            self.den if den is None else den, self.valuation if valuation is None else valuation,
            self.coeffs if coeffs is None else coeffs, self.truncation if truncation is None else truncation)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "QSeries":
        return cls((), truncation, truncation)

    @classmethod
    def one(cls, truncation: int) -> "QSeries":
        return cls.constant(1, truncation)

    @classmethod
    def constant(cls, value: Fraction | int, truncation: int) -> "QSeries":
        return cls.monomial(value, 0, truncation)

    @classmethod
    def monomial(cls, value: Fraction | int, exponent: int, truncation: int) -> "QSeries":
        if exponent >= truncation:
            # the term sits in the unknown tail; only O(q^T) remains
            return cls.zero(truncation)
        return cls((value,), exponent, truncation)

    @classmethod
    def from_coefficient_map(cls, entries: Mapping[int, Fraction | int], truncation: int) -> "QSeries":
        if not entries:
            return cls.zero(truncation)
        lo = min(entries)
        cs: list = [0] * (max(entries) + 1 - lo)
        for e, c in entries.items():
            cs[e - lo] = c
        return cls(cs, lo, truncation)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes (zero through O(q^T))."""
        return not self.coeffs

    def coefficient(self, exponent: int) -> Fraction:
        if exponent >= self.truncation:
            raise PrecisionError(f"coefficient of q^{exponent} unknown at truncation {self.truncation}")
        i = exponent - self.valuation
        return Fraction(self.coeffs[i] if 0 <= i < len(self.coeffs) else 0, self.den)

    def known_terms(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        for i, x in enumerate(self.coeffs):
            if x:
                yield self.valuation + i, Fraction(x, self.den)

    def leading(self) -> tuple[int, Fraction]:
        if not self.coeffs:
            raise ZeroDivisor("series is zero to its truncation order")
        return self.valuation, Fraction(self.coeffs[0], self.den)

    def truncate(self, truncation: int) -> "QSeries":
        """Forget coefficients at exponents >= truncation; at its own
        truncation the series is returned itself, as it is immutable."""
        if truncation == self.truncation:
            return self
        if truncation > self.truncation:
            raise PrecisionError(f"cannot extend truncation {self.truncation} to {truncation}")
        keep = max(0, truncation - self.valuation)
        return self._replace(coeffs=self.coeffs[:keep], truncation=truncation)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return self._replace(valuation=self.valuation + k, truncation=self.truncation + k)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = QSeries.constant(other, self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = (self, other) if self.valuation <= other.valuation else (other, self)
        t = min(a.truncation, b.truncation)
        if a.is_zero():
            return b.truncate(t)
        if b.is_zero():
            return a.truncate(t)
        lo, hi = a.valuation, min(t, max(a.valuation + len(a.coeffs), b.valuation + len(b.coeffs)))
        den = math.lcm(a.den, b.den)
        xs, ys = (s.coeffs[: max(0, hi - s.valuation)] for s in (a, b))
        if a.den < den:
            xs = [x * (den // a.den) for x in xs]
        if b.den < den:
            ys = [y * (den // b.den) for y in ys]
        # a starts at lo, so out is xs padded to hi, and ys adds in at its offset
        i, out = b.valuation - lo, list(xs) + [0] * (hi - lo - len(xs))
        out[i : i + len(ys)] = map(add, out[i : i + len(ys)], ys)
        return QSeries._make(den, lo, out, t)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QSeries, *_SCALARS)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._replace(coeffs=[-x for x in self.coeffs])

    def scale(self, scalar: Fraction | int) -> "QSeries":
        c = scalar if isinstance(scalar, _SCALARS) else Fraction(scalar)
        if c == 1:
            return self
        p = c.numerator
        return self._replace(den=self.den * c.denominator, coeffs=[x * p for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self, other
        # O(q^Ta) * q^vb and q^va * O(q^Tb) bound what the product can know.
        t = min(a.truncation + b.valuation, b.truncation + a.valuation)
        if a.is_zero() or b.is_zero():
            return QSeries._make(1, t, (), t)
        v = a.valuation + b.valuation
        return QSeries._make(a.den * b.den, v, int_convolve(a.coeffs, b.coeffs, t - v), t)

    __rmul__ = __mul__

    def inv(self) -> "QSeries":
        """Multiplicative inverse, with the relative precision preserved.

        >>> g = QSeries([1, -1], 0, 8).inv()   # 1/(1-q)
        >>> list(c for _, c in g.known_terms()) == [Fraction(1)] * 8
        True
        """
        return self._power(-_ONE)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self._power(Fraction(exponent))
        if exponent == 0:
            return QSeries.one(self.truncation - self.valuation + max(self.valuation, 0))
        if exponent == 1:
            return self
        square = self ** (exponent // 2)
        square = square * square
        return square * self if exponent & 1 else square

    # -- calculus and structure ----------------------------------------------

    def qdq(self) -> "QSeries":
        """The operator q d/dq, acting termwise as c_n -> n c_n."""
        v = self.valuation
        return self._replace(coeffs=list(map(mul, self.coeffs, range(v, v + len(self.coeffs)))))

    def substitute_power(self, m: int) -> "QSeries":
        """Replace q by q^m (m >= 1); exponents and truncation scale by m."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        flat = [0] * (len(self.coeffs) * m)
        flat[::m] = self.coeffs
        return self._replace(valuation=self.valuation * m, coeffs=flat, truncation=self.truncation * m)

    def dissect(self, m: int, r: int) -> "QSeries":
        """The terms whose exponent is r mod m; a series is the sum of its m parts.

        >>> QSeries([1, 2, 3, 4, 5], -1, 6).dissect(3, 2)
        QSeries(q^-1 + 4q^2 + O(q^6))
        """
        start = (r - self.valuation) % m
        out = [0] * len(self.coeffs)
        out[start::m] = self.coeffs[start::m]
        return self._replace(coeffs=out)

    def log_unit(self) -> "QSeries":
        """Logarithm of a unit with constant term exactly 1.

        From q dL/dq = (q du/dq) / u; the division by n is one denominator
        update by lcm(1, ..., T-1).

        >>> u = QSeries([1, 1], 0, 6)          # 1 + q
        >>> (u.log_unit() - QSeries([1, Fraction(-1,2), Fraction(1,3), Fraction(-1,4), Fraction(1,5)], 1, 6)).is_zero()
        True
        """
        if self.valuation != 0 or self.coeffs[:1] != (self.den,):
            raise NotUnit("log requires constant term exactly 1")
        d = self.qdq() * self.inv()
        lcm = math.lcm(*range(1, self.truncation))
        cs = [x * (lcm // (d.valuation + i)) for i, x in enumerate(d.coeffs)]
        return QSeries._make(d.den * lcm, d.valuation, cs, self.truncation)

    def pow_rational(self, r: Fraction) -> "QSeries":
        """Raise to an exact rational power.

        The valuation times r must be an integer and the leading coefficient
        must admit an exact rational root; otherwise the result would leave
        the Laurent model over Q.  A fractional q-power prefactor, such as
        an eta quotient's, is kept by its owner beside the series
        (`modular.EtaQuotient.offset`).
        """
        r = Fraction(r)
        return self ** int(r) if r.denominator == 1 and r >= 0 else self._power(r)

    def _power(self, r: Fraction) -> "QSeries":
        """self^r for r = p/d, relative precision kept: self = c q^v u with
        u = 1 + u_1 q + ..., and y = u^r solves u q y' = r y q u', which is
        J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7)
        n y_n = sum_{k >= 1} ((r + 1) k - n) u_k y_(n-k) over the nonzero u_k,
        on integer numerators over one running denominator, lifted when the
        pivot n d U_0 (U the numerators of self) does not divide.  Like
        `int_convolve` it runs on the occupied residue class: with g the gcd
        of the k of the nonzero u_k, u and y are series in Q = q^g, so n steps
        through Q, and y_n is scattered to the coefficient of q^(g n)."""
        v, c = self.leading()  # raises ZeroDivisor on a series zero to O(q^T)
        if (v * r).denominator != 1:
            raise ValuationNotDivisible(f"valuation {v} times exponent {r} is fractional")
        p, d = r.numerator, r.denominator
        root = rational_nth_root(c, d)
        if root is None:
            raise LeadingCoefficientNotPower(f"{c} has no exact {d}-th root")
        rel = self.truncation - v  # number of known coefficients
        ks = list(compress(range(1, rel), self.coeffs[1:rel]))
        g = math.gcd(*ks) or rel  # with no u_k, u = 1 and y is one term
        us = [self.coeffs[k] for k in ks]
        ks = [k // g for k in ks]
        kus = [k * x for k, x in zip(ks, us)]
        ys, den, j = [1], 1, 0
        for n in range(1, -(-rel // g)):
            j += j < len(ks) and ks[j] == n  # ks[:j] are the k <= n
            lower = [ys[n - k] for k in ks[:j]]
            acc = -n * d * sum(map(mul, us[:j], lower))
            if p + d:
                acc += (p + d) * sum(map(mul, kus[:j], lower))
            pivot = n * d * self.coeffs[0]
            lift = abs(pivot) // math.gcd(acc, pivot)
            if lift > 1:
                den *= lift
                ys = [y * lift for y in ys]
            ys.append(acc * lift // pivot)
        out = [0] * rel
        out[::g] = ys
        return QSeries._make(den, int(v * r), out, rel + int(v * r)).scale(root**p)

    def nth_root(self, n: int) -> "QSeries":
        """Exact n-th root (positive branch for rational leading coefficients).

        >>> s = QSeries([9, 18, 9], 2, 8)      # (3q + 3q^2)^2
        >>> s.nth_root(2) == QSeries([3, 3], 1, 7)
        True
        """
        if n < 1:
            raise ValueError("root index must be >= 1")
        return self.pow_rational(Fraction(1, n))

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (QSeries, *_SCALARS)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # equality only holds up to min truncation

    def first_difference(self, other):
        """Smallest exponent where the two series disagree, with the residual."""
        diff = self - other
        return None if diff.is_zero() else diff.leading()

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {"valuation": int, "truncation": int, "coeffs": ["num/den", ...]}.

        The coefficient list is dense from the valuation through truncation-1.
        """
        cs = [str(Fraction(x, self.den)) for x in self.coeffs]
        cs += ["0"] * (self.truncation - self.valuation - len(cs))
        return {"valuation": self.valuation, "truncation": self.truncation, "coeffs": cs}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QSeries":
        return cls([Fraction(c) for c in data["coeffs"]], int(data["valuation"]), int(data["truncation"]))

    def __repr__(self):
        return f"QSeries({format_series(self)})"


_set_den, _set_valuation, _set_coeffs, _set_truncation = (getattr(QSeries, name).__set__ for name in QSeries.__slots__)


def evaluate(polynomials: Iterable[Mapping], ys: Sequence[QSeries], built: dict | None = None) -> list[QSeries]:
    """The values at the series ys of polynomials over Q, each {(e_0, ...,
    e_(k-1)): c} meaning the sum of c y_0^e_0 ... y_(k-1)^e_(k-1).  Each
    monomial is built once, as the monomial with its last nonzero exponent
    one less, times that series; a table {exponents: monomial} `built` of
    monomials of ys built before is read first and receives every monomial
    built here.  A value keeps the truncation of its own terms; the constant
    1, and a polynomial with no terms, are known through the least
    truncation of ys.

    >>> evaluate([{(2,): 1, (1,): -1}, {}], [QSeries([1, 1], 0, 4)])   # y^2 - y and 0
    [QSeries(q + q^2 + O(q^4)), QSeries(O(q^4))]
    """
    least = min(y.truncation for y in ys)
    built = {} if built is None else built
    built.update({tuple(int(i == j) for i in range(len(ys))): y for j, y in enumerate(ys)})
    built[(0,) * len(ys)] = QSeries.one(least)

    def monomial(e: tuple[int, ...]) -> QSeries:
        if e not in built:
            j = max(i for i, n in enumerate(e) if n)
            built[e] = monomial((*e[:j], e[j] - 1, *e[j + 1 :])) * ys[j]
        return built[e]

    terms = [[monomial(e).scale(c) for e, c in polynomial.items()] for polynomial in polynomials]
    return [sum(t[1:], t[0]) if t else QSeries.zero(least) for t in terms]


def solve_qdq_system(system: Sequence[Mapping], seeds: Sequence[Sequence[Fraction | int]],
                     order: int) -> tuple[QSeries, ...]:
    """The power series Y with q dY/dq = F(Y), known through O(q^order), for
    F the polynomials `system` over Q, one per component (see `evaluate`).
    `seeds` holds the q^0 and q^1 coefficients of each component, which must
    satisfy the system through q^1.

    The rest comes in doubling blocks.  With Y known through q^(m-1), the
    correction E = O(q^m) on [m, hi), hi = min(2m, order), w = hi - m, has
    F(Y + E) = F(Y) + J(Y) E + O(q^2m), so below q^hi the block is linear:

        (n - J0) E_n = R_n + sum_{m <= l < n} J_(n-l) E_l,    m <= n < hi,

    with J(Y) = sum_d J_d q^d, needed mod q^w, and R = F(Y) - q dY/dq, which
    is O(q^m).  The polynomials dF_i/dy_j are derived once, so a block
    evaluates F once at truncation hi and J once at Y mod q^w, reading the
    monomials F's evaluation built, truncated, after one evaluation of F for
    the seeds (15 evaluations at order 242).  J0, the
    Jacobian at the constant terms, must be upper triangular; that is
    checked before any coefficient of the block is solved, so for order <= 2,
    with no block, J0 is never read.  Each block is back-substituted whole
    against n - J0, every value an integer numerator over one running
    denominator that is multiplied up when a pivot n - J0_ii does not divide.

    >>> solve_qdq_system([{(2,): 1, (1,): -1}], [(1, 1)], 6)   # q y' = y^2 - y: 1/(1-q)
    (QSeries(1 + q + q^2 + q^3 + q^4 + q^5 + O(q^6)),)
    """
    ys = [QSeries(seed, 0, 2) for seed in seeds]
    if not all((r - y.qdq()).is_zero() for r, y in zip(evaluate(system, ys), ys)):
        raise ArithmeticError("the seeds do not satisfy the system through q^1")
    k, m = len(ys), 2
    jacobian = [{(*e[:j], e[j] - 1, *e[j + 1 :]): c * e[j] for e, c in f.items() if e[j]}
                for f in system for j in range(k)]  # dF_i/dy_j at i k + j
    while m < order:
        hi = min(2 * m, order)
        w = hi - m
        ys = [y._replace(truncation=hi) for y in ys]  # provisionally 0 from q^m on
        built: dict = {}
        forcing = [r - y.qdq() for r, y in zip(evaluate(system, ys, built), ys)]
        jac = evaluate(jacobian, [y.truncate(w) for y in ys], {e: s.truncate(w) for e, s in built.items()})
        dj = math.lcm(*(s.den for s in jac))
        js = [[_numerators(s, 0, w, dj) for s in jac[i * k : (i + 1) * k]] for i in range(k)]
        if any(js[i][j][0] for i in range(k) for j in range(i)):
            raise ArithmeticError("J0 is not upper triangular")
        den = math.lcm(*(r.den for r in forcing))
        rs = [_numerators(r, m, hi, den) for r in forcing]
        es = [[0] * w for _ in range(k)]
        for t in range(w):
            for i in reversed(range(k)):
                # es[j][t] is still 0 for j <= i, and J0 has no entry below the diagonal
                acc = dj * rs[i][t] + sum([sum(map(mul, js[i][j][: t + 1], es[j][t::-1])) for j in range(k)])
                pivot = (m + t) * dj - js[i][i][0]
                if not pivot:
                    raise ZeroDivisionError(f"n - J0 is singular at n = {m + t}")
                lift = abs(pivot) // math.gcd(acc, pivot)
                if lift > 1:
                    den *= lift
                    for row in (*rs, *es):
                        row[:] = [x * lift for x in row]
                es[i][t] = acc * lift // pivot
        ys = [y + QSeries._make(den, m, e, hi) for y, e in zip(ys, es)]
        m = hi
    return tuple(y.truncate(order) for y in ys)


def _numerators(s: QSeries, lo: int, hi: int, den: int) -> list[int]:
    """The coefficients of s at q^lo..q^(hi-1) as numerators over den."""
    if hi > s.truncation:
        raise PrecisionError(f"coefficient of q^{hi - 1} unknown at truncation {s.truncation}")
    lift, start = den // s.den, lo - s.valuation
    return [s.coeffs[i] * lift if 0 <= i < len(s.coeffs) else 0 for i in range(start, start + hi - lo)]


def format_series(s: QSeries) -> str:
    """Human form: 'q + q^4 + 2q^7 + O(q^8)', coefficients as exact fractions."""
    parts = []
    for e, c in s.known_terms():
        sign, body = "-" if c < 0 else "+", str(abs(c))
        if e:
            body = ("" if body == "1" else body) + ("q" if e == 1 else f"q^{e}")
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    parts.append(("+ " if parts else "") + f"O(q^{s.truncation})")
    return " ".join(parts)


def field_text(*terms: tuple[Fraction, str]) -> str:
    """An exact number as a report prints it: the nonzero terms of
    (coefficient, basis label) joined by ' + ', '0' if there are none.

    >>> field_text((Fraction(1), ""), (Fraction(2), "*z3^1"))
    '1 + 2*z3^1'
    """
    return " + ".join(f"{c}{label}" for c, label in terms if c) or "0"

