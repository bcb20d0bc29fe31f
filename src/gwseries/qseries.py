"""Truncated Laurent and Puiseux series in q with exact coefficients.

A QSeries stores finitely many exact coefficients together with a truncation
order T: coefficients at exponents >= T are unknown, not zero.  Every
operation propagates the truncation honestly, so a computed coefficient is
always a theorem about the underlying series.  Coefficients are Fractions or
CyclotomicNumbers; the two mix freely inside one field.  Every product clears
denominators and goes through the integer kernel `int_convolve`; inverse,
logarithm and exponential are Newton iterations over that product.

A PuiseuxSeries is a fractional-exponent prefactor around a QSeries unit:
scalar * q^offset * unit(q), with the offset an exact rational.  That is
enough for eta quotients and Jacobi theta constants, whose only
non-integral behaviour sits in the prefactor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

from .exact_arith import (
    CyclotomicNumber,
    OrderMismatch,
    _reduce_mod_cyclotomic,
    euler_phi,
    int_convolve,
    rational_nth_root,
)

Coefficient = Union[Fraction, CyclotomicNumber]

_ZERO = Fraction(0)
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


class BranchMissing(QSeriesError):
    """A fractional-power twist needs an explicit branch scalar."""


class PrecisionError(QSeriesError):
    """A coefficient beyond the truncation order was requested."""


def _coeff_str(c: Coefficient) -> str:
    if isinstance(c, CyclotomicNumber) and c.is_rational():
        c = c.rational_value()
    return str(c)


def _cleared(cs, stride: int) -> tuple[int, list[int]]:
    """One denominator for all of `cs` and their integer coordinates over it,
    each coefficient's coordinates starting `stride` slots after the last."""
    den = math.lcm(*(c.den if isinstance(c, CyclotomicNumber) else c.denominator for c in cs))
    flat = [0] * (len(cs) * stride)
    for i, c in enumerate(cs):
        k = i * stride
        if isinstance(c, CyclotomicNumber):
            scale = den // c.den
            flat[k : k + len(c.nums)] = [x * scale for x in c.nums]
        else:
            flat[k] = c.numerator * (den // c.denominator)
    return den, flat


def _product(xs, ys, n: int) -> list:
    """The first n coefficients of the product of two coefficient lists.

    Rational lists multiply as integer lists over one denominator each.  With
    coefficients in Q(zeta_N), each coefficient's power-basis coordinates take
    2 phi(N) - 1 slots, so the coordinate products of one q-coefficient never
    reach the next; each slot block is then reduced modulo Phi_N.
    """
    xs, ys = xs[:n], ys[:n]
    orders = {c.order for c in (*xs, *ys) if isinstance(c, CyclotomicNumber)}
    if len(orders) > 1:
        raise OrderMismatch(f"orders differ: {sorted(orders)}; embed first")
    stride = 2 * euler_phi(*orders) - 1 if orders else 1
    dx, ix = _cleared(xs, stride)
    dy, iy = _cleared(ys, stride)
    flat = int_convolve(ix, iy, n * stride)
    if not orders:
        return [Fraction(c, dx * dy) for c in flat]
    (order,) = orders
    den = dx * dy
    return [
        CyclotomicNumber(order, tuple(_reduce_mod_cyclotomic(flat[k : k + stride], order)), den)
        for k in range(0, n * stride, stride)
    ]


class QSeries:
    """Exact Laurent series known through q^(truncation-1).

    >>> s = QSeries([1, -1, 0, 2], valuation=-1, truncation=5)
    >>> s
    QSeries(q^-1 - 1 + 2q^2 + O(q^5))
    >>> s.coefficient(2)
    Fraction(2, 1)
    >>> (s * s).truncation
    4
    >>> s + QSeries.one(3) == s.truncate(3) + 1
    True
    """

    __slots__ = ("valuation", "coeffs", "truncation")

    def __init__(
        self,
        coeffs: Iterable[Coefficient],
        valuation: int = 0,
        truncation: int | None = None,
    ):
        cs = [c if isinstance(c, (Fraction, CyclotomicNumber)) else Fraction(c) for c in coeffs]
        if truncation is None:
            truncation = valuation + len(cs)
        # canonical form: no leading or trailing zero entries
        lead = 0
        while lead < len(cs) and not cs[lead]:
            lead += 1
        tail = len(cs)
        while tail > lead and not cs[tail - 1]:
            tail -= 1
        cs = cs[lead:tail]
        valuation += lead
        if not cs:
            valuation = truncation
        elif valuation + len(cs) > truncation:
            raise ValueError("coefficients extend past the truncation order")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "QSeries":
        return cls((), truncation, truncation)

    @classmethod
    def one(cls, truncation: int) -> "QSeries":
        return cls.constant(_ONE, truncation)

    @classmethod
    def constant(cls, value: Coefficient | int, truncation: int) -> "QSeries":
        return cls.monomial(value, 0, truncation)

    @classmethod
    def monomial(cls, value: Coefficient | int, exponent: int, truncation: int) -> "QSeries":
        if exponent >= truncation:
            # the term sits in the unknown tail; only O(q^T) remains
            return cls.zero(truncation)
        return cls((value,), exponent, truncation)

    @classmethod
    def from_coefficient_map(
        cls, entries: Mapping[int, Coefficient | int], truncation: int
    ) -> "QSeries":
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

    def coefficient(self, exponent: int) -> Coefficient:
        if exponent >= self.truncation:
            raise PrecisionError(
                f"coefficient of q^{exponent} unknown at truncation {self.truncation}"
            )
        i = exponent - self.valuation
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return _ZERO

    def known_terms(self) -> Iterator[tuple[int, Coefficient]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.valuation + i, c

    def leading(self) -> tuple[int, Coefficient]:
        if not self.coeffs:
            raise ZeroDivisor("series is zero to its truncation order")
        return self.valuation, self.coeffs[0]

    def truncate(self, truncation: int) -> "QSeries":
        """Forget coefficients at exponents >= truncation."""
        if truncation > self.truncation:
            raise PrecisionError(
                f"cannot extend truncation {self.truncation} to {truncation}"
            )
        keep = max(0, min(len(self.coeffs), truncation - self.valuation))
        return QSeries(self.coeffs[:keep], self.valuation, truncation)

    def shift(self, k: int) -> "QSeries":
        """Multiply by q^k."""
        return QSeries(self.coeffs, self.valuation + k, self.truncation + k)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = QSeries.constant(other, self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.truncation, other.truncation)
        if self.is_zero():
            return other.truncate(t)
        if other.is_zero():
            return self.truncate(t)
        lo = min(self.valuation, other.valuation)
        hi = min(t, max(self.valuation + len(self.coeffs), other.valuation + len(other.coeffs)))
        return QSeries([self.coefficient(e) + other.coefficient(e) for e in range(lo, hi)], lo, t)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QSeries, int, Fraction, CyclotomicNumber)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QSeries(tuple(-c for c in self.coeffs), self.valuation, self.truncation)

    def scale(self, scalar: Coefficient | int) -> "QSeries":
        if not scalar:
            return QSeries.zero(self.truncation)
        return QSeries(tuple(c * scalar for c in self.coeffs), self.valuation, self.truncation)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        # O(q^Ta) * q^vb and q^va * O(q^Tb) bound what the product can know.
        t = min(self.truncation + other.valuation, other.truncation + self.valuation)
        if self.is_zero() or other.is_zero():
            return QSeries.zero(t)
        v = self.valuation + other.valuation
        return QSeries(_product(self.coeffs, other.coeffs, t - v), v, t)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(other)
        return NotImplemented

    def inv(self) -> "QSeries":
        """Multiplicative inverse, with the relative precision preserved.

        >>> g = QSeries([1, -1], 0, 8).inv()   # 1/(1-q)
        >>> list(c for _, c in g.known_terms()) == [Fraction(1)] * 8
        True
        """
        if self.is_zero():
            raise ZeroDivisor("cannot invert a series that is zero to O(q^T)")
        v, c = self.leading()
        rel = self.truncation - v  # number of known coefficients
        cinv = _ONE / c if isinstance(c, Fraction) else c.inverse()
        w = self.shift(-v).scale(cinv)
        # Newton: x <- x (2 - w x) doubles the number of correct terms.
        x = QSeries.one(1)
        while x.truncation < rel:
            m = min(2 * x.truncation, rel)
            xp = QSeries(x.coeffs, 0, m)
            x = xp + xp * (1 - w.truncate(m) * xp)
        return x.scale(cinv).shift(-v)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.inv()
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return self.scale(_ONE / other)  # raises ZeroDivisionError on zero
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        if exponent == 0:
            return QSeries.one(self.truncation - self.valuation + max(self.valuation, 0))
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus and structure ----------------------------------------------

    def qdq(self) -> "QSeries":
        """The operator q d/dq, acting termwise as c_n -> n c_n."""
        cs = tuple(c * (self.valuation + i) for i, c in enumerate(self.coeffs))
        return QSeries(cs, self.valuation, self.truncation)

    def substitute_power(self, m: int) -> "QSeries":
        """Replace q by q^m (m >= 1); exponents and truncation scale by m."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if m == 1:
            return self
        if self.is_zero():
            return QSeries.zero(m * self.truncation)
        cs: list = [0] * ((len(self.coeffs) - 1) * m + 1)
        for i, c in enumerate(self.coeffs):
            cs[i * m] = c
        return QSeries(cs, self.valuation * m, self.truncation * m)

    def twist(self, c: Coefficient | int) -> "QSeries":
        """Substitute q -> c*q: the q^n coefficient picks up a factor c^n."""
        if c == 1:
            return self
        if not c:
            raise ZeroDivisionError("twist scalar must be invertible")
        if not isinstance(c, (Fraction, CyclotomicNumber)):
            c = Fraction(c)
        power = c**self.valuation
        out = []
        for coeff in self.coeffs:
            out.append(coeff * power)
            power = power * c
        return QSeries(out, self.valuation, self.truncation)

    def log_unit(self) -> "QSeries":
        """Logarithm of a unit with constant term exactly 1.

        From q dL/dq = (q du/dq) / u, with the inverse taken by Newton.

        >>> u = QSeries([1, 1], 0, 6)          # 1 + q
        >>> (u.log_unit() - QSeries([1, Fraction(-1,2), Fraction(1,3), Fraction(-1,4), Fraction(1,5)], 1, 6)).is_zero()
        True
        """
        if self.valuation != 0 or self.coefficient(0) != 1:
            raise NotUnit("log requires constant term exactly 1")
        d = self.qdq() * self.inv()
        t = self.truncation
        return QSeries([d.coefficient(e) * Fraction(1, e) for e in range(1, t)], 1, t)

    def exp_positive(self) -> "QSeries":
        """Exponential of a series with valuation >= 1.

        Newton: e <- e (1 + w - log e) doubles the number of correct terms.
        """
        if not self.is_zero() and self.valuation < 1:
            raise NotUnit("exp requires positive valuation")
        t = self.truncation
        e = QSeries.one(min(t, 1))
        while e.truncation < t:
            m = min(2 * e.truncation, t)
            ep = QSeries(e.coeffs, 0, m)
            e = ep * (1 + self.truncate(m) - ep.log_unit())
        return e

    def pow_rational(self, r: Fraction) -> "QSeries":
        """Raise to an exact rational power via exp(r log(unit)).

        The valuation times r must be an integer and the leading coefficient
        must admit an exact root; otherwise the result would leave the
        Laurent model and belongs in PuiseuxSeries.
        """
        r = Fraction(r)
        if r.denominator == 1:
            return self ** int(r)
        v, c = self.leading()
        if (v * r).denominator != 1:
            raise ValuationNotDivisible(f"valuation {v} times exponent {r} is fractional")
        if isinstance(c, CyclotomicNumber):
            if not c.is_rational():
                raise LeadingCoefficientNotPower("no canonical root in a cyclotomic field")
            c = c.rational_value()
        root = rational_nth_root(c, r.denominator)
        if root is None:
            raise LeadingCoefficientNotPower(f"{c} has no exact {r.denominator}-th root")
        unit = self.shift(-v).scale(_ONE / c)
        powered = (unit.log_unit().scale(r)).exp_positive()
        return powered.scale(root ** r.numerator).shift(int(v * r))

    def nth_root(self, n: int) -> "QSeries":
        """Exact n-th root (positive branch for rational leading coefficients).

        >>> s = QSeries([9, 18, 9], 2, 8)      # (3q + 3q^2)^2
        >>> s.nth_root(2) == QSeries([3, 3], 1, 7)
        True
        """
        if n < 1:
            raise ValueError("root index must be >= 1")
        v, _ = self.leading()
        if v % n != 0:
            raise ValuationNotDivisible(f"valuation {v} not divisible by {n}")
        return self.pow_rational(Fraction(1, n))

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = QSeries.constant(other, self.truncation)
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None  # equality only holds up to min truncation

    def first_difference(self, other: "QSeries") -> tuple[int, Coefficient] | None:
        """Smallest exponent where the two series disagree, with the residual."""
        t = min(self.truncation, other.truncation)
        lo = min(self.valuation, other.valuation)
        for e in range(lo, t):
            a, b = self.coefficient(e), other.coefficient(e)
            if a != b:
                return e, a - b
        return None

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {"valuation": int, "truncation": int, "coeffs": ["num/den", ...]}.

        The coefficient list is dense from the valuation through truncation-1.
        Only rational-coefficient series serialize.
        """
        cs = []
        for e in range(self.valuation, self.truncation):
            c = self.coefficient(e)
            if isinstance(c, CyclotomicNumber):
                if not c.is_rational():
                    raise ValueError("only rational-coefficient series serialize to JSON")
                c = c.rational_value()
            cs.append(str(c))
        return {"valuation": self.valuation, "truncation": self.truncation, "coeffs": cs}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QSeries":
        return cls(
            [Fraction(c) for c in data["coeffs"]],
            int(data["valuation"]),
            int(data["truncation"]),
        )

    def __repr__(self):
        return f"QSeries({format_series(self)})"


def format_series(s: QSeries) -> str:
    """Human form: 'q + q^4 + 2q^7 + O(q^8)', coefficients as exact fractions."""
    parts = []
    for e, c in s.known_terms():
        if isinstance(c, CyclotomicNumber) and c.is_rational():
            c = c.rational_value()
        if isinstance(c, CyclotomicNumber):
            body = f"({c})"
            sign = "+"
        else:
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = _coeff_str(mag)
        if e == 0:
            term = body
        else:
            head = "" if body == "1" else body
            term = f"{head}q" if e == 1 else f"{head}q^{e}"
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f"{sign} {term}")
    parts.append(("+ " if parts else "") + f"O(q^{s.truncation})")
    return " ".join(parts)


class PuiseuxSeries:
    """scalar * q^offset * unit(q), the offset an exact rational.

    The unit is normalized to constant term exactly 1, with its leading
    coefficient and valuation folded into the scalar and offset.

    >>> u = PuiseuxSeries(1, Fraction(1, 24), QSeries([1, -1], 0, 6))
    >>> (u * u).offset
    Fraction(1, 12)
    >>> u.logderiv().coefficient(0)
    Fraction(1, 24)
    """

    __slots__ = ("scalar", "offset", "unit")

    def __init__(self, scalar: Coefficient | int, offset: Fraction, unit: QSeries):
        if unit.is_zero():
            raise ZeroDivisor("Puiseux unit must have a nonzero leading term")
        if not isinstance(scalar, (Fraction, CyclotomicNumber)):
            scalar = Fraction(scalar)
        v, c = unit.leading()
        if v != 0 or c != 1:
            cinv = _ONE / c if isinstance(c, Fraction) else c.inverse()
            scalar = scalar * c
            offset = Fraction(offset) + v
            unit = unit.shift(-v).scale(cinv)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "offset", Fraction(offset))
        object.__setattr__(self, "unit", unit)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    def __mul__(self, other):
        if isinstance(other, PuiseuxSeries):
            return PuiseuxSeries(
                self.scalar * other.scalar,
                self.offset + other.offset,
                self.unit * other.unit,
            )
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            return PuiseuxSeries(self.scalar * other, self.offset, self.unit)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PuiseuxSeries):
            return PuiseuxSeries(
                self.scalar / other.scalar,
                self.offset - other.offset,
                self.unit * other.unit.inv(),
            )
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent == 0:
            return PuiseuxSeries(1, Fraction(0), QSeries.one(self.unit.truncation))
        unit = self.unit**exponent
        return PuiseuxSeries(self.scalar**exponent, self.offset * exponent, unit)

    def pow_rational(self, r: Fraction) -> "PuiseuxSeries":
        """Exact rational power; the scalar must admit an exact root."""
        r = Fraction(r)
        if r.denominator == 1:
            return self ** int(r)
        scalar = self.scalar
        if isinstance(scalar, CyclotomicNumber):
            if not scalar.is_rational():
                raise LeadingCoefficientNotPower("cyclotomic scalar has no canonical root")
            scalar = scalar.rational_value()
        root = rational_nth_root(scalar, r.denominator)
        if root is None:
            raise LeadingCoefficientNotPower(f"{scalar} has no exact {r.denominator}-th root")
        unit = self.unit.log_unit().scale(r).exp_positive()
        return PuiseuxSeries(root ** r.numerator, self.offset * r, unit)

    def twist(self, c: Coefficient, branch: Coefficient | None = None) -> "PuiseuxSeries":
        """Substitute q -> c*q.  The unit twists termwise; q^offset contributes
        c^offset, which for fractional offsets is a branch choice the caller
        must supply."""
        if self.offset.denominator == 1:
            prefactor = c ** int(self.offset)
            if branch is not None and branch != prefactor:
                raise ValueError("explicit branch contradicts the integral offset")
        else:
            if branch is None:
                raise BranchMissing(
                    f"twisting q^({self.offset}) needs a branch for c^offset"
                )
            prefactor = branch
        return PuiseuxSeries(self.scalar * prefactor, self.offset, self.unit.twist(c))

    def logderiv(self) -> QSeries:
        """q d/dq of the logarithm: offset + q d/dq log(unit).

        The scalar never matters here, which is why log-derivatives are the
        right interface to eta quotients with awkward prefactors.
        """
        series = self.unit.qdq() * self.unit.inv()
        return series + QSeries.constant(self.offset, series.truncation)

    def to_qseries(self) -> QSeries:
        """Collapse to a Laurent series; requires an integral offset."""
        if self.offset.denominator != 1:
            raise ValuationNotDivisible(f"offset {self.offset} is not an integer")
        return self.unit.scale(self.scalar).shift(int(self.offset))

    def __eq__(self, other):
        if isinstance(other, PuiseuxSeries):
            return (
                self.scalar == other.scalar
                and self.offset == other.offset
                and self.unit == other.unit
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        if self.offset == 0:
            prefix = ""
        else:
            o = self.offset
            prefix = f"q^{o}*" if o.denominator == 1 else f"q^({o})*"
        return f"PuiseuxSeries({_coeff_str(self.scalar)}*{prefix}({format_series(self.unit)}))"
