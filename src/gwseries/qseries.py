"""Truncated Laurent and Puiseux series in q with exact coefficients.

A QSeries stores finitely many exact coefficients together with a truncation
order T: coefficients at exponents >= T are unknown, not zero.  Every
operation propagates the truncation honestly, so a computed coefficient is
always a theorem about the underlying series.

Coefficients lie in Q (field order 1) or Q(zeta_N) (order N) and are stored
as in FLINT's fmpq_poly: integer numerators `coeffs` over one positive `den`,
phi(N) power-basis coordinates per exponent in one flat tuple, in canonical
form (gcd(den, *coeffs) == 1, no zero block at either end).  Arithmetic is
integer arithmetic with one denominator update and one gcd; products go
through `int_convolve`, and inverse, log and exp are Newton iterations over
them.  A rational operand meeting an order-N one is embedded; two orders
above 1 raise OrderMismatch.  Fractions and CyclotomicNumbers only enter and
leave at the boundary: the constructor, `from_coefficient_map`,
`coefficient`, `known_terms`, `leading`, `format_series` and `to_json_dict`.

A PuiseuxSeries is a fractional-exponent prefactor around a QSeries unit:
scalar * q^offset * unit(q), with the offset an exact rational.  That is
enough for eta quotients and Jacobi theta constants, whose only
non-integral behaviour sits in the prefactor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .exact_arith import (
    CyclotomicNumber,
    Frozen,
    OrderMismatch,
    _reduce_mod_cyclotomic,
    euler_phi,
    int_convolve,
    rational_nth_root,
)

Coefficient = Union[Fraction, CyclotomicNumber]
_SCALARS = (int, Fraction, CyclotomicNumber)
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


def _parts(c) -> tuple[int, Sequence[int], int]:
    """(order, power-basis numerators, denominator) of an exact scalar."""
    if isinstance(c, CyclotomicNumber):
        return c.order, c.nums, c.den
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return 1, (c.numerator,), c.denominator


def _convolve(xs: Sequence[int], ys: Sequence[int], order: int, n: int) -> list[int]:
    """The first n coordinate blocks of the product of two numerator lists
    over Q(zeta_order).  Each block of phi(N) coordinates is padded to
    2 phi(N) - 1 slots, so the coordinate products of one q-coefficient never
    reach the next, and each slot block is then reduced modulo Phi_N."""
    width = euler_phi(order)
    if width == 1:  # one coordinate per exponent: nothing to pad or reduce
        return int_convolve(xs, ys, n)
    stride, pad = 2 * width - 1, (0,) * (width - 1)

    def padded(cs: Sequence[int]) -> list[int]:
        return [x for i in range(0, min(len(cs), n * width), width) for x in (*cs[i : i + width], *pad)]

    flat = int_convolve(padded(xs), padded(ys), n * stride)
    blocks = (flat[k : k + stride] for k in range(0, n * stride, stride))
    return [x for block in blocks for x in _reduce_mod_cyclotomic(block, order)]


def _common(a: "QSeries", b: "QSeries") -> tuple["QSeries", "QSeries"]:
    """a and b over one field: a rational series is embedded into the other's."""
    order = max(a.order, b.order)
    if min(a.order, b.order) not in (1, order):
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}; embed first")
    return a._embed(order), b._embed(order)


class QSeries(Frozen):
    """Exact Laurent series known through q^(truncation-1).

    Stored as (order, den, valuation, truncation, coeffs) in the canonical
    form of the module docstring; the constructor takes exact values.

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
    >>> (h.order, h.den, h.coeffs)
    (1, 6, (3, -2))
    """

    __slots__ = ("order", "den", "valuation", "coeffs", "truncation")

    def __new__(cls, coeffs: Iterable[Coefficient], valuation: int = 0, truncation: int | None = None):
        parts = [_parts(c) for c in coeffs]
        order = max((o for o, _, _ in parts), default=1)
        if any(o not in (1, order) for o, _, _ in parts):
            raise OrderMismatch(f"orders differ: {sorted({o for o, _, _ in parts} - {1})}; embed first")
        width = euler_phi(order)
        den = math.lcm(*(d for _, _, d in parts))
        flat: list[int] = []
        for _, nums, d in parts:
            flat += [x * (den // d) for x in nums] + [0] * (width - len(nums))
        if truncation is None:
            truncation = valuation + len(parts)
        return cls._make(order, den, valuation, flat, truncation)

    @classmethod
    def _make(cls, order: int, den: int, valuation: int, coeffs: Sequence[int], truncation: int):
        """The series with these fields in canonical form: zero end blocks
        dropped, the common factor of den and the numerators divided out.
        Every series is made here, because equality compares the fields."""
        width = euler_phi(order)
        lo, hi = 0, len(coeffs)
        while lo < hi and not any(coeffs[lo : lo + width]):
            lo += width
        while hi > lo and not any(coeffs[hi - width : hi]):
            hi -= width
        valuation += lo // width
        if lo == hi:
            valuation, den = truncation, 1
        elif valuation + (hi - lo) // width > truncation:
            raise ValueError("coefficients extend past the truncation order")
        coeffs = coeffs[lo:hi]
        g = math.gcd(den, *coeffs)
        if g > 1:
            den //= g
            coeffs = [x // g for x in coeffs]
        series = object.__new__(cls)
        series._freeze(order, den, valuation, tuple(coeffs), truncation)
        return series

    @property
    def _width(self) -> int:  # coordinates per exponent
        return euler_phi(self.order)

    def _replace(self, **fields) -> "QSeries":
        """A copy with some fields replaced, brought to canonical form."""
        return QSeries._make(**{name: getattr(self, name) for name in self.__slots__} | fields)

    def _embed(self, order: int) -> "QSeries":
        """The same series over Q(zeta_order); self must be rational or of that order."""
        if order == self.order:
            return self
        pad = (0,) * (euler_phi(order) - 1)
        return self._replace(order=order, coeffs=[x for c in self.coeffs for x in (c, *pad)])

    def _value(self, block: Sequence[int]) -> Coefficient:
        """One coordinate block over den, as an exact field element."""
        if self.order == 1:
            return Fraction(block[0], self.den)
        return CyclotomicNumber(self.order, tuple(block), self.den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "QSeries":
        return cls((), truncation, truncation)

    @classmethod
    def one(cls, truncation: int) -> "QSeries":
        return cls.constant(1, truncation)

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
        width = self._width
        i = (exponent - self.valuation) * width
        inside = 0 <= i < len(self.coeffs)
        return self._value(self.coeffs[i : i + width] if inside else (0,) * width)

    def known_terms(self) -> Iterator[tuple[int, Coefficient]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent order."""
        width = self._width
        for i in range(0, len(self.coeffs), width):
            block = self.coeffs[i : i + width]
            if any(block):
                yield self.valuation + i // width, self._value(block)

    def leading(self) -> tuple[int, Coefficient]:
        if not self.coeffs:
            raise ZeroDivisor("series is zero to its truncation order")
        return self.valuation, self._value(self.coeffs[: self._width])

    def truncate(self, truncation: int) -> "QSeries":
        """Forget coefficients at exponents >= truncation."""
        if truncation > self.truncation:
            raise PrecisionError(
                f"cannot extend truncation {self.truncation} to {truncation}"
            )
        keep = max(0, truncation - self.valuation) * self._width
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
        a, b = _common(self, other)
        t = min(a.truncation, b.truncation)
        if a.is_zero():
            return b.truncate(t)
        if b.is_zero():
            return a.truncate(t)
        width = a._width
        lo = min(a.valuation, b.valuation)
        hi = min(t, max(s.valuation + len(s.coeffs) // width for s in (a, b)))
        den = math.lcm(a.den, b.den)
        out = [0] * (max(0, hi - lo) * width)
        for s in (a, b):
            k = den // s.den
            part = s.coeffs[: max(0, hi - s.valuation) * width]
            for i, x in enumerate(part, (s.valuation - lo) * width):
                out[i] += x * k
        return QSeries._make(a.order, den, lo, out, t)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QSeries, *_SCALARS)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._replace(coeffs=[-x for x in self.coeffs])

    def scale(self, scalar: Coefficient | int) -> "QSeries":
        c = QSeries.constant(scalar, self.truncation - self.valuation)
        if c.order > 1:
            return self * c
        # a rational scalar multiplies every numerator alike
        p = c.coeffs[0] if c.coeffs else 0
        return self._replace(den=self.den * c.den, coeffs=[x * p for x in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = _common(self, other)
        # O(q^Ta) * q^vb and q^va * O(q^Tb) bound what the product can know.
        t = min(a.truncation + b.valuation, b.truncation + a.valuation)
        if a.is_zero() or b.is_zero():
            return QSeries._make(a.order, 1, t, (), t)
        v = a.valuation + b.valuation
        flat = _convolve(a.coeffs, b.coeffs, a.order, t - v)
        return QSeries._make(a.order, a.den * b.den, v, flat, t)

    __rmul__ = __mul__

    def inv(self) -> "QSeries":
        """Multiplicative inverse, with the relative precision preserved.

        >>> g = QSeries([1, -1], 0, 8).inv()   # 1/(1-q)
        >>> list(c for _, c in g.known_terms()) == [Fraction(1)] * 8
        True
        """
        v, c = self.leading()  # raises ZeroDivisor on a series zero to O(q^T)
        rel = self.truncation - v  # number of known coefficients
        cinv = 1 / c
        w = self.shift(-v).scale(cinv)
        # Newton: x <- x (2 - w x) doubles the number of correct terms.
        x = QSeries.one(1)
        while x.truncation < rel:
            m = min(2 * x.truncation, rel)
            xp = x._replace(truncation=m)
            x = xp + xp * (1 - w.truncate(m) * xp)
        return x.scale(cinv).shift(-v)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.inv()
        if isinstance(other, _SCALARS):
            return self.scale(_ONE / other)  # raises ZeroDivisionError on zero
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
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
        width, v = self._width, self.valuation
        return self._replace(coeffs=[x * (v + i // width) for i, x in enumerate(self.coeffs)])

    def substitute_power(self, m: int) -> "QSeries":
        """Replace q by q^m (m >= 1); exponents and truncation scale by m."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        width = self._width
        flat = [0] * (len(self.coeffs) * m)
        for i in range(0, len(self.coeffs), width):
            flat[i * m : i * m + width] = self.coeffs[i : i + width]
        return self._replace(valuation=self.valuation * m, coeffs=flat, truncation=self.truncation * m)

    def twist(self, c: Coefficient | int) -> "QSeries":
        """Substitute q -> c*q: the q^n coefficient picks up a factor c^n.

        With c = nums/d, c^v = nums_v/d_v and n exponents known, the block at
        exponent v + i is multiplied by nums_v nums^i d^(n-1-i), and the one
        denominator by d_v d^(n-1).  Over Q each of these is one integer.
        """
        if c == 1:
            return self
        if not c:
            raise ZeroDivisionError("twist scalar must be invertible")
        s, base = _common(self, QSeries.constant(c, 1))
        start = QSeries.constant(base.leading()[1] ** s.valuation, 1)._embed(s.order)
        d, lift = base.den, base.den ** max(len(s.coeffs) // s._width - 1, 0)
        power = [x * lift for x in start.coeffs]  # nums_v nums^i d^(n-1-i)
        out: list[int] = []
        if s.order == 1:
            (p,), (k,) = base.coeffs, power
            for x in s.coeffs:
                out.append(x * k)
                k = k * p // d  # exact until unused
        else:
            for i in range(0, len(s.coeffs), s._width):
                out += _convolve(s.coeffs[i : i + s._width], power, s.order, 1)
                power = [x // d for x in _convolve(power, base.coeffs, s.order, 1)]  # exact until unused
        return s._replace(den=s.den * start.den * lift, coeffs=out)

    def log_unit(self) -> "QSeries":
        """Logarithm of a unit with constant term exactly 1.

        From q dL/dq = (q du/dq) / u, with the inverse taken by Newton; the
        division by n is one denominator update by lcm(1, ..., T-1).

        >>> u = QSeries([1, 1], 0, 6)          # 1 + q
        >>> (u.log_unit() - QSeries([1, Fraction(-1,2), Fraction(1,3), Fraction(-1,4), Fraction(1,5)], 1, 6)).is_zero()
        True
        """
        width = self._width
        if self.valuation != 0 or self.coeffs[:width] != (self.den,) + (0,) * (width - 1):
            raise NotUnit("log requires constant term exactly 1")
        d = self.qdq() * self.inv()
        lcm = math.lcm(*range(1, self.truncation))
        cs = [x * (lcm // (d.valuation + i // width)) for i, x in enumerate(d.coeffs)]
        return QSeries._make(d.order, d.den * lcm, d.valuation, cs, self.truncation)

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
            ep = e._replace(truncation=m)
            e = ep * (1 + self.truncate(m) - ep.log_unit())
        return e

    def pow_rational(self, r: Fraction) -> "QSeries":
        """Raise to an exact rational power via exp(r log(unit)).

        The valuation times r must be an integer and the leading coefficient
        must admit an exact rational root; otherwise the result would leave
        the Laurent model and belongs in PuiseuxSeries.
        """
        r = Fraction(r)
        if r.denominator == 1:
            return self ** int(r)
        v, _ = self.leading()
        if (v * r).denominator != 1:
            raise ValuationNotDivisible(f"valuation {v} times exponent {r} is fractional")
        if any(self.coeffs[1 : self._width]):
            raise LeadingCoefficientNotPower("no canonical root in a cyclotomic field")
        c = Fraction(self.coeffs[0], self.den)
        root = rational_nth_root(c, r.denominator)
        if root is None:
            raise LeadingCoefficientNotPower(f"{c} has no exact {r.denominator}-th root")
        unit = self.shift(-v).scale(1 / c)
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
        return self.pow_rational(Fraction(1, n))

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (QSeries, *_SCALARS)):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # equality only holds up to min truncation

    def first_difference(self, other: "QSeries") -> tuple[int, Coefficient] | None:
        """Smallest exponent where the two series disagree, with the residual."""
        diff = self - other
        return None if diff.is_zero() else diff.leading()

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Schema: {"valuation": int, "truncation": int, "coeffs": ["num/den", ...]}.

        The coefficient list is dense from the valuation through truncation-1.
        Only rational-coefficient series serialize.
        """
        width = self._width
        if any(x for i, x in enumerate(self.coeffs) if i % width):
            raise ValueError("only rational-coefficient series serialize to JSON")
        cs = [str(Fraction(x, self.den)) for x in self.coeffs[::width]]
        cs += ["0"] * (self.truncation - self.valuation - len(cs))
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


def solve_qdq_system(
    rhs: Callable[..., Sequence[QSeries]], seeds: Sequence[Sequence[Coefficient | int]], order: int
) -> tuple[QSeries, ...]:
    """The power series Y with q dY/dq = rhs(*Y), known through O(q^order).

    `seeds` holds the q^0 and q^1 coefficients of each component, which must
    satisfy the system through q^1.

    The rest comes in doubling blocks.  With Y known through q^(m-1), the
    correction E = O(q^m) on [m, hi), hi = min(2m, order), w = hi - m, has
    F(Y + E) = F(Y) + J(Y) E + O(q^2m) for F = rhs, so below q^hi the block
    is linear:

        (n - J0) E_n = R_n + sum_{m <= l < n} J_(n-l) E_l,    m <= n < hi,

    with J(Y) = sum_d J_d q^d, needed mod q^w, and R = F(Y) - q dY/dq, which
    is O(q^m) and costs one rhs call at truncation hi.  Column j of J comes
    from rhs(Y + q^w e_j) - rhs(Y) = q^w J(Y) e_j + O(q^2w), read at
    truncation 2w, so a block costs 1 + k rhs calls for k components, and a
    solve one more for the seeds (29 calls for three components at order
    242).  J0, the Jacobian at the constant terms, is the q^0 part of the
    block's J and must be upper triangular; that is checked before any
    coefficient of the block is solved, so for order <= 2, with no block,
    J0 is never read.  Each block is back-substituted whole against n - J0,
    every value an integer numerator over one running denominator that is
    multiplied up when a pivot n - J0_ii does not divide, which is why the
    system must be over Q.

    >>> solve_qdq_system(lambda y: (y * y - y,), [(1, 1)], 6)   # 1/(1-q)
    (QSeries(1 + q + q^2 + q^3 + q^4 + q^5 + O(q^6)),)
    """
    ys = [QSeries(seed, 0, 2) for seed in seeds]
    if not all((r - y.qdq()).is_zero() for r, y in zip(rhs(*ys), ys)):
        raise ArithmeticError("the seeds do not satisfy the system through q^1")
    k, m = len(ys), 2
    while m < order:
        hi = min(2 * m, order)
        w = hi - m
        ys = [y._replace(truncation=hi) for y in ys]  # provisionally 0 from q^m on
        base = rhs(*ys)
        low, bump = [y.truncate(2 * w) for y in ys], QSeries.monomial(1, w, 2 * w)
        cols = [rhs(*(y + bump if i == j else y for i, y in enumerate(low))) for j in range(k)]
        jac = [[(c[i] - base[i]).truncate(2 * w) for c in cols] for i in range(k)]  # q^w J(Y)
        dj = math.lcm(*(s.den for row in jac for s in row))
        js = [[_numerators(s, w, 2 * w, dj) for s in row] for row in jac]
        if any(js[i][j][0] for i in range(k) for j in range(i)):
            raise ArithmeticError("J0 is not upper triangular")
        forcing = [r - y.qdq() for r, y in zip(base, ys)]
        den = math.lcm(*(r.den for r in forcing))
        rs = [_numerators(r, m, hi, den) for r in forcing]
        es = [[0] * w for _ in range(k)]
        for t in range(w):
            for i in reversed(range(k)):
                # es[j][t] is still 0 for j <= i, and J0 has no entry below the diagonal
                acc = dj * rs[i][t] + sum(sum(map(mul, js[i][j][: t + 1], es[j][t::-1])) for j in range(k))
                pivot = (m + t) * dj - js[i][i][0]
                if not pivot:
                    raise ZeroDivisionError(f"n - J0 is singular at n = {m + t}")
                lift = abs(pivot) // math.gcd(acc, pivot)
                if lift > 1:
                    den *= lift
                    for row in (*rs, *es):
                        row[:] = [x * lift for x in row]
                es[i][t] = acc * lift // pivot
        ys = [y + QSeries._make(1, den, m, e, hi) for y, e in zip(ys, es)]
        m = hi
    return tuple(y.truncate(order) for y in ys)


def _numerators(s: QSeries, lo: int, hi: int, den: int) -> list[int]:
    """The coefficients of s at q^lo..q^(hi-1) as numerators over den."""
    if s.order != 1:
        raise OrderMismatch("solve_qdq_system solves systems over Q")
    if hi > s.truncation:
        raise PrecisionError(f"coefficient of q^{hi - 1} unknown at truncation {s.truncation}")
    lift, start = den // s.den, lo - s.valuation
    return [s.coeffs[i] * lift if 0 <= i < len(s.coeffs) else 0 for i in range(start, start + hi - lo)]


def format_series(s: QSeries) -> str:
    """Human form: 'q + q^4 + 2q^7 + O(q^8)', coefficients as exact fractions."""
    parts = []
    for e, c in s.known_terms():
        if isinstance(c, CyclotomicNumber) and c.is_rational():
            c = c.rational_value()
        if isinstance(c, CyclotomicNumber):
            sign, body = "+", f"({c})"
        else:
            sign, body = "-" if c < 0 else "+", str(abs(c))
        if e:
            body = ("" if body == "1" else body) + ("q" if e == 1 else f"q^{e}")
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    parts.append(("+ " if parts else "") + f"O(q^{s.truncation})")
    return " ".join(parts)


class PuiseuxSeries(Frozen):
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
        # the normal form (unit constant term 1) makes equality field-wise
        if unit.is_zero():
            raise ZeroDivisor("Puiseux unit must have a nonzero leading term")
        if not isinstance(scalar, (Fraction, CyclotomicNumber)):
            scalar = Fraction(scalar)
        v, c = unit.leading()
        if v != 0 or c != 1:
            scalar = scalar * c
            offset = Fraction(offset) + v
            unit = unit.shift(-v).scale(1 / c)
        self._freeze(scalar, Fraction(offset), unit)

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
        return self.unit.qdq() * self.unit.inv() + self.offset

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
        return f"PuiseuxSeries({self.scalar}*{prefix}({format_series(self.unit)}))"
