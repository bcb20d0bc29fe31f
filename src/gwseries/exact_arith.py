"""Exact scalar arithmetic: rational helpers and cyclotomic field elements.

Rational numbers are plain ``fractions.Fraction`` values throughout the
package; this module adds the exact root helpers the series layer needs,
plus a dense representation of Q(zeta_N) with canonical reduction modulo
the N-th cyclotomic polynomial.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import compress
from operator import sub
from typing import Sequence


class OrderMismatch(ArithmeticError):
    """Arithmetic between cyclotomic numbers of different orders.

    Callers embed into a common order first; mixing orders silently would
    make equality meaningless.
    """


class Frozen:
    """Base of the package's value classes that establish an invariant (a
    canonical form, validated input): a subclass names its fields in
    `__slots__` and sets them once, in that order, by `_freeze`.  Two
    instances of one class are equal when all their fields are.  A record
    without an invariant is a `typing.NamedTuple`."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())


def integer_nth_root(m: int, n: int) -> int | None:
    """Exact n-th root of an integer, or None if m is not a perfect power.

    >>> integer_nth_root(729, 6)
    3
    >>> integer_nth_root(730, 6) is None
    True
    >>> integer_nth_root(-27, 3)
    -3
    """
    if n <= 0:
        raise ValueError("root index must be positive")
    if m < 0:
        if n % 2 == 0:
            return None
        r = integer_nth_root(-m, n)
        return None if r is None else -r
    if m in (0, 1) or n == 1:
        return m
    if n == 2:
        r = math.isqrt(m)
    else:
        # Newton's iteration in integers, from a start above the root,
        # decreases to floor(m^(1/n)); floats would overflow on huge m.
        r = 1 << -(-m.bit_length() // n)
        while True:
            s = ((n - 1) * r + m // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == m else None


def rational_nth_root(x: Fraction, n: int) -> Fraction | None:
    """Exact positive-branch n-th root of a rational, or None.

    >>> rational_nth_root(Fraction(4, 9), 2)
    Fraction(2, 3)
    >>> rational_nth_root(Fraction(2), 2) is None
    True
    """
    num = integer_nth_root(x.numerator, n)
    den = integer_nth_root(x.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _biases(width: int, count: int) -> int:
    """The integer with 2^(8 width - 1) in each of `count` slots of `width` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _slot_width(bound: int) -> int:
    """Bytes per slot for signed values of magnitude at most `bound`."""
    return (bound.bit_length() + 8) // 8


def _pack_slots(values: Sequence[int], width: int) -> int:
    """The integer whose base-256^width digits are the signed `values`, each
    of magnitude below 2^(8 width - 1): pack them biased, then subtract the
    biases."""
    bias = 1 << (8 * width - 1)
    packed = b"".join((v + bias).to_bytes(width, "little") for v in values)
    return int.from_bytes(packed, "little") - _biases(width, len(values))


def _unpack_slots(packed: int, width: int, count: int) -> list[int]:
    """The first `count` signed slots of a packed integer, each of magnitude
    below 2^(8 width - 1): bias every slot so that its digit is nonnegative,
    then read the digits back."""
    size = width * count
    raw = ((packed + _biases(width, count)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    bias = 1 << (8 * width - 1)
    return [int.from_bytes(raw[i : i + width], "little") - bias for i in range(0, size, width)]


def _first_slot(packed: int, width: int) -> tuple[int, int] | None:
    """(index, value) of the lowest nonzero slot of a packed sum of signed
    slots reduced mod 2^(8 width n), read from the lowest set bit; None if
    every slot is zero.

    >>> packed = _pack_slots([0, 0, -5, 7], 1)
    >>> _unpack_slots(packed, 1, 4), _first_slot(packed % 2**32, 1)
    ([0, 0, -5, 7], (2, -5))
    """
    if not packed:
        return None
    bits = 8 * width
    index = ((packed & -packed).bit_length() - 1) // bits
    digit = (packed >> (bits * index)) & ((1 << bits) - 1)
    return index, digit - (digit >> (bits - 1) << bits)


def int_convolve(xs: Sequence[int], ys: Sequence[int], n: int | None = None) -> list[int]:
    """The first n coefficients of the product of two integer polynomials.

    Kronecker substitution: each list is packed into one integer, in slots
    wide enough for any product coefficient plus a sign bit, the two integers
    are multiplied once, and the slots are read back after a bias in every
    slot makes each digit nonnegative.  n defaults to the full product
    length, past which coefficients are zero.

    Only the residue class the data occupies is packed: with a, b the first
    nonzero indices and g the gcd of all nonzero index offsets (read from the
    data, so an entry off the class only lowers g), xs = x^a X(x^g) and
    ys = x^b Y(x^g), and only XY is computed, then scattered from a + b.

    >>> int_convolve([1, -2], [3, 4, -5])
    [3, -2, -13, 10]
    >>> int_convolve([10**30, 1], [-(10**30), 1], n=5) == [-(10**60), 0, 1, 0, 0]
    True
    >>> int_convolve([0, 1, 0, 0, 2], [0, 0, 3, 0, 0, -1], n=10)  # stride 3
    [0, 0, 0, 3, 0, 0, 5, 0, 0, -2]
    """
    if n is None:
        n = len(xs) + len(ys) - 1 if xs and ys else 0
    xs, ys = xs[:n], ys[:n]
    xs_at, ys_at = list(compress(range(len(xs)), xs)), list(compress(range(len(ys)), ys))
    if not xs_at or not ys_at or xs_at[0] + ys_at[0] >= n:
        return [0] * n
    a, b = xs_at[0], ys_at[0]
    g = math.gcd(*map(sub, xs_at[1:], xs_at), *map(sub, ys_at[1:], ys_at)) or 1
    xs, ys = xs[a::g], ys[b::g]
    width = _slot_width(max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys)))
    out, count = [0] * n, len(range(a + b, n, g))
    size = min(count, len(xs) + len(ys) - 1)
    product = _pack_slots(xs, width) * _pack_slots(ys, width)
    out[a + b :: g] = _unpack_slots(product, width, size) + [0] * (count - size)
    return out


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (coefficients low to high)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low degree first.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(9)
    (1, 0, 0, 1, 0, 0, 1)
    >>> len(cyclotomic_polynomial(72)) - 1
    24
    """
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def euler_phi(n: int) -> int:
    """Degree of the n-th cyclotomic polynomial."""
    return len(cyclotomic_polynomial(n)) - 1


def _reduce_mod_cyclotomic(vec: list[int], n: int) -> list[int]:
    """Reduce an integer coefficient vector modulo Phi_n in place."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]  # read once, then dropped with everything above deg
        if c:
            for j in range(deg):
                if phi[j]:
                    vec[i - deg + j] -= c * phi[j]
    del vec[deg:]
    vec += [0] * (deg - len(vec))
    return vec


class CyclotomicNumber(Frozen):
    """Element of Q(zeta_n), stored as integer coordinates over one denominator.

    The coordinate vector has length deg Phi_n and represents the element in
    the power basis 1, zeta, ..., zeta^(phi(n)-1); the vector is always fully
    reduced (gcd of all numerators with the denominator is 1, denominator
    positive), so equality is plain tuple comparison.

    >>> w = CyclotomicNumber.zeta(3)
    >>> (w * w + w + 1).is_zero()
    True
    >>> (CyclotomicNumber.one(3) / (1 + w)) == 1 + w**2
    True
    >>> CyclotomicNumber.zeta(72) ** 72 == 1
    True
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, nums: tuple[int, ...], den: int = 1):
        # the reduced form makes equality plain tuple comparison
        deg = euler_phi(order)
        if len(nums) != deg:
            raise ValueError(f"expected {deg} coordinates for order {order}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            nums = tuple(-c for c in nums)
            den = -den
        g = math.gcd(den, *nums) if nums else den
        if g > 1:
            nums = tuple(c // g for c in nums)
            den //= g
        self._freeze(order, nums, den)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, order: int, value: Fraction | int) -> "CyclotomicNumber":
        value = Fraction(value)
        deg = euler_phi(order)
        nums = (value.numerator,) + (0,) * (deg - 1)
        return cls(order, nums, value.denominator)

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 0)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return cls.from_rational(order, 1)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CyclotomicNumber":
        """The root of unity exp(2 pi i power / order), canonically reduced.

        >>> z = CyclotomicNumber.zeta
        >>> z(1, 0).rational_value(), z(72, 36).rational_value()
        (Fraction(1, 1), Fraction(-1, 1))
        >>> w = z(3)
        >>> (1 + w + w * w).is_zero()
        True
        """
        power %= order
        vec = [0] * (power + 1)
        vec[power] = 1
        _reduce_mod_cyclotomic(vec, order)
        return cls(order, tuple(vec), 1)

    # -- predicates and conversions --------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def embed(self, new_order: int) -> "CyclotomicNumber":
        """Image under Q(zeta_n) -> Q(zeta_m), zeta_n |-> zeta_m^(m/n).

        Requires n | m.

        >>> w = CyclotomicNumber.zeta(3).embed(72)
        >>> w == CyclotomicNumber.zeta(72, 24)
        True
        """
        if new_order % self.order != 0:
            raise OrderMismatch(f"{self.order} does not divide {new_order}")
        if new_order == self.order:
            return self
        step = new_order // self.order
        vec = [0] * (len(self.nums) * step)
        for i, c in enumerate(self.nums):
            if c:
                vec[i * step] += c
        _reduce_mod_cyclotomic(vec, new_order)
        return CyclotomicNumber(new_order, tuple(vec), self.den)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "CyclotomicNumber | None":
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise OrderMismatch(
                    f"orders differ: {self.order} vs {other.order}; embed first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        nums = tuple(a * db + b * da for a, b in zip(self.nums, o.nums))
        return CyclotomicNumber(self.order, nums, da * db)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vec = _reduce_mod_cyclotomic(int_convolve(self.nums, o.nums), self.order)
        return CyclotomicNumber(self.order, tuple(vec), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the Galois norm.

        With y the product of the conjugates sigma_k(x), zeta -> zeta^k, over
        k prime to n and k != 1, x * y is the norm of x, a nonzero rational, so
        1/x = y / (x * y).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        n = self.order
        if self.is_rational():
            return CyclotomicNumber.from_rational(n, 1 / self.rational_value())
        y = CyclotomicNumber.one(n)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                vec = [0] * n
                for i, c in enumerate(self.nums):
                    vec[i * k % n] += c
                y = y * CyclotomicNumber(n, tuple(_reduce_mod_cyclotomic(vec, n)), self.den)
        return y * (1 / (self * y).rational_value())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self.nums == other.nums and self.den == other.den
            # Across orders only the shared rational subfield compares
            # directly; anything else needs an embedding, as + and * do.
            if not (self.is_rational() and other.is_rational()):
                raise OrderMismatch(
                    f"orders differ: {self.order} vs {other.order}; embed first"
                )
            return self.rational_value() == other.rational_value()
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == Fraction(other)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.nums):
            if c:
                coeff = str(Fraction(c, self.den))
                terms.append(coeff if i == 0 else f"{coeff}*z{self.order}^{i}")
        return " + ".join(terms) if terms else "0"
