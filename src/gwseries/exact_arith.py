"""Exact scalar arithmetic: rational root helpers and the integer kernel.

Rational numbers are plain ``fractions.Fraction`` values throughout the
package; this module adds the exact root helpers the series layer needs,
the value-class base `Frozen`, the input gate `exact`, and `int_convolve`,
the one integer convolution kernel, with its packed-slot format.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import sub
from typing import Sequence


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


def exact(value):
    """`value` itself if it is an int or a Fraction.  Anything else, a float
    say, would enter as its binary value, so it raises TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"exact values are int or Fraction, not {type(value).__name__}")


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
    packed = b"".join([(v + bias).to_bytes(width, "little") for v in values])
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
    square, xs, ys = xs is ys, xs[:n], ys[:n]
    xs_at, ys_at = list(compress(range(len(xs)), xs)), list(compress(range(len(ys)), ys))
    if not xs_at or not ys_at or xs_at[0] + ys_at[0] >= n:
        return [0] * n
    a, b = xs_at[0], ys_at[0]
    g = math.gcd(*map(sub, xs_at[1:], xs_at), *map(sub, ys_at[1:], ys_at)) or 1
    xs, ys = xs[a::g], ys[b::g]
    width = _slot_width(max(map(abs, xs)) * max(map(abs, ys)) * min(len(xs), len(ys)))
    out, count = [0] * n, len(range(a + b, n, g))
    size = min(count, len(xs) + len(ys) - 1)
    product = (packed := _pack_slots(xs, width)) * (packed if square else _pack_slots(ys, width))
    out[a + b :: g] = _unpack_slots(product, width, size) + [0] * (count - size)
    return out
