"""Shared test support: an exact Fraction reference for WDVV residuals."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from gwseries.frobenius import FrobeniusPotential, metric_from_potential, third_derivative

_ZERO = Fraction(0)


def _total(slot: dict[int, int]) -> Fraction:
    """The exact sum of the p/d in {d: p}."""
    if not slot:
        return _ZERO
    common = math.lcm(*slot)
    return Fraction(sum(p * (common // d) for d, p in slot.items()), common)


class WdvvReference:
    """The residual sum_{e,f} F_abe eta^{ef} F_fcd - F_ade eta^{ef} F_fbc
    through q^(T-1), term by term from the public third derivatives and the
    inverse metric, by schoolbook products of exact rationals: each term is
    its own numerator over its own denominator, summed per denominator, and
    nothing is cleared to a common denominator or packed."""

    def __init__(self, potential: FrobeniusPotential, truncation: int):
        self.potential = potential
        self.T = truncation
        self.inverse = metric_from_potential(potential).inverse_rows()
        self._thirds: dict[tuple[int, ...], list] = {}
        self._contractions: dict[tuple, dict] = {}

    def third(self, *slots: int) -> list[tuple[tuple[int, ...], list[tuple[int, int, int]]]]:
        """d_a d_b d_c F as [(monomial, [(exponent, numerator, denominator)])],
        the nonzero coefficients below T."""
        key = tuple(sorted(slots))
        if key not in self._thirds:
            names = [self.potential.coords[i] for i in key]
            self._thirds[key] = [
                (monomial, [(e, c.numerator, c.denominator) for e in range(self.T) if (c := series.coefficient(e))])
                for monomial, series in third_derivative(self.potential, *names).items()
            ]
        return self._thirds[key]

    def contraction(self, x: int, y: int, z: int, w: int) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
        """(xy|zw) = sum_{e,f} F_xye eta^{ef} F_fzw as {monomial: T coefficients};
        eta is symmetric, so (xy|zw) = (zw|xy) and one is kept for both."""
        key = tuple(sorted(((min(x, y), max(x, y)), (min(z, w), max(z, w)))))
        if key in self._contractions:
            return self._contractions[key]
        sums: dict[tuple[int, ...], list[dict[int, int]]] = {}  # per exponent {denominator: numerator}
        dim, T = len(self.inverse), self.T
        for e, f in product(range(dim), repeat=2):
            weight = self.inverse[e][f]
            if not weight:
                continue
            right = self.third(f, z, w)
            for m1, u in self.third(x, y, e):
                weighted = [(i, weight.numerator * n, weight.denominator * d) for i, n, d in u]
                for m2, v in right:
                    if (acc := sums.get(monomial := tuple(map(add, m1, m2)))) is None:
                        acc = sums[monomial] = [{} for _ in range(T)]
                    for i, p, d in weighted:
                        for j, n, den in v:
                            if i + j >= T:
                                break
                            slot = acc[i + j]
                            slot[d * den] = slot.get(d * den, 0) + p * n
        out = self._contractions[key] = {monomial: tuple(map(_total, acc)) for monomial, acc in sums.items()}
        return out

    def residual(self, a: int, b: int, c: int, d: int) -> dict[tuple[int, ...], list[Fraction]]:
        """{monomial: T coefficients} of the (a,b,c,d) residual, zero monomials dropped."""
        left = self.contraction(a, b, c, d)
        right = self.contraction(a, d, b, c)
        if left is right:  # (ab|cd) and (ad|bc) are one contraction
            return {}
        zeros = (_ZERO,) * self.T
        out = {}
        for monomial in set(left) | set(right):
            u, v = left.get(monomial, zeros), right.get(monomial, zeros)
            if u != v:
                out[monomial] = [p - q for p, q in zip(u, v)]
        return out

    def assert_first_failure(self, quad: tuple[int, ...], failure) -> None:
        """`failure` is None for a vanishing residual, else (exponent, residual):
        the lowest exponent with a nonzero coefficient, and that coefficient
        for one of the monomials."""
        residual = self.residual(*quad)
        if failure is None:
            assert residual == {}, quad
            return
        exponent, value = failure
        assert exponent == min(next(e for e, x in enumerate(c) if x) for c in residual.values()), quad
        assert Fraction(value) in {c[exponent] for c in residual.values()}, quad


@pytest.fixture
def wdvv_reference():
    return WdvvReference
