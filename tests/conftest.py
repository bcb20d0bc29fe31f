"""Shared test support: an exact Fraction reference for WDVV residuals."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from gwseries.frobenius import FrobeniusPotential, metric_from_potential, third_derivative


class WdvvReference:
    """The residual sum_{e,f} F_abe eta^{ef} F_fcd - F_ade eta^{ef} F_fbc
    through q^(T-1), term by term from the public third derivatives and the
    inverse metric, with schoolbook Fraction products: nothing is cleared to
    integers or packed."""

    def __init__(self, potential: FrobeniusPotential, truncation: int):
        self.potential = potential
        self.T = truncation
        self.inverse = metric_from_potential(potential).inverse_rows()
        self._thirds: dict[tuple[int, ...], dict] = {}
        self._contractions: dict[tuple, dict] = {}

    def third(self, *slots: int) -> dict[tuple[int, ...], list[tuple[int, Fraction]]]:
        """d_a d_b d_c F as {monomial: its nonzero (exponent, coefficient) pairs below T}."""
        key = tuple(sorted(slots))
        if key not in self._thirds:
            names = [self.potential.coords[i] for i in key]
            self._thirds[key] = {
                monomial: [(e, c) for e in range(self.T) if (c := series.coefficient(e))]
                for monomial, series in third_derivative(self.potential, *names).items()
            }
        return self._thirds[key]

    def contraction(self, x: int, y: int, z: int, w: int) -> dict[tuple[int, ...], list[Fraction]]:
        key = (min(x, y), max(x, y), min(z, w), max(z, w))
        if key in self._contractions:
            return self._contractions[key]
        out = self._contractions[key] = {}
        dim = len(self.inverse)
        for e, f in product(range(dim), repeat=2):
            weight = self.inverse[e][f]
            if not weight:
                continue
            for m1, u in self.third(x, y, e).items():
                weighted = [(i, weight * ui) for i, ui in u]
                for m2, v in self.third(f, z, w).items():
                    monomial = tuple(i + j for i, j in zip(m1, m2))
                    acc = out.setdefault(monomial, [Fraction(0)] * self.T)
                    for i, ui in weighted:
                        for j, vj in v:
                            if i + j >= self.T:
                                break
                            acc[i + j] += ui * vj
        return out

    def residual(self, a: int, b: int, c: int, d: int) -> dict[tuple[int, ...], list[Fraction]]:
        """{monomial: T coefficients} of the (a,b,c,d) residual, zero monomials dropped."""
        left = self.contraction(a, b, c, d)
        right = self.contraction(a, d, b, c)
        zeros = [Fraction(0)] * self.T
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
