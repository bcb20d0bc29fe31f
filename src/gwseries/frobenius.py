"""Frobenius potentials: metric, third derivatives, WDVV and Euler residuals.

A potential is a classical cubic polynomial plus a quantum part whose
coefficients are QSeries in q.  Coordinates are ordered (t0, t1, ..., tk, t)
with t0 the unit direction and t = log q the distinguished last coordinate:
differentiating by t acts polynomially on the classical part and as q d/dq
on quantum coefficients.

The WDVV residual is checked for every coordinate quadruple (a,b,c,d):

    sum_{e,f} F_abe eta^{ef} F_fcd  -  F_ade eta^{ef} F_fbc  =  0.

Internally the engine interns the handful of distinct coefficient series,
clears denominators once, and memoizes pair contractions, so the full
dim^4 scan stays exact integer arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from itertools import product

from .exact_arith import int_convolve
from .qseries import QSeries
from .reporting import IdentityReport, failure_report, pass_report

_F0 = Fraction(0)
_F1 = Fraction(1)


class UnknownCoordinate(ValueError):
    pass


class NonConstantMetric(ArithmeticError):
    pass


@dataclasses.dataclass(frozen=True)
class FrobeniusPotential:
    """Genus-zero potential in flat coordinates.

    classical: multi-index (over all coordinates) -> Fraction; cubic for the
               models built here, though the constructor does not insist, so
               metric_from_potential can reject a bad polynomial honestly.
    quantum:   multi-index (zero in the t0 and t slots) -> QSeries; the series
               carries the full coefficient including any rational prefactor.
    degrees:   Euler weight per coordinate; the log coordinate carries 0.
    """

    coords: tuple[str, ...]
    degrees: tuple[Fraction, ...]
    classical: dict[tuple[int, ...], Fraction]
    quantum: dict[tuple[int, ...], QSeries]

    def __post_init__(self):
        n = len(self.coords)
        if len(self.degrees) != n:
            raise ValueError("one Euler weight per coordinate")
        for key, value in self.classical.items():
            if len(key) != n or any(e < 0 for e in key):
                raise ValueError(f"classical key {key} has wrong shape")
            if not isinstance(value, Fraction):
                raise ValueError("classical coefficients must be Fractions")
        for key, value in self.quantum.items():
            if len(key) != n:
                raise ValueError(f"quantum key {key} has wrong length")
            if key[0] != 0 or key[-1] != 0:
                raise ValueError("quantum part may not involve t0 or the log coordinate")
            if not isinstance(value, QSeries):
                raise ValueError("quantum coefficients must be QSeries")

    @property
    def truncation(self) -> int:
        return min((s.truncation for s in self.quantum.values()), default=0)

    def coordinate_index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise UnknownCoordinate(f"{name!r} not among {self.coords}") from None

    def with_mutated_quantum(
        self, key: tuple[int, ...], exponent: int, delta: Fraction
    ) -> "FrobeniusPotential":
        """Copy with one quantum coefficient perturbed (test support)."""
        series = self.quantum[key]
        bumped = series + QSeries.monomial(delta, exponent, series.truncation)
        quantum = dict(self.quantum)
        quantum[key] = bumped
        return dataclasses.replace(self, quantum=quantum)


# -- derivatives ------------------------------------------------------------------


def _classical_derivative(poly: dict, slot: int) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for key, value in poly.items():
        e = key[slot]
        if e:
            new = key[:slot] + (e - 1,) + key[slot + 1 :]
            out[new] = out.get(new, _F0) + value * e
    return out


def _quantum_terms_derivative(terms: list, slot: int, log_slot: int, qdq_cache: dict) -> list:
    out = []
    for key, scalar, series in terms:
        if slot == log_slot:
            cached = qdq_cache.get(id(series))
            if cached is None:
                cached = series.qdq()
                qdq_cache[id(series)] = cached
            out.append((key, scalar, cached))
        else:
            e = key[slot]
            if e:
                out.append((key[:slot] + (e - 1,) + key[slot + 1 :], scalar * e, series))
    return out


def _merge_terms(terms: list) -> list:
    merged: dict[tuple, Fraction] = {}
    series_for: dict[tuple, QSeries] = {}
    for key, scalar, series in terms:
        mk = (key, id(series))
        merged[mk] = merged.get(mk, _F0) + scalar
        series_for[mk] = series
    return [(mk[0], s, series_for[mk]) for mk, s in merged.items() if s]


class _DerivativeTable:
    """Raw third-derivative terms (multi-index, scalar, series) per sorted triple."""

    def __init__(self, potential: FrobeniusPotential, truncation: int):
        self.potential = potential
        self.truncation = truncation
        self.log_slot = len(potential.coords) - 1
        self.one = QSeries.one(truncation)
        self.qdq_cache: dict[int, QSeries] = {}
        self.base = [
            (key, _F1, series.truncate(min(truncation, series.truncation)))
            for key, series in potential.quantum.items()
        ]
        self._cache: dict[tuple[int, int, int], list] = {}

    def terms(self, triple: tuple[int, int, int]) -> list:
        triple = tuple(sorted(triple))
        cached = self._cache.get(triple)
        if cached is not None:
            return cached
        terms = self.base
        poly = self.potential.classical
        for slot in triple:
            terms = _quantum_terms_derivative(terms, slot, self.log_slot, self.qdq_cache)
            poly = _classical_derivative(poly, slot)
        terms = _merge_terms(terms)
        for key, value in poly.items():
            if value:
                terms.append((key, value, self.one))
        self._cache[triple] = terms
        return terms


def third_derivative(
    potential: FrobeniusPotential, a: str, b: str, c: str
) -> dict[tuple[int, ...], QSeries]:
    """The polynomial d_a d_b d_c F as {multi-index: QSeries}.

    >>> from fractions import Fraction
    >>> F = FrobeniusPotential(
    ...     ("t0", "t1", "t"), (Fraction(1), Fraction(1, 2), Fraction(0)),
    ...     {(2, 0, 1): Fraction(1, 2)},
    ...     {(0, 2, 0): QSeries([1, 1], 1, 5)})
    >>> third_derivative(F, "t0", "t0", "t")
    {(0, 0, 0): QSeries(1 + O(q^5))}
    >>> third_derivative(F, "t1", "t1", "t")
    {(0, 0, 0): QSeries(2q + 4q^2 + O(q^5))}
    """
    table = _DerivativeTable(potential, potential.truncation)
    slots = tuple(potential.coordinate_index(x) for x in (a, b, c))
    out: dict[tuple[int, ...], QSeries] = {}
    for key, scalar, series in table.terms(slots):
        piece = series.scale(scalar)
        out[key] = out[key] + piece if key in out else piece
    return {k: v for k, v in out.items() if not v.is_zero()}


# -- metric ------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MetricMatrix:
    coords: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.coords)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("metric must be square over the coordinate list")
        for i in range(n):
            for j in range(i):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("metric must be symmetric")

    def entry(self, a: str, b: str) -> Fraction:
        i = self.coords.index(a)
        j = self.coords.index(b)
        return self.rows[i][j]

    def inverse_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact inverse by Gauss-Jordan elimination; raises if degenerate."""
        n = len(self.rows)
        work = [list(r) + [_F1 if i == j else _F0 for j in range(n)] for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                raise NonConstantMetric("metric is degenerate")
            work[col], work[pivot] = work[pivot], work[col]
            inv = _F1 / work[col][col]
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    factor = work[r][col]
                    work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
        return tuple(tuple(row[n:]) for row in work)


def metric_from_potential(potential: FrobeniusPotential) -> MetricMatrix:
    """eta_ab = d_0 d_a d_b F; every entry must be a constant rational."""
    n = len(potential.coords)
    table = _DerivativeTable(potential, max(potential.truncation, 1))
    zero_key = (0,) * n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            value = _F0
            for key, scalar, series in table.terms((0, i, j)):
                if key != zero_key:
                    raise NonConstantMetric(
                        f"entry ({potential.coords[i]},{potential.coords[j]}) "
                        f"depends on coordinates: monomial {key}"
                    )
                for exponent, coeff in series.known_terms():
                    if exponent != 0:
                        raise NonConstantMetric(
                            f"entry ({potential.coords[i]},{potential.coords[j]}) "
                            f"depends on q at order {exponent}"
                        )
                    value += scalar * coeff
            row.append(value)
        rows.append(tuple(row))
    return MetricMatrix(potential.coords, tuple(rows))


# -- Euler grading -----------------------------------------------------------------


def euler_residual(potential: FrobeniusPotential, name: str = "euler-grading") -> IdentityReport:
    """E F = 2F with E = sum deg(t_i) t_i d_i: every monomial has weight 2.

    The q-direction is weightless for these elliptic orbifolds, so the check
    is a pure degree count; the series factors never enter.
    """
    order = max(potential.truncation, 1)
    for part in (potential.classical, potential.quantum):
        for key in part:
            weight = sum((d * e for d, e in zip(potential.degrees, key)), _F0)
            if weight != 2:
                return failure_report(name, order, key, 0, weight - 2)
    return pass_report(name, order)


# -- WDVV --------------------------------------------------------------------------


class _WdvvEngine:
    """Exact associativity residuals with all denominators cleared up front."""

    def __init__(self, potential: FrobeniusPotential, truncation: int):
        metric = metric_from_potential(potential)
        inverse = metric.inverse_rows()
        self.dim = len(potential.coords)
        self.T = truncation
        self.table = _DerivativeTable(potential, truncation)
        self.eta_pairs = [
            (e, f, w)
            for e in range(self.dim)
            for f in range(self.dim)
            if (w := inverse[e][f])
        ]
        # intern every distinct coefficient series as an integer array
        self._ref_of: dict[int, int] = {}
        self._arrays: list[list[int]] = []
        self._series: list[QSeries] = []
        self.scale = 1
        self._pair_products: dict[tuple[int, int], list[int]] = {}
        self._contractions: dict[tuple, tuple[int, dict]] = {}
        # the full derivative table up front, so the denominator scale is global
        self._term_lists: dict[tuple[int, int, int], list] = {}
        for i in range(self.dim):
            for j in range(i, self.dim):
                for k in range(j, self.dim):
                    self._term_lists[(i, j, k)] = [
                        (key, scalar, self._ref(series))
                        for key, scalar, series in self.table.terms((i, j, k))
                    ]
        self._finalize_arrays()

    def _ref(self, series: QSeries) -> int:
        ref = self._ref_of.get(id(series))
        if ref is None:
            if not series.is_zero() and series.valuation < 0:
                raise ValueError("WDVV engine expects power-series coefficients")
            ref = len(self._series)
            self._ref_of[id(series)] = ref
            self._series.append(series)
        return ref

    def _terms(self, triple) -> list:
        return self._term_lists[tuple(sorted(triple))]

    def _finalize_arrays(self):
        denoms = [1]
        columns = []
        for series in self._series:
            col = [series.coefficient(e) for e in range(min(self.T, series.truncation))]
            col += [_F0] * (self.T - len(col))
            columns.append(col)
            denoms.extend(c.denominator for c in col)
        self.scale = math.lcm(*denoms)
        for col in columns:
            self._arrays.append([int(c * self.scale) for c in col])

    def _pair_product(self, i: int, j: int) -> list[int]:
        key = (i, j) if i <= j else (j, i)
        out = self._pair_products.get(key)
        if out is None:
            a, b = self._arrays[key[0]], self._arrays[key[1]]
            out = self._pair_products[key] = int_convolve(a, b, self.T)
        return out

    def contraction(self, pair1: tuple[int, int], pair2: tuple[int, int]):
        """(xy|zw) = sum_{e,f} F_xye eta^{ef} F_fzw, as {monomial: int array}.

        Returns (L, polynomial) where true coefficients are array/(L*scale^2).
        """
        key = tuple(sorted((tuple(sorted(pair1)), tuple(sorted(pair2)))))
        cached = self._contractions.get(key)
        if cached is not None:
            return cached
        p1, p2 = key
        acc: dict[tuple, dict[tuple[int, int], Fraction]] = {}
        for e, f, w in self.eta_pairs:
            t1 = self._terms(tuple(sorted((*p1, e))))
            if not t1:
                continue
            t2 = self._terms(tuple(sorted((*p2, f))))
            for m1, s1, r1 in t1:
                s1w = s1 * w
                for m2, s2, r2 in t2:
                    midx = tuple(x + y for x, y in zip(m1, m2))
                    pk = (r1, r2) if r1 <= r2 else (r2, r1)
                    bucket = acc.setdefault(midx, {})
                    bucket[pk] = bucket.get(pk, _F0) + s1w * s2
        denoms = [1]
        for bucket in acc.values():
            denoms.extend(s.denominator for s in bucket.values())
        L = math.lcm(*denoms)
        poly: dict[tuple, list[int]] = {}
        for midx, bucket in acc.items():
            vec = [0] * self.T
            for (i, j), s in bucket.items():
                si = s.numerator * (L // s.denominator)
                if si:
                    prod = self._pair_product(i, j)
                    for e in range(self.T):
                        if prod[e]:
                            vec[e] += si * prod[e]
            if any(vec):
                poly[midx] = vec
        result = (L, poly)
        self._contractions[key] = result
        return result

    def residual_failure(self, a: int, b: int, c: int, d: int):
        """First nonzero coefficient of the (a,b,c,d) residual, or None."""
        l1, p1 = self.contraction((a, b), (c, d))
        l2, p2 = self.contraction((a, d), (b, c))
        m = math.lcm(l1, l2)
        m1, m2 = m // l1, m // l2
        best = None
        for midx in set(p1) | set(p2):
            v1 = p1.get(midx)
            v2 = p2.get(midx)
            for e in range(self.T):
                x = (v1[e] * m1 if v1 else 0) - (v2[e] * m2 if v2 else 0)
                if x:
                    if best is None or e < best[0]:
                        best = (e, Fraction(x, m * self.scale * self.scale))
                    break
        return best


def _quadruple_order(dim: int, fail_fast: bool):
    quads = list(product(range(dim), repeat=4))
    if fail_fast:
        # unit-direction residuals vanish identically; scan contentful ones first
        quads.sort(key=lambda q: (0 in q, q))
    return quads


def wdvv_residual(
    potential: FrobeniusPotential,
    truncation: int,
    *,
    skip_symmetric: bool = False,
    fail_fast: bool = False,
    name: str = "wdvv",
) -> IdentityReport:
    """Associativity residual over every coordinate quadruple.

    skip_symmetric drops quadruples whose residual is forced by one already
    checked (swapping a<->c or b<->d only flips the sign); the default checks
    all dim^4 of them.  fail_fast stops at the first failing quadruple.
    """
    engine = _WdvvEngine(potential, truncation)
    dim = engine.dim
    for quad in _quadruple_order(dim, fail_fast):
        a, b, c, d = quad
        if b == d:
            continue  # antisymmetric in (b, d), identically zero
        if skip_symmetric and min(quad, (c, b, a, d), (a, d, c, b), (c, d, a, b)) != quad:
            continue
        failure = engine.residual_failure(a, b, c, d)
        if failure is not None:
            exponent, residual = failure
            return failure_report(name, truncation, quad, exponent, residual)
    return pass_report(name, truncation)
