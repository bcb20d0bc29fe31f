"""Frobenius potentials: metric, third derivatives, WDVV and Euler residuals.

A potential is a classical cubic polynomial plus a quantum part whose
coefficients are QSeries in q.  Coordinates are ordered (t0, t1, ..., tk, t)
with t0 the unit direction and t = log q the distinguished last coordinate.
Third derivatives follow one closed-form rule: on a monomial, d_a d_b d_c
lowers the multi-index by the triple and multiplies by the falling factorials.
The classical part is lowered in all three slots; quantum keys never contain
t, so there each t in the triple acts as q d/dq on the coefficient series.
The metric eta_ab = d_0 d_a d_b F sees the classical part only.

The WDVV residual is checked for every coordinate quadruple (a,b,c,d):

    sum_{e,f} F_abe eta^{ef} F_fcd  -  F_ade eta^{ef} F_fbc  =  0.

Internally each coefficient series is interned up to a rational scalar and
packed once into a single int (Kronecker substitution, in the slot format of
exact_arith), so the scan is integer arithmetic only: a product of two
series is one multiplication, a residual is a difference of packed ints,
and its first nonzero coefficient is read from the lowest set bit.  A
contraction is kept only until the scan's last read of it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import NamedTuple

from .exact_arith import Frozen, _first_slot, _pack_slots, _slot_width, _unpack_slots
from .qseries import PrecisionError, QSeries
from .reporting import IdentityReport, failure_report, pass_report

_F0 = Fraction(0)
_F1 = Fraction(1)


class UnknownCoordinate(ValueError):
    pass


class NonConstantMetric(ArithmeticError):
    pass


class FrobeniusPotential(Frozen):
    """Genus-zero potential in flat coordinates.

    coords:    coordinate names, t0 first and the log coordinate t last.
    degrees:   Euler weight per coordinate; the log coordinate carries 0.
    classical: multi-index (over all coordinates) -> Fraction; cubic for the
               models built here, though the constructor does not insist, so
               metric_from_potential can reject a bad polynomial honestly.
    quantum:   multi-index (zero in the t0 and t slots) -> QSeries; the series
               carries the full coefficient including any rational prefactor.
    """

    __slots__ = ("coords", "degrees", "classical", "quantum")

    def __init__(
        self,
        coords: tuple[str, ...],
        degrees: tuple[Fraction, ...],
        classical: dict[tuple[int, ...], Fraction],
        quantum: dict[tuple[int, ...], QSeries],
    ):
        n = len(coords)
        if n < 2:
            raise ValueError("need distinct unit (t0) and log (t) coordinates")
        if len(degrees) != n:
            raise ValueError("one Euler weight per coordinate")
        for key, value in classical.items():
            if len(key) != n or any(e < 0 for e in key):
                raise ValueError(f"classical key {key} has wrong shape")
            if not isinstance(value, Fraction):
                raise ValueError("classical coefficients must be Fractions")
        # quantum keys free of t0 and t are what make wdvv_residual's skip of the t0
        # quadruples and metric_from_potential's classical-only read sound
        for key, value in quantum.items():
            if len(key) != n:
                raise ValueError(f"quantum key {key} has wrong length")
            if key[0] != 0 or key[-1] != 0:
                raise ValueError("quantum part may not involve t0 or the log coordinate")
            if not isinstance(value, QSeries):
                raise ValueError("quantum coefficients must be QSeries")
        self._freeze(coords, degrees, classical, quantum)

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
        return FrobeniusPotential(self.coords, self.degrees, self.classical, quantum)


def _orbit(representative: tuple[int, ...], blocks) -> list[tuple[int, ...]]:
    """The distinct images of a multi-index under every permutation of the
    equal-length slot tuples `blocks`, in the order first met."""
    images: dict[tuple[int, ...], None] = {}
    for perm in permutations(blocks):
        image = list(representative)
        for source, target in zip(blocks, perm):
            for s, t in zip(source, target):
                image[t] = representative[s]
        images[tuple(image)] = None
    return list(images)


def orbit_potential(coords, degrees, blocks, classical_rows, quantum_rows) -> FrobeniusPotential:
    """A potential written as one row per orbit of the permutations of `blocks`.

    A row is (representative multi-index, prefactor), plus the QSeries for a
    quantum row.  Each distinct image of the representative is a key, the
    keys of a quantum row share one scaled series, and a key two rows reach
    carries their sum.  The (2,2,2,2) rows t1^4 and t1^2 t2^2:

    >>> one, rows = QSeries.one(4), [((0, 4, 0, 0, 0, 0), 4), ((0, 2, 2, 0, 0, 0), 6)]
    >>> F = orbit_potential("t0 t1 t2 t3 t4 t".split(), [0] * 6, ((1,), (2,), (3,), (4,)),
    ...                     [], [(key, Fraction(1, n), one) for key, n in rows])
    >>> sorted(Counter(map(id, F.quantum.values())).values())  # keys per shared series
    [4, 6]
    """
    classical: dict[tuple[int, ...], Fraction] = {}
    for representative, prefactor in classical_rows:
        for key in _orbit(representative, blocks):
            classical[key] = classical.get(key, _F0) + prefactor
    quantum: dict[tuple[int, ...], QSeries] = {}
    for representative, prefactor, series in quantum_rows:
        scaled = series.scale(prefactor)
        for key in _orbit(representative, blocks):
            quantum[key] = quantum[key] + scaled if key in quantum else scaled
    return FrobeniusPotential(tuple(coords), tuple(degrees), classical, quantum)


# -- derivatives ------------------------------------------------------------------


def _lower(key: tuple[int, ...], slots) -> tuple[tuple[int, ...], int] | None:
    """d/dt_s once for each s in `slots` on the monomial t^key: the lowered
    multi-index and the product of the falling factorials, or None when an
    exponent runs out."""
    lowered = list(key)
    scalar = 1
    for slot in slots:
        if not lowered[slot]:
            return None
        scalar *= lowered[slot]
        lowered[slot] -= 1
    return tuple(lowered), scalar


def _derivative_terms(potential: FrobeniusPotential, truncation: int):
    """The rule of the module docstring as triple -> [(multi-index, scalar,
    series)] for d_a d_b d_c F: quantum terms first, in the potential's order,
    then classical ones.  Series stop at `truncation`, which no quantum series
    may stop below; there is one per (quantum series object, number of t
    slots), so keys sharing a series share its q d/dq tower, plus one constant
    series shared by the classical part.
    """
    log = len(potential.coords) - 1
    one = QSeries.one(truncation)
    towers: dict[int, list[QSeries]] = {}
    for series in potential.quantum.values():
        if id(series) not in towers:
            tower = towers[id(series)] = [series.truncate(truncation)]
            for _ in range(3):
                tower.append(tower[-1].qdq())

    def terms(triple: tuple[int, int, int]) -> list:
        slots = [s for s in triple if s != log]
        out = [
            (*lowered, towers[id(series)][3 - len(slots)])
            for key, series in potential.quantum.items()
            if (lowered := _lower(key, slots)) is not None
        ]
        for key, value in potential.classical.items():
            if value and (lowered := _lower(key, triple)) is not None:
                out.append((lowered[0], value * lowered[1], one))
        return out

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
    slots = tuple(potential.coordinate_index(x) for x in (a, b, c))
    out: dict[tuple[int, ...], QSeries] = {}
    for key, scalar, series in _derivative_terms(potential, potential.truncation)(slots):
        piece = series.scale(scalar)
        out[key] = out[key] + piece if key in out else piece
    return {k: v for k, v in out.items() if not v.is_zero()}


# -- metric ------------------------------------------------------------------------


class MetricMatrix(NamedTuple):
    coords: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

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
    """eta_ab = d_0 d_a d_b F; every entry must be a constant rational.

    Quantum keys have no t0, so d_0 kills the whole quantum part and only the
    classical polynomial reaches the metric.
    """
    n = len(potential.coords)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            value = _F0
            for key, coeff in potential.classical.items():
                if coeff and (lowered := _lower(key, (0, i, j))) is not None:
                    if any(lowered[0]):
                        raise NonConstantMetric(
                            f"entry ({potential.coords[i]},{potential.coords[j]}) "
                            f"depends on coordinates: monomial {lowered[0]}"
                        )
                    value += coeff * lowered[1]
            row.append(value)
        rows.append(tuple(row))
    return MetricMatrix(potential.coords, tuple(rows))


# -- Euler grading -----------------------------------------------------------------


def euler_residual(potential: FrobeniusPotential) -> IdentityReport:
    """E F = 2F with E = sum deg(t_i) t_i d_i: every monomial has weight 2.

    The q-direction is weightless for these elliptic orbifolds, so the check
    is a pure degree count; the series factors never enter.
    """
    order = max(potential.truncation, 1)
    for part in (potential.classical, potential.quantum):
        for key in part:
            weight = sum((d * e for d, e in zip(potential.degrees, key)), _F0)
            if weight != 2:
                return failure_report("euler-grading", order, key, 0, weight - 2)
    return pass_report("euler-grading", order)


# -- WDVV --------------------------------------------------------------------------


class _WdvvEngine:
    """Exact associativity residuals in packed-integer arithmetic.

    Each derivative-term series object is interned once, by its valuation
    and primitive numerators (`_intern`); the rest of it joins the scalar of
    every term that holds it.  Scalars and inverse-metric weights are integers over one common
    denominator each.  Base series are packed into T slots wide enough for
    any residual coefficient plus a sign bit, all mod 2^(8 width T), so slots
    past T drop out.  A pair product is one memoized multiplication.  A
    contraction, an integer combination of pair products per monomial, is
    memoized while `reads` counts reads left for it.  A residual is the
    difference of two packed ints, first nonzero at the lowest set bit.
    Monomials are packed one slot per coordinate, so multiplying two of them
    is one addition.
    """

    def __init__(self, potential: FrobeniusPotential, truncation: int):
        if potential.quantum and potential.truncation < truncation:
            raise PrecisionError(f"wdvv: need order {truncation}, have {potential.truncation}")
        inverse = metric_from_potential(potential).inverse_rows()
        self.dim = dim = len(potential.coords)
        derivative_terms = _derivative_terms(potential, truncation)
        ref_of: dict[tuple[int, tuple[int, ...]], int] = {}
        interned: dict[int, tuple[Fraction, int] | None] = {}  # by id of a term's series
        triples: dict[tuple[int, int, int], list] = {}
        for triple in combinations_with_replacement(range(dim), 3):
            triples[triple] = []
            for key, scalar, series in derivative_terms(triple):
                if id(series) not in interned:
                    interned[id(series)] = _intern(series, ref_of)
                if (entry := interned[id(series)]) is not None:
                    triples[triple].append((key, scalar * entry[0], entry[1]))
        eta = [(e, f, w) for e in range(dim) for f in range(dim) if (w := inverse[e][f])]
        d_scalar = math.lcm(*(s.denominator for terms in triples.values() for _, s, _ in terms))
        d_weight = math.lcm(*(w.denominator for _, _, w in eta))
        self.denominator = d_scalar**2 * d_weight
        arrays = [[0] * valuation + list(numerators) for valuation, numerators in ref_of]
        self.eta_pairs = [(e, f, w.numerator * (d_weight // w.denominator)) for e, f, w in eta]
        degree = max((max(key) for terms in triples.values() for key, _, _ in terms), default=0)
        self.monomial_width = _slot_width(2 * degree)
        self._terms = {
            triple: [
                (_pack_slots(key, self.monomial_width), s.numerator * (d_scalar // s.denominator), r)
                for key, s, r in terms
            ]
            for triple, terms in triples.items()
        }
        # a residual coefficient is a difference of two sums of
        # weight * scalar * scalar * (pair-product coefficient of at most T terms)
        weights = sum(abs(w) for _, _, w in self.eta_pairs)
        scalars = max((sum(abs(s) for _, s, _ in terms) for terms in self._terms.values()), default=0)
        largest = max((abs(v) for array in arrays for v in array), default=0)
        self.width = _slot_width(2 * weights * scalars**2 * truncation * largest**2)
        self.mask = (1 << (8 * self.width * truncation)) - 1
        self._packed = [_pack_slots(array, self.width) for array in arrays]
        self._pair_products: list[list[int | None]] = [[None] * len(arrays) for _ in arrays]
        self._contractions: dict[tuple, dict[int, int]] = {}
        self.reads: Counter = Counter()  # reads left in the scan, per contraction

    def contraction(self, key: tuple) -> dict[int, int]:
        """(xy|zw) = sum_{e,f} F_xye eta^{ef} F_fzw for key ((x,y),(z,w)) as
        {packed monomial: packed coefficients}, nonzero ones only, in units of
        1/denominator."""
        poly = self._contractions.pop(key, None)
        if poly is None:
            p1, p2 = key
            acc: dict[int, int] = {}
            products = self._pair_products
            for e, f, w in self.eta_pairs:
                t1 = self._terms[tuple(sorted((*p1, e)))]
                if not t1:
                    continue
                t2 = self._terms[tuple(sorted((*p2, f)))]
                for m1, s1, r1 in t1:
                    s1w = s1 * w
                    row = products[r1]
                    for m2, s2, r2 in t2:
                        product = row[r2]
                        if product is None:
                            product = (self._packed[r1] * self._packed[r2]) & self.mask
                            row[r2] = products[r2][r1] = product
                        acc[m1 + m2] = acc.get(m1 + m2, 0) + s1w * s2 * product
            poly = {m: total & self.mask for m, total in acc.items() if total & self.mask}
        if (remaining := self.reads.pop(key, 0) - 1) > 0:
            self.reads[key], self._contractions[key] = remaining, poly
        return poly

    def residual_failure(self, a: int, b: int, c: int, d: int):
        """First nonzero coefficient of the (a,b,c,d) residual as
        (exponent, residual), or None."""
        p1, p2 = (self.contraction(key) for key in _contraction_keys(a, b, c, d))
        if p1 == p2:
            return None
        # a tie in the exponent goes to the first monomial met in a set of
        # monomial tuples, so the failure reported does not depend on packing
        p1, p2 = (
            {tuple(_unpack_slots(m, self.monomial_width, self.dim)): v for m, v in p.items()}
            for p in (p1, p2)
        )
        best = None
        for midx in set(p1) | set(p2):
            slot = _first_slot((p1.get(midx, 0) - p2.get(midx, 0)) & self.mask, self.width)
            if slot is not None and (best is None or slot[0] < best[0]):
                best = slot
        return best[0], Fraction(best[1], self.denominator)


def _intern(series: QSeries, ref_of: dict) -> tuple[Fraction, int] | None:
    """(factor, ref) with series = factor * (base series number ref), the base
    its valuation and primitive numerators, first one positive, numbered in
    `ref_of` as first met; None for a zero series."""
    if series.valuation < 0:
        raise ValueError("WDVV engine expects power-series coefficients")
    if not series.coeffs:
        return None
    g = math.gcd(*series.coeffs) * (1 if series.coeffs[0] > 0 else -1)
    base = (series.valuation, tuple(x // g for x in series.coeffs))
    return Fraction(g, series.den), ref_of.setdefault(base, len(ref_of))


def _contraction_keys(a: int, b: int, c: int, d: int) -> list[tuple]:
    """Memo keys of (ab|cd) and (ad|bc), the two sides of the (a,b,c,d) residual."""
    sides = (((a, b), (c, d)), ((a, d), (b, c)))
    return [tuple(sorted((tuple(sorted(x)), tuple(sorted(y))))) for x, y in sides]


def wdvv_residual(potential: FrobeniusPotential, truncation: int) -> IdentityReport:
    """Associativity residual over the coordinate quadruples, in
    lexicographic order; PrecisionError if a quantum series stops below
    `truncation`.

    Swapping a<->c or b<->d negates the residual, and a == c or b == d makes
    it vanish identically (the contraction is symmetric in its two pairs), so
    only a < c and b < d is checked: the least quadruple of its orbit, which
    is where the first failure lies.  Any quadruple with the unit index 0 is
    skipped too: quantum keys have no t0 and metric_from_potential rejects a
    non-constant metric, so F_0xy = eta_xy exactly and both contractions
    reduce to the same third derivative.
    """
    engine = _WdvvEngine(potential, truncation)
    quads = [q for q in product(range(1, engine.dim), repeat=4) if q[0] < q[2] and q[1] < q[3]]
    engine.reads = Counter(key for quad in quads for key in _contraction_keys(*quad))
    for quad in quads:
        if (failure := engine.residual_failure(*quad)) is not None:
            return failure_report("wdvv", truncation, quad, *failure)
    return pass_report("wdvv", truncation)
