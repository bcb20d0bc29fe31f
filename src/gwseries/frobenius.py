"""Frobenius potentials: metric, third derivatives, WDVV and Euler residuals.

A potential is a classical cubic polynomial plus a quantum part whose
coefficients are QSeries in q.  Coordinates are ordered (t0, t1, ..., tk, t)
with t0 the unit direction and t = log q the distinguished last coordinate.
Third derivatives follow one closed-form rule: on a monomial, d_a d_b d_c
lowers the multi-index by the triple and multiplies by the falling factorials.
The classical part is lowered in all three slots; quantum keys never contain
t, so there each t in the triple acts as q d/dq on the coefficient series.
The metric eta_ab = d_0 d_a d_b F sees the classical part only.

The WDVV residual of a coordinate quadruple (a,b,c,d),

    sum_{e,f} F_abe eta^{ef} F_fcd  -  F_ade eta^{ef} F_fbc,

is checked on one quadruple per orbit.  A coordinate permutation under which
both parts are exactly invariant maps a residual to that of the image
quadruple, monomials renamed; a<->c and b<->d negate it, (b,a,d,c) and
(c,d,a,b) fix it.  So a representative decides its whole orbit, and the
first failing quadruple in lexicographic order, failing with its orbit, is
the least of it: the scan, which meets each orbit first at its least,
reports what a full scan would.

Internally each coefficient series is interned up to a rational scalar and
packed once into a single int (Kronecker substitution, in the slot format of
exact_arith), so the scan is integer arithmetic only: a product of two
series is one multiplication, a residual is a difference of packed ints,
and its first nonzero coefficient is read from the lowest set bit.  Only the
residue class each series occupies is packed: the stride g is the gcd of the
exponent offsets within every series (3 for e6, 2 for d4), read from the
numerators, so a perturbation off the class only lowers g and stays seen.  A
contraction is kept only until the scan's last read of it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import and_, itemgetter, mul
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
    symmetries: permutations i -> perm[i] of the coordinates, fixing t0 and t,
               that F should be invariant under; wdvv_residual verifies them.
    """

    __slots__ = ("coords", "degrees", "classical", "quantum", "symmetries")

    def __init__(
        self,
        coords: tuple[str, ...],
        degrees: tuple[Fraction, ...],
        classical: dict[tuple[int, ...], Fraction],
        quantum: dict[tuple[int, ...], QSeries],
        symmetries: tuple[tuple[int, ...], ...] = (),
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
        if any(sorted(p) != list(range(n)) or p[0] or p[-1] != n - 1 for p in symmetries):
            raise ValueError("symmetries must be permutations fixing t0 and t")
        self._freeze(coords, degrees, classical, quantum, tuple(map(tuple, symmetries)))

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
        return FrobeniusPotential(self.coords, self.degrees, self.classical, quantum, self.symmetries)


def _closure(start, moves) -> set:
    """Everything that the functions `moves` reach from `start`."""
    found = frontier = {start}
    while frontier:
        frontier = {move(x) for x in frontier for move in moves} - found
        found = found | frontier
    return found


def orbit_potential(coords, degrees, blocks, classical_rows, quantum_rows) -> FrobeniusPotential:
    """A potential written as one row per orbit of the permutations of `blocks`.

    A row is (representative multi-index, prefactor), plus the QSeries for a
    quantum row.  The symmetries are the adjacent swaps of the blocks; each
    image of a representative under them is a key, the keys of a quantum row
    share one scaled series, and a key two rows reach carries their sum:

    >>> one, rows = QSeries.one(4), [((0, 4, 0, 0, 0, 0), 4), ((0, 2, 2, 0, 0, 0), 6)]
    >>> F = orbit_potential("t0 t1 t2 t3 t4 t".split(), [0] * 6, ((1,), (2,), (3,), (4,)),
    ...                     [], [(key, Fraction(1, n), one) for key, n in rows])
    >>> sorted(Counter(map(id, F.quantum.values())).values())  # keys per shared series
    [4, 6]
    """
    swaps = [[dict(zip(a + b, b + a)).get(i, i) for i in range(len(coords))] for a, b in zip(blocks, blocks[1:])]
    moves = [itemgetter(*s) for s in swaps]  # a swap is its own inverse
    classical: dict[tuple[int, ...], Fraction] = {}
    for representative, prefactor in classical_rows:
        for key in sorted(_closure(representative, moves)):
            classical[key] = classical.get(key, _F0) + prefactor
    quantum: dict[tuple[int, ...], QSeries] = {}
    for representative, prefactor, series in quantum_rows:
        scaled = series.scale(prefactor)
        for key in sorted(_closure(representative, moves)):
            quantum[key] = quantum[key] + scaled if key in quantum else scaled
    return FrobeniusPotential(tuple(coords), tuple(degrees), classical, quantum, swaps)


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

    The q-direction is weightless for these elliptic orbifolds, so the check is
    a degree count, in integers over the lcm of the degree denominators.
    """
    order = max(potential.truncation, 1)
    scale = math.lcm(*(d.denominator for d in potential.degrees))
    degrees = [d.numerator * (scale // d.denominator) for d in potential.degrees]
    for part in (potential.classical, potential.quantum):
        for key in part:
            if (weight := sum(map(mul, degrees, key))) != 2 * scale:
                return failure_report("euler-grading", order, key, 0, Fraction(weight, scale) - 2)
    return pass_report("euler-grading", order)


# -- WDVV --------------------------------------------------------------------------


class _WdvvEngine:
    """Exact associativity residuals in packed-integer arithmetic.

    Each derivative-term series object is interned once, by its valuation
    and primitive numerators (`_intern`); the rest of it joins the scalar of
    every term that holds it.  Scalars and inverse-metric weights are integers
    over one common denominator each.  A base of class c = valuation mod g
    keeps one slot per exponent c + g k below T (`slots` at most), wide enough
    for any residual coefficient plus a sign bit.  A pair product is one
    memoized multiplication, in class s mod g for the class sum s, one slot up
    per carry, masked to the exponents below T so that later ones drop out.  A
    contraction, an integer combination of pair products per monomial and
    class, is memoized while `reads` counts reads left for it.  A residual is
    a difference of packed ints, first nonzero at the lowest set bit.
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
        self.eta_pairs = [(e, f, w.numerator * (d_weight // w.denominator)) for e, f, w in eta]
        g = self.stride = math.gcd(*(i for _, nums in ref_of for i, x in enumerate(nums) if x)) or 1
        classes = self._classes = [valuation % g for valuation, _ in ref_of]
        arrays = [[0] * (valuation // g) + list(nums[::g]) for valuation, nums in ref_of]
        self.slots = len(range(0, truncation, g))
        degree = max((max(key) for terms in triples.values() for key, _, _ in terms), default=0)
        self.monomial_width = mw = _slot_width(2 * degree)
        # a term's key is its packed monomial * (2g - 1) + its base's class, so the sum
        # of two keys holds the class sum s < 2g - 1 of their pair product
        spread = 2 * g - 1
        self._terms = {
            triple: [
                (_pack_slots(key, mw) * spread + classes[r], s.numerator * (d_scalar // s.denominator), r)
                for key, s, r in terms
            ]
            for triple, terms in triples.items()
        }
        # a residual coefficient is a difference of two sums of
        # weight * scalar * scalar * (pair-product coefficient of at most `slots` terms)
        weights = sum(abs(w) for _, _, w in self.eta_pairs)
        scalars = max((sum(abs(s) for _, s, _ in terms) for terms in self._terms.values()), default=0)
        largest = max((abs(v) for array in arrays for v in array), default=0)
        self.width = _slot_width(2 * weights * scalars**2 * self.slots * largest**2)
        # class sum s keeps the slots of its exponents s, s + g, ... below T
        self.masks = [(1 << 8 * self.width * len(range(s, truncation, g))) - 1 for s in range(2 * g - 1)]
        self._packed = [_pack_slots(array, self.width) for array in arrays]
        self._pair_products: list[list[int | None]] = [[None] * len(arrays) for _ in arrays]
        self._contractions: dict[tuple, dict[int, tuple[int, ...]]] = {}
        self.reads: Counter = Counter()  # reads left in the scan, per contraction

    def contraction(self, key: tuple) -> dict[int, tuple[int, ...]]:
        """(xy|zw) = sum_{e,f} F_xye eta^{ef} F_fzw for key ((x,y),(z,w)) as
        {packed monomial: packed coefficients of each class}, nonzero ones
        only, in units of 1/denominator."""
        poly = self._contractions.pop(key, None)
        if poly is None:
            p1, p2 = key
            acc: dict[int, int] = {}
            products, classes = self._pair_products, self._classes
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
                            mask = self.masks[classes[r1] + classes[r2]]
                            product = (self._packed[r1] * self._packed[r2]) & mask
                            row[r2] = products[r2][r1] = product
                        acc[m1 + m2] = acc.get(m1 + m2, 0) + s1w * s2 * product
            # class sum s is class s mod g, shifted one slot per carry s // g
            g, split = self.stride, {}
            for m, total in acc.items():
                monomial, s = divmod(m, 2 * g - 1)
                split.setdefault(monomial, [0] * g)[s % g] += total << (8 * self.width * (s // g))
            masked = ((m, tuple(map(and_, totals, self.masks))) for m, totals in split.items())
            poly = {m: totals for m, totals in masked if any(totals)}
        if (remaining := self.reads.pop(key, 0) - 1) > 0:
            self.reads[key], self._contractions[key] = remaining, poly
        return poly

    def residual_failure(self, a: int, b: int, c: int, d: int):
        """First nonzero coefficient of the (a,b,c,d) residual as
        (exponent, residual), or None."""
        p1, p2 = (self.contraction(key) for key in _contraction_keys(a, b, c, d))
        if p1 == p2:
            return None
        # slot k of class c is exponent c + g k; a tie in the exponent goes to the first monomial
        # met in a set of monomial tuples, so the failure reported does not depend on packing
        p1, p2 = (
            {tuple(_unpack_slots(m, self.monomial_width, self.dim)): v for m, v in p.items()}
            for p in (p1, p2)
        )
        g, zero, best = self.stride, (0,) * self.stride, None
        for midx in set(p1) | set(p2):
            for c, x, y, mask in zip(range(g), p1.get(midx, zero), p2.get(midx, zero), self.masks):
                slot = _first_slot((x - y) & mask, self.width)
                if slot is not None and (best is None or c + g * slot[0] < best[0]):
                    best = c + g * slot[0], slot[1]
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


def _invariant(potential: FrobeniusPotential, perm: tuple[int, ...]) -> bool:
    """Whether renaming coordinate i to perm[i] maps each part onto itself:
    equal Fractions, and QSeries equal field by field, not up to truncation."""
    rename = itemgetter(*sorted(range(len(perm)), key=perm.__getitem__))
    parts = ((potential.classical, Fraction), (potential.quantum, QSeries._fields))
    return all({rename(k): f(x) for k, x in part.items()} == {k: f(x) for k, x in part.items()} for part, f in parts)


# the residual's own symmetries, as maps of the slots of (a,b,c,d): a<->c and b<->d negate
# it, (b,a,d,c) and (c,d,a,b) fix it
_RESIDUAL_SYMMETRIES = ((2, 1, 0, 3), (0, 3, 2, 1), (1, 0, 3, 2), (2, 3, 0, 1))


def _orbit_representatives(dim: int, symmetries) -> list[tuple[int, ...]]:
    """The least quadruple over 1..dim-1 of each orbit under the coordinate
    permutations `symmetries` and the residual's own, in lexicographic order,
    but for a == c or b == d, which vanish as the contraction is symmetric."""
    # itemgetter(*s)(g) is the composite g o s, and itemgetter(*quad)(perm) renames quad's entries
    slots = [itemgetter(*s) for s in _closure((0, 1, 2, 3), [itemgetter(*s) for s in _RESIDUAL_SYMMETRIES])]
    renames = _closure(tuple(range(dim)), [itemgetter(*s) for s in symmetries])
    seen, out, span = set(), [], range(1, dim)
    # the least of an orbit has a <= c and b <= d, since a<->c and b<->d act
    for quad in ((a, b, c, d) for a in span for b in span for c in span[a:] for d in span[b:]):
        if quad not in seen:
            pick = itemgetter(*quad)
            seen.update(slot(pick(perm)) for perm in renames for slot in slots)
            out.append(quad)
    return out


def wdvv_residual(potential: FrobeniusPotential, truncation: int) -> IdentityReport:
    """Associativity residual over one quadruple per orbit (module docstring)
    of the recorded symmetries that `_invariant` verifies, in lexicographic
    order; PrecisionError if a quantum series stops below `truncation`.  The
    unit index 0 is skipped: quantum keys have no t0 and metric_from_potential
    rejects a non-constant metric, so F_0xy = eta_xy and both contractions
    reduce to the same third derivative."""
    engine = _WdvvEngine(potential, truncation)
    quads = _orbit_representatives(engine.dim, [p for p in potential.symmetries if _invariant(potential, p)])
    engine.reads = Counter(key for quad in quads for key in _contraction_keys(*quad))
    for quad in quads:
        if (failure := engine.residual_failure(*quad)) is not None:
            return failure_report("wdvv", truncation, quad, *failure)
    return pass_report("wdvv", truncation)
