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
exact_arith), so the scan is integer arithmetic only.  The derivative terms
are enumerated from each key's own support, their monomials mixed-radix
ints lowered by subtracting digit units, their scalars integers over one
common denominator.  Only the residue class each series occupies is packed: the
stride g is the gcd of the exponent offsets within every series (3 for e6, 2
for d4), read from the numerators, so a perturbation off the class only
lowers g and stays seen.  A pair product is memoized in its final class, so a
contraction is one dict keyed by monomial * g + class, and a residual
is a difference of packed ints, first nonzero at the lowest set bit.  The
slots are wide enough by Cauchy-Schwarz, |(b b')_k| <= |b|_2 |b'|_2: with w
the inverse-metric weights and s_t, b_t the scalar and base series of a term
t, every residual coefficient is at most

    2 sum_{e,f} |w_ef| top(e) top(f),  top(x) = max_{T holding x} sum_{t in T} |s_t| |b_t|_2

over the triples T.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations_with_replacement, compress, count
from operator import itemgetter, mul
from typing import NamedTuple

from .exact_arith import Frozen, _first_slot, _pack_slots, _slot_width
from .qseries import PrecisionError, QSeries
from .reporting import IdentityReport, failure_report

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

    A row is (representative multi-index k, correlator d^k F): a Fraction for
    a classical row, a QSeries for a quantum row.  Its term of F is the
    correlator over k! = prod k_i!, divided here and nowhere else.  The
    symmetries are the adjacent swaps of the blocks; each image of a
    representative under them is a key, the keys of a row share one term,
    and a key two rows reach carries their sum:

    >>> one, rows = QSeries.one(4), [(0, 4, 0, 0, 0, 0), (0, 2, 2, 0, 0, 0)]
    >>> F = orbit_potential("t0 t1 t2 t3 t4 t".split(), [0] * 6, ((1,), (2,), (3,), (4,)),
    ...                     [], [(key, one) for key in rows])
    >>> from collections import Counter
    >>> sorted(Counter(map(id, F.quantum.values())).values())  # keys per shared series
    [4, 6]
    >>> F.quantum[(0, 0, 4, 0, 0, 0)], F.quantum[(0, 0, 2, 0, 2, 0)]  # 1/4! and 1/(2! 2!)
    (QSeries(1/24 + O(q^4)), QSeries(1/4 + O(q^4)))
    """
    swaps = [[dict(zip(a + b, b + a)).get(i, i) for i in range(len(coords))] for a, b in zip(blocks, blocks[1:])]
    moves = [itemgetter(*s) for s in swaps]  # a swap is its own inverse
    classical: dict[tuple[int, ...], Fraction] = {}
    quantum: dict[tuple[int, ...], QSeries] = {}
    for part, rows in ((classical, classical_rows), (quantum, quantum_rows)):
        for representative, correlator in rows:
            term = correlator * Fraction(1, math.prod(map(math.factorial, representative)))
            for key in sorted(_closure(representative, moves)):
                part[key] = part[key] + term if key in part else term
    return FrobeniusPotential(tuple(coords), tuple(degrees), classical, quantum, swaps)


# -- derivatives ------------------------------------------------------------------


def _lowerings(key: tuple[int, ...], counts) -> list[tuple[tuple[int, ...], int]]:
    """d/dt_s for each s in `slots` on t^key, for every ascending `slots` of a
    length in `counts` (at most 3) allowed: (slots, product of falling factorials)."""
    found = [((), 1)]
    for i, e in enumerate(key):
        if e:
            found = [
                (slots + (i,) * j, falling * math.perm(e, j))
                for slots, falling in found
                for j in range(min(e, 3 - len(slots)) + 1)
            ]
    return [(slots, falling) for slots, falling in found if len(slots) in counts]


def _derivative_keys(potential: FrobeniusPotential, truncation: int):
    """The rule of the module docstring per key, quantum keys first, each part
    in the potential's order: (key, scalar, tower, places, lowerings).  Each
    (get, n, falling) in `lowerings` is one term of d_a d_b d_c F, scalar *
    falling * tower[3 - n], with triple (a, b, c) = get(places), whose first n
    entries lower `key` and the rest are t.  Series stop at `truncation`,
    which no quantum series may stop below; keys sharing a series object
    share its q d/dq tower, and the classical part has only n = 3 and one
    constant series.  Lowerings are enumerated once per sequence of nonzero
    exponents, which the images of a key under a block swap mostly share,
    on its positions, places holding the key's support and then t."""
    log = len(potential.coords) - 1
    patterns: dict[tuple, list] = {}

    def lowered(key: tuple[int, ...], counts) -> tuple:
        support = list(compress(range(len(key)), key))
        if (pattern := (tuple(filter(None, key)), counts)) not in patterns:
            # position len(support) of places is t, which fills a triple
            patterns[pattern] = [(itemgetter(*slots, *[len(support)] * (3 - len(slots))), len(slots), falling)
                                 for slots, falling in _lowerings(pattern[0], counts)]
        return (*support, log), patterns[pattern]

    towers: dict[int, list[QSeries]] = {}
    for key, series in potential.quantum.items():
        if id(series) not in towers:
            tower = towers[id(series)] = [series if series.truncation == truncation else series.truncate(truncation)]
            for _ in range(3):
                tower.append(tower[-1].qdq())
        yield key, 1, towers[id(series)], *lowered(key, range(4))
    constant = [QSeries.one(truncation)]
    for key, value in potential.classical.items():
        if value:
            yield key, value, constant, *lowered(key, (3,))


def _derivative_terms(potential: FrobeniusPotential, truncation: int):
    """`_derivative_keys` term by term: (triple, key, slots, scalar, series),
    `slots` the entries of the triple that lower `key`."""
    for key, scalar, tower, places, lowerings in _derivative_keys(potential, truncation):
        for get, n, falling in lowerings:
            triple = get(places)
            yield triple, key, triple[:n], scalar * falling, tower[3 - n]


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
    triple = tuple(sorted(potential.coordinate_index(x) for x in (a, b, c)))
    out: dict[tuple[int, ...], QSeries] = {}
    for t, key, slots, scalar, series in _derivative_terms(potential, potential.truncation):
        if t == triple:
            piece, key = series.scale(scalar), tuple(e - slots.count(i) for i, e in enumerate(key))
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
            work[col] = [x * inv if x else x for x in work[col]]
            for r in range(n):
                if r != col and work[r][col]:
                    factor = work[r][col]
                    work[r] = [x - factor * y if y else x for x, y in zip(work[r], work[col])]
        return tuple(tuple(row[n:]) for row in work)


def metric_from_potential(potential: FrobeniusPotential) -> MetricMatrix:
    """eta_ab = d_0 d_a d_b F; every entry must be a constant rational.

    Quantum keys have no t0, so d_0 kills the whole quantum part and only the
    classical polynomial reaches the metric.
    """
    n = len(potential.coords)
    rows = [[_F0] * n for _ in range(n)]
    for key, coeff in potential.classical.items():
        for slots, falling in _lowerings(key, (3,)) if coeff else ():
            if slots[0] == 0:  # slots are ascending
                i, j = slots[1:]
                if any(lowered := tuple(e - slots.count(s) for s, e in enumerate(key))):
                    raise NonConstantMetric(
                        f"entry ({potential.coords[i]},{potential.coords[j]}) "
                        f"depends on coordinates: monomial {lowered}"
                    )
                rows[i][j] += coeff * falling
                rows[j][i] = rows[i][j]
    return MetricMatrix(potential.coords, tuple(map(tuple, rows)))


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
    return IdentityReport("euler-grading", order)


# -- WDVV --------------------------------------------------------------------------


class _WdvvEngine:
    """Exact associativity residuals in packed-integer arithmetic (module
    docstring).  A base of class c = valuation mod g keeps one slot per
    exponent c + g k below T, `width` bytes wide.  A term is (key, scalar,
    base), key = monomial * g + class; the right-hand terms of a
    contraction come in one list per left class, their keys less g where the
    class sum s reaches g, since such a pair product sits one slot up in
    class s - g, so the sum of two keys is always the product's key.
    """

    def __init__(self, potential: FrobeniusPotential, truncation: int):
        if potential.quantum and potential.truncation < truncation:
            raise PrecisionError(f"wdvv: need order {truncation}, have {potential.truncation}")
        inverse = metric_from_potential(potential).inverse_rows()
        self.dim = dim = len(potential.coords)
        groups = list(_derivative_keys(potential, truncation))
        ref_of: dict[tuple[int, tuple[int, ...]], int] = {}
        interned: dict[int, tuple[int, int, int] | None] = {}  # by id of a term's series

        def reduced(series: QSeries, scalar) -> tuple[int, int, int] | None:
            """(numerator, denominator, base) of the term scalar * series; None if it is zero."""
            if id(series) not in interned:
                interned[id(series)] = _intern(series, ref_of)
            if (entry := interned[id(series)]) is None:
                return None
            content, den, ref = entry
            num, den = scalar.numerator * content, scalar.denominator * den
            common = math.gcd(num, den)
            return num // common, den // common, ref

        # keys with one series and one pattern of lowerings have their scalars and bases in common
        shared: dict[tuple, list] = {}
        for _, scalar, tower, _, lowerings in groups:
            if (id(tower), scalar, id(lowerings)) not in shared:
                shared[id(tower), scalar, id(lowerings)] = [reduced(tower[3 - n], scalar * f) for _, n, f in lowerings]
        eta = [(e, f, w) for e in range(dim) for f in range(dim) if (w := inverse[e][f])]
        d_scalar = math.lcm(*(entry[1] for line in shared.values() for entry in line if entry))
        d_weight = math.lcm(*(w.denominator for _, _, w in eta))
        self.denominator = d_scalar**2 * d_weight
        self.eta_pairs = [(e, f, w.numerator * (d_weight // w.denominator)) for e, f, w in eta]
        g = self.stride = math.gcd(*chain.from_iterable(compress(count(), nums) for _, nums in ref_of)) or 1
        classes = self._classes = [valuation % g for valuation, _ in ref_of]
        arrays = [[0] * (valuation // g) + list(nums[::g]) for valuation, nums in ref_of]
        for line in shared.values():
            line[:] = [entry and (entry[0] * (d_scalar // entry[1]), entry[2], classes[entry[2]]) for entry in line]
        keys = [*potential.quantum, *potential.classical]
        # a monomial is a mixed-radix number, coordinate 0 its leading digit, each digit
        # wide enough for a product's exponents: so keys add, and order as exponent tuples
        radices = [2 * max(column) + 1 for column in zip(*keys)]
        units = [g * math.prod(radices[i + 1 :]) for i in range(dim)]
        self._terms: dict[tuple[int, int, int], list] = {t: [] for t in combinations_with_replacement(range(dim), 3)}
        for key, scalar, tower, places, lowerings in groups:
            # get(drops) holds the units a lowering takes off the monomial, 0 for each t
            number, drops = sum(map(mul, key, units)), (*map(units.__getitem__, places[:-1]), 0)
            for (get, _, _), entry in zip(lowerings, shared[id(tower), scalar, id(lowerings)]):
                if entry:
                    term_scalar, ref, klass = entry
                    self._terms[get(places)].append((number - sum(get(drops)) + klass, term_scalar, ref))
        # by Cauchy-Schwarz a pair-product coefficient is at most the product of the two
        # bases' l2 norms, so a contraction's is at most sum_ef |w_ef| top(e) top(f), top(x)
        # the largest sum of |scalar| * norm over the terms of a triple holding x
        norms = [math.isqrt(n - 1) + 1 if (n := sum(map(mul, array, array))) else 0 for array in arrays]
        reach = {t: sum([abs(scalar) * norms[ref] for _, scalar, ref in line]) for t, line in self._terms.items()}
        top = [max(r for triple, r in reach.items() if x in triple) for x in range(dim)]
        # a residual coefficient is a difference of two contraction coefficients
        self.width = _slot_width(2 * sum(abs(w) * top[e] * top[f] for e, f, w in self.eta_pairs))
        # class 0 never carries
        self._right = {
            triple: [line] + [[t if c + classes[t[2]] < g else (t[0] - g, t[1], t[2]) for t in line]
                              for c in range(1, g)]
            for triple, line in self._terms.items()
            if line
        }
        self.masks = [(1 << 8 * self.width * len(range(c, truncation, g))) - 1 for c in range(g)]
        self._packed = [_pack_slots(array, self.width) for array in arrays]
        self._pair_products: list[list[int | None]] = [[None] * len(arrays) for _ in arrays]

    def _pair_product(self, r1: int, r2: int) -> int:
        s, product = self._classes[r1] + self._classes[r2], self._packed[r1] * self._packed[r2]
        if s >= self.stride:  # exponent s + g k is slot k + 1 of class s - g
            s, product = s - self.stride, product << 8 * self.width
        return product & self.masks[s]

    def contraction(self, key: tuple) -> dict[int, int]:
        """(xy|zw) = sum_{e,f} F_xye eta^{ef} F_fzw for key ((x,y),(z,w)) as
        {monomial * g + class: packed coefficients}, nonzero ones
        only, in units of 1/denominator."""
        p1, p2 = key
        acc: dict[int, int] = {}
        get, products, classes = acc.get, self._pair_products, self._classes
        for e, f, w in self.eta_pairs:
            t1, t2 = self._terms[tuple(sorted((*p1, e)))], self._right.get(tuple(sorted((*p2, f))))
            if not t1 or t2 is None:
                continue
            for m1, s1, r1 in t1:
                s1w = s1 * w
                row = products[r1]
                for m2, s2, r2 in t2[classes[r1]]:
                    product = row[r2]
                    if product is None:
                        product = row[r2] = products[r2][r1] = self._pair_product(r1, r2)
                    m = m1 + m2
                    acc[m] = get(m, 0) + s1w * s2 * product
        g, masks = self.stride, self.masks
        return {m: v for m, total in acc.items() if (v := total & masks[m % g])}

    def residual_failure(self, a: int, b: int, c: int, d: int):
        """First nonzero coefficient of the (a,b,c,d) residual as (exponent,
        residual), or None; of a tied exponent, the least monomial's."""
        k1, k2 = _contraction_keys(a, b, c, d)  # equal when a == c or b == d
        if k1 == k2 or (p1 := self.contraction(k1)) == (p2 := self.contraction(k2)):
            return None
        g, failures = self.stride, []
        for m in p1.keys() | p2.keys():
            klass = m % g  # slot k of class c is exponent c + g k
            if (slot := _first_slot((p1.get(m, 0) - p2.get(m, 0)) & self.masks[klass], self.width)) is not None:
                failures.append((klass + g * slot[0], m, slot[1]))
        exponent, _, value = min(failures)
        return exponent, Fraction(value, self.denominator)


def _intern(series: QSeries, ref_of: dict) -> tuple[int, int, int] | None:
    """(content, den, ref) with series = content/den * (base series number
    ref), the base its valuation and primitive numerators, first one
    positive, numbered in `ref_of` as first met; None for a zero series."""
    if series.valuation < 0:
        raise ValueError("WDVV engine expects power-series coefficients")
    if not series.coeffs:
        return None
    g = math.gcd(*series.coeffs) * (1 if series.coeffs[0] > 0 else -1)
    base = (series.valuation, series.coeffs if g == 1 else tuple([x // g for x in series.coeffs]))
    return g, series.den, ref_of.setdefault(base, len(ref_of))


def _contraction_keys(a: int, b: int, c: int, d: int) -> list[tuple]:
    """Keys of (ab|cd) and (ad|bc), the two sides of the (a,b,c,d) residual."""
    sides = (((a, b), (c, d)), ((a, d), (b, c)))
    return [tuple(sorted((tuple(sorted(x)), tuple(sorted(y))))) for x, y in sides]


def _invariant(potential: FrobeniusPotential, perm: tuple[int, ...]) -> bool:
    """Whether renaming coordinate i to perm[i] maps each part onto itself:
    equal Fractions, and QSeries equal field by field, not up to truncation."""
    rename = itemgetter(*sorted(range(len(perm)), key=perm.__getitem__))
    parts = ((potential.classical, Fraction), (potential.quantum, QSeries._fields))
    images = ((part, f, {rename(k): x for k, x in part.items()}) for part, f in parts)
    return all(i.keys() == p.keys() and all(x is p[k] or f(x) == f(p[k]) for k, x in i.items()) for p, f, i in images)


def _square(a: int, b: int, c: int, d: int) -> tuple:
    """(a,b,c,d) up to the residual's own symmetries: a<->c and b<->d negate
    it, (b,a,d,c) and (c,d,a,b) fix it, and together they are the symmetries
    of a square with corners a, b, c, d in turn.  So the orbit is the square's
    pair of diagonals, each sorted, sorted."""
    one, two = (a, c) if a < c else (c, a), (b, d) if b < d else (d, b)
    return (one, two) if one < two else (two, one)


def _orbit_representatives(dim: int, symmetries, seen: set):
    """The least quadruple over 1..dim-1 of each orbit under the coordinate
    permutations `symmetries` and the residual's own, in lexicographic order,
    but for a == c or b == d, which vanish as the contraction is symmetric.
    `seen` holds the squares of the orbits met, each added as it is met."""
    # itemgetter(*quad)(perm) renames quad's entries
    renames = _closure(tuple(range(dim)), [itemgetter(*s) for s in symmetries])
    span = range(1, dim)
    # the least of an orbit has a < c and b < d, since a<->c and b<->d act
    for quad in ((a, b, c, d) for a in span for b in span for c in span[a:] for d in span[b:]):
        if _square(*quad) not in seen:
            seen.update(_square(*itemgetter(*quad)(perm)) for perm in renames)
            yield quad


def wdvv_residual(potential: FrobeniusPotential, truncation: int) -> IdentityReport:
    """Associativity residual over one quadruple per orbit (module docstring)
    of the recorded symmetries that `_invariant` verifies, in lexicographic
    order; PrecisionError if a quantum series stops below `truncation`.  The
    unit index 0 is skipped: quantum keys have no t0 and metric_from_potential
    rejects a non-constant metric, so F_0xy = eta_xy and both contractions
    reduce to the same third derivative."""
    engine = _WdvvEngine(potential, truncation)
    verified = [p for p in potential.symmetries if _invariant(potential, p)]
    for quad in _orbit_representatives(engine.dim, verified, set()):
        if (failure := engine.residual_failure(*quad)) is not None:
            return failure_report("wdvv", truncation, quad, *failure)
    return IdentityReport("wdvv", truncation)
