from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwseries.qseries as qseries
from gwseries.d4 import _D4_SYSTEM, d4_recursion_solve
from gwseries.e6 import _E6_SYSTEM, e6_schwarzian_solve
from gwseries.exact_arith import int_convolve
from gwseries.modular import eta_unit
from gwseries.qseries import (
    LeadingCoefficientNotPower,
    NotUnit,
    PrecisionError,
    QSeries,
    ValuationNotDivisible,
    ZeroDivisor,
    evaluate,
    format_series,
    solve_qdq_system,
)

CASES = 100
RING_ORDER = 64
# Relative precisions at the small end and on either side of a power of two.
EDGE_PRECISIONS = (1, 2, 3, 63, 64, 65)


def _random_series(rng: random.Random, truncation: int, valuation_low: int = -3) -> QSeries:
    valuation = rng.randint(valuation_low, 3)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(truncation - valuation)]
    return QSeries(coeffs, valuation, truncation)


def _random_unit(rng: random.Random, truncation: int) -> QSeries:
    coeffs = [Fraction(1)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(truncation - 1)
    ]
    return QSeries(coeffs, 0, truncation)


def _precisions(rng: random.Random, low: int, high: int):
    """CASES random relative precisions, then the edge cases."""
    for _ in range(CASES):
        yield rng.randint(low, high)
    yield from EDGE_PRECISIONS


# O(n^2) recurrences on Fraction values for the inverse, log and exp, kept as
# references independent of the integer kernels.


def _recurrence_inv(s: QSeries) -> QSeries:
    v, c = s.leading()
    rel = s.truncation - v
    w = [s.coefficient(v + i) / c for i in range(rel)]
    x = [Fraction(1)] + [Fraction(0)] * (rel - 1)
    for k in range(1, rel):
        x[k] = -sum(w[i] * x[k - i] for i in range(1, k + 1))
    return QSeries([xi / c for xi in x], -v, s.truncation - 2 * v)


def _recurrence_log(u: QSeries) -> QSeries:
    t = u.truncation
    w = [u.coefficient(e) for e in range(t)]
    log = [Fraction(0)] * t
    for n in range(1, t):
        log[n] = (n * w[n] - sum(k * log[k] * w[n - k] for k in range(1, n))) / n
    return QSeries(log, 0, t)


def _recurrence_exp(s: QSeries) -> QSeries:
    t = s.truncation
    w = [s.coefficient(e) for e in range(t)]
    out = [Fraction(1)] + [Fraction(0)] * (t - 1)
    for n in range(1, t):
        out[n] = sum(k * w[k] * out[n - k] for k in range(1, n + 1)) / n
    return QSeries(out, 0, t)


# -- ring structure ------------------------------------------------------------------


def test_ring_axioms_randomized():
    rng = random.Random(64)
    for _ in range(CASES):
        x = _random_series(rng, RING_ORDER)
        y = _random_series(rng, RING_ORDER)
        z = _random_series(rng, RING_ORDER)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x - x == QSeries.zero(RING_ORDER)


def test_multiplicative_identity_and_zero():
    rng = random.Random(65)
    one = QSeries.one(RING_ORDER)
    zero = QSeries.zero(RING_ORDER)
    for _ in range(20):
        x = _random_series(rng, RING_ORDER, valuation_low=0)
        assert x * one == x
        assert x + zero == x
        assert (x * zero).is_zero()


def test_geometric_series_product():
    one_minus_q = QSeries([1, -1], 0, 40)
    geometric = QSeries([1] * 40, 0, 40)
    assert one_minus_q * geometric == QSeries.one(40)


def test_evaluate_keeps_each_values_own_truncation():
    y, z = QSeries([1, 1], 0, 5), QSeries([2], 1, 3)
    values = evaluate([{(1, 0): 1}, {(2, 0): 1, (1, 0): -1}, {(1, 1): 1}, {(0, 0): 2}, {}], [y, z])
    assert [v._fields() for v in values] == [
        y._fields(),  # y itself, through O(q^5), not the least truncation
        QSeries([0, 1, 1], 0, 5)._fields(),  # y^2 - y = q + q^2
        QSeries([2, 2], 1, 3)._fields(),  # y z, which O(q^3) in z bounds
        QSeries.constant(2, 3)._fields(),  # a constant is known through the least truncation
        QSeries.zero(3)._fields(),  # and so is a polynomial with no terms
    ]


def test_evaluate_builds_each_monomial_once_from_its_last_exponent(monkeypatch):
    # e6's f0 f1^2, f0 f2, f0^3, f1 f2, f0^3 f1, f2^2: f0 f1 and f0^2 are built
    # on the way and shared, 8 products in all; reducing the first nonzero
    # exponent builds f1^2 and f0^2 f1 instead, 10 products
    ys = [QSeries([1, 2], 1, 9), QSeries([1, 1], 0, 9), QSeries([2, 5], 2, 9)]
    products = []
    monkeypatch.setattr(qseries, "int_convolve", lambda *args: products.append(args) or int_convolve(*args))
    evaluate(_E6_SYSTEM, ys)
    assert len(products) == 8


_GEOMETRIC = ({(2,): 1, (1,): -1},)  # q y' = y^2 - y


def test_qdq_system_solves_the_geometric_series():
    # q dy/dq = y^2 - y with y = 1 + q + ... is solved by 1/(1 - q)
    for order in (0, 1, 2, 3, 40):
        (y,) = solve_qdq_system(_GEOMETRIC, [(1, 1)], order)
        assert y == QSeries([1] * order, 0, order) and y.truncation == order


def test_qdq_system_rejects_seeds_off_the_system():
    with pytest.raises(ArithmeticError, match="seeds"):
        solve_qdq_system(_GEOMETRIC, [(2, 1)], 10)  # q^0: 0 != 2^2 - 2
    with pytest.raises(ArithmeticError, match="seeds"):
        solve_qdq_system([{(2,): 1}], [(0, 1)], 10)  # q^1: 1 != 2 * 0 * 1


def test_qdq_system_needs_an_upper_triangular_jacobian():
    # q y' = y, q z' = y: J0 = [[1, 0], [1, 0]] has an entry below the diagonal
    for order in (3, 10):  # at order 3 the only block is one coefficient wide
        with pytest.raises(ArithmeticError, match="upper triangular"):
            solve_qdq_system([{(1, 0): 1}, {(1, 0): 1}], [(0, 1), (0, 1)], order)
    # the same system with z listed first is upper triangular and solvable
    z, y = solve_qdq_system([{(0, 1): 1}, {(0, 1): 1}], [(0, 1), (0, 1)], 10)
    assert z == y == QSeries.monomial(1, 1, 10)


def _step_solve(system, seeds, order: int) -> tuple[QSeries, ...]:
    """Reference: the solver one coefficient per step.  Step n evaluates the
    system with Y_n provisionally 0 and solves (n - J0) Y_n = [F(Y)]_n by back
    substitution, one full evaluation of the system per coefficient.  J0 comes
    from bumping each seed by q, numerically, not from the system's data."""
    def rhs(*ys):
        return evaluate(system, ys)

    ys = [QSeries(seed, 0, 2) for seed in seeds]
    k, q = len(ys), QSeries.monomial(1, 1, 2)
    bumped = [rhs(*(y + q if i == j else y for i, y in enumerate(ys))) for j in range(k)]
    jac = [[b[i].coefficient(1) - ys[i].coefficient(1) for b in bumped] for i in range(k)]
    for n in range(2, order):
        ys = [y._replace(truncation=n + 1) for y in ys]
        rs = [r.coefficient(n) for r in rhs(*ys)]
        new = [0] * k
        for i in reversed(range(k)):
            new[i] = (rs[i] + sum(jac[i][j] * new[j] for j in range(i + 1, k))) / (n - jac[i][i])
        ys = [y + QSeries.monomial(c, n, n + 1) for y, c in zip(ys, new)]
    return tuple(y.truncate(order) for y in ys)


_SYSTEMS = {
    "geometric": (_GEOMETRIC, [(1, 1)]),
    "d4": (_D4_SYSTEM, ((0, 1), (Fraction(-1, 24), 0), (0, 0))),
    "e6": (_E6_SYSTEM, ((0, 1), (Fraction(1, 3), 0), (0, 0))),
}


@pytest.mark.parametrize("system", sorted(_SYSTEMS))
def test_doubling_solver_matches_the_step_loop(system):
    data, seeds = _SYSTEMS[system]
    for order in [*range(41), 125, 242]:
        reference = _step_solve(data, seeds, order)
        solved = solve_qdq_system(data, seeds, order)
        for s, r in zip(solved, reference, strict=True):
            assert s == r and s.truncation == r.truncation == order, order


@pytest.mark.parametrize("solve, order, evaluations, products", [
    # J reads the monomials F built, so e6's J multiplies only f_1^2 and f_0^2 f_1
    (e6_schwarzian_solve, 240, 15, 72),  # the system solved through order 242
    (e6_schwarzian_solve, 62, 11, 52),
    (d4_recursion_solve, 125, 13, 29),  # d4's Jacobian is linear, so evaluating it multiplies nothing
], ids=["e6-240", "e6-62", "d4-125"])
def test_doubling_solver_calls_the_system_logarithmically_often(monkeypatch, solve, order, evaluations, products):
    truncations, convolutions = [], []

    def counted_evaluate(polynomials, ys, built=None):
        truncations.append(max(y.truncation for y in ys))
        return evaluate(polynomials, ys, built)

    def counted_convolve(*args):
        convolutions.append(args)
        return int_convolve(*args)

    monkeypatch.setattr(qseries, "evaluate", counted_evaluate)
    monkeypatch.setattr(qseries, "int_convolve", counted_convolve)
    solve(order)
    # the seeds check, then F at truncation hi and J mod q^w per doubling block [m, hi), m = 2, 4, ...
    solved_to = order + 2 if solve is e6_schwarzian_solve else order
    blocks = math.ceil(math.log2(solved_to)) - 1
    assert len(truncations) == 1 + 2 * blocks == evaluations
    assert max(truncations) == solved_to
    assert len(convolutions) == products


def test_qdq_system_is_solved_over_the_rationals_only():
    # y = 1/(1-q) solves q y' = y^2 - y; the same system with a coefficient
    # outside Q is refused before any step
    with pytest.raises(TypeError):
        solve_qdq_system([{(2,): 1j, (1,): -1}], [(1, 1)], 10)


def test_qdq_system_stops_at_a_resonance():
    # q y' = 2 y: n - J0 vanishes at n = 2, where y_2 is not determined
    with pytest.raises(ZeroDivisionError):
        solve_qdq_system([{(1,): 2}], [(0, 0)], 10)


def test_inverse_round_trips_randomized():
    rng = random.Random(66)
    for rel in _precisions(rng, 8, 48):
        u = _random_unit(rng, rel)
        for shifted in (u.shift(rng.randint(-4, 4)), u.shift(-3)):
            inverse = shifted.inv()
            assert inverse.truncation - inverse.valuation == rel  # relative precision T - v
            prod = shifted * inverse
            assert prod == QSeries.one(prod.truncation)
    long_unit = _random_unit(rng, 300).shift(-2)
    inverse = long_unit.inv()
    assert inverse == _recurrence_inv(long_unit)
    assert (inverse.valuation, inverse.truncation) == (2, 302)


def test_inverse_of_zero_series_raises():
    with pytest.raises(ZeroDivisor):
        QSeries.zero(10).inv()


def test_nth_root_round_trips_randomized():
    rng = random.Random(67)
    for truncation in _precisions(rng, 6, 32):
        n = rng.choice((2, 3, 5))
        u = _random_unit(rng, truncation)
        power = u**n
        root = power.nth_root(n)
        assert root**n == power
        assert root == u or (root - u).leading()[1] != 0  # root of a unit is unique
        assert power.shift(-2 * n).nth_root(n) == root.shift(-2)


def test_nth_root_shifts_valuation():
    s = QSeries([Fraction(9)], 2, 12)  # 9 q^2
    root = s.nth_root(2)
    assert root.leading() == (1, Fraction(3))


def test_nth_root_error_conditions():
    with pytest.raises(ValuationNotDivisible):
        QSeries([Fraction(1)], 1, 10).nth_root(2)
    with pytest.raises(LeadingCoefficientNotPower):
        QSeries([Fraction(2)], 0, 10).nth_root(2)


def test_leibniz_rule_randomized():
    rng = random.Random(68)
    for _ in range(CASES):
        x = _random_series(rng, 32)
        y = _random_series(rng, 32)
        lhs = (x * y).qdq()
        rhs = x.qdq() * y + x * y.qdq()
        assert lhs == rhs


def test_substitution_derivative_intertwining_randomized():
    rng = random.Random(69)
    for _ in range(CASES):
        x = _random_series(rng, 24, valuation_low=0)
        m = rng.randint(1, 5)
        lhs = x.substitute_power(m).qdq()
        rhs = x.qdq().substitute_power(m).scale(m)
        assert lhs == rhs


def test_substitution_composes():
    rng = random.Random(70)
    x = _random_series(rng, 12, valuation_low=0)
    assert x.substitute_power(2).substitute_power(3) == x.substitute_power(6)


def test_truncation_monotonicity():
    rng = random.Random(71)
    for _ in range(25):
        low = _random_unit(rng, 16)
        high = QSeries([low.coefficient(e) for e in range(16)] + [Fraction(1)] * 16, 0, 32)
        for build in (
            lambda s: s.inv(),
            lambda s: s.qdq(),
            lambda s: s * s,
            lambda s: s.log_unit(),
            lambda s: (s * s).nth_root(2),
        ):
            coarse = build(low)
            fine = build(high)
            assert fine.truncate(coarse.truncation) == coarse


# -- classical expansion oracles -------------------------------------------------------


def _pentagonal_series(truncation: int) -> QSeries:
    """Direct enumeration of sum (-1)^k q^(k(3k-1)/2) over all integers k."""
    coeffs = {}
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2
            if e < truncation:
                coeffs[e] = Fraction(-1 if kk % 2 else 1)
                done = False
        if done and k > 0:
            break
        k += 1
    return QSeries.from_coefficient_map(coeffs, truncation)


def test_euler_product_matches_pentagonal_numbers():
    truncation = 60
    product = QSeries.one(truncation)
    for n in range(1, truncation):
        product = product * QSeries.from_coefficient_map({0: Fraction(1), n: Fraction(-1)}, truncation)
    assert product == _pentagonal_series(truncation)


def _partition_counts(n_max: int) -> list[int]:
    table = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            table[n] += table[n - part]
    return table


def test_inverse_euler_product_counts_partitions():
    truncation = 45
    counts = _partition_counts(truncation - 1)
    inverse = _pentagonal_series(truncation).inv()
    for n in range(truncation):
        assert inverse.coefficient(n) == counts[n]


def test_partition_oracle_in_qcubed():
    truncation = 30
    inverse = _pentagonal_series(10).substitute_power(3).inv()
    counts = _partition_counts(9)
    for n in range(truncation):
        expected = counts[n // 3] if n % 3 == 0 else 0
        assert inverse.coefficient(n) == expected


# -- twist, log, exp -------------------------------------------------------------------


def _twist(s: QSeries, k: int) -> tuple[QSeries, QSeries]:
    """s(w^k q) = x + w y, w = zeta_3, from the 3-dissection: the terms with
    exponent r mod 3 times w^(kr), with w^2 = -1 - w."""
    x = y = QSeries.zero(s.truncation)
    for r in range(3):
        part, (cx, cy) = s.dissect(3, r), ((1, 0), (0, 1), (-1, -1))[k * r % 3]
        x, y = x + part.scale(cx), y + part.scale(cy)
    return x, y


def _pair_product(a: tuple, b: tuple) -> tuple[QSeries, QSeries]:
    (x1, y1), (x2, y2) = a, b
    return x1 * x2 - y1 * y2, x1 * y2 + y1 * x2 - y1 * y2


def test_twist_multiplies_coefficients_termwise():
    rng = random.Random(72)
    s = _random_series(rng, 12)
    # by -1 the q^e coefficient picks up (-1)^e: the even part minus the odd part
    flipped = s.dissect(2, 0) - s.dissect(2, 1)
    for e, c in s.known_terms():
        assert flipped.coefficient(e) == (-c if e % 2 else c)
    # by w = zeta_3 the factor w^e is 1, w or w^2 = -1 - w as e = 0, 1, 2 mod 3
    x, y = _twist(s, 1)
    for e, c in s.known_terms():
        assert (x.coefficient(e), y.coefficient(e)) == ((c, 0), (0, c), (-c, -c))[e % 3]


def test_twist_by_minus_one_flips_odd_part():
    rng = random.Random(73)
    s = _random_series(rng, 20, valuation_low=0)
    flipped = s.dissect(2, 0) - s.dissect(2, 1)
    even = (s + flipped).scale(Fraction(1, 2))
    for e, c in even.known_terms():
        assert e % 2 == 0 or c == 0
    assert even._fields() == s.dissect(2, 0)._fields()


def test_log_exp_round_trip():
    rng = random.Random(74)
    for truncation in (24,) * 25 + EDGE_PRECISIONS:
        u = _random_unit(rng, truncation)
        assert _recurrence_exp(u.log_unit()) == u
    long_unit = _random_unit(rng, 300)
    log = long_unit.log_unit()
    assert log == _recurrence_log(long_unit) and log.truncation == 300
    assert _recurrence_exp(log) == long_unit
    with pytest.raises(NotUnit):
        QSeries([Fraction(2)], 0, 8).log_unit()


def test_log_turns_products_into_sums():
    rng = random.Random(75)
    u = _random_unit(rng, 20)
    v = _random_unit(rng, 20)
    assert (u * v).log_unit() == u.log_unit() + v.log_unit()


def test_pow_rational_agrees_with_integer_powers():
    rng = random.Random(76)
    u = _random_unit(rng, 16)
    assert u.pow_rational(Fraction(3)) == u**3
    assert u.pow_rational(Fraction(1, 2)) ** 2 == u
    assert u.pow_rational(Fraction(-3, 2)) * u.pow_rational(Fraction(3, 2)) == QSeries.one(16)


# -- truncation bookkeeping -------------------------------------------------------------


def test_truncation_of_product_is_pessimistic():
    a = QSeries([1, 1], 1, 6)  # q + q^2 + O(q^6)
    b = QSeries([1], 2, 5)     # q^2 + O(q^5)
    prod = a * b
    assert prod.truncation == min(6 + 2, 5 + 1)
    assert prod.valuation == 3


def test_coefficient_past_truncation_raises():
    s = QSeries([1], 0, 4)
    assert s.coefficient(3) == 0
    with pytest.raises(PrecisionError):
        s.coefficient(4)


def test_monomial_beyond_truncation_is_zero_series():
    assert QSeries.monomial(5, 9, 6).is_zero()
    assert QSeries.constant(1, 0).is_zero()


def test_truncate_rejects_raising_precision():
    s = QSeries([1], 0, 4)
    with pytest.raises(PrecisionError):
        s.truncate(5)


def test_equality_compares_up_to_common_truncation():
    a = QSeries([1, 2, 3], 0, 3)
    b = QSeries([1, 2, 3, 7], 0, 4)
    assert a == b
    assert b == a
    assert a != b + QSeries.monomial(1, 1, 4)


# -- the integer convolution kernel ------------------------------------------------------


def _schoolbook(xs: list[int], ys: list[int]) -> list[int]:
    out = [0] * (len(xs) + len(ys) - 1) if xs and ys else []
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] += a * b
    return out


def test_int_convolve_matches_schoolbook():
    rng = random.Random(77)
    lengths = list(range(1, 41)) + [63, 64, 65, 255, 256, 257, 599, 600]
    for case, length in enumerate(lengths):
        bound = (9, 2**64, 10**400)[case % 3]
        xs = [rng.randint(-bound, bound) for _ in range(length)]
        ys = [rng.randint(-bound, bound) for _ in range(rng.randint(1, length))]
        full = _schoolbook(xs, ys)
        assert int_convolve(xs, ys) == full
        for n in (0, 1, len(full) // 2, len(full) - 1, len(full), len(full) + 3):
            assert int_convolve(xs, ys, n) == (full + [0] * 3)[:n]


def test_int_convolve_extremes():
    big = 10**400
    for length in (1, 2, 600):
        # the middle coefficient sits exactly at the slot bound
        assert int_convolve([big] * length, [-big] * length) == [
            -(min(k, 2 * length - 2 - k) + 1) * big * big for k in range(2 * length - 1)
        ]
        assert int_convolve([-big] * length, [-big] * length, length) == [
            (k + 1) * big * big for k in range(length)
        ]
    assert int_convolve([0] * 5, [3, -4]) == [0] * 6
    assert int_convolve([0], [0], 3) == [0, 0, 0]
    assert int_convolve([], [1, 2]) == []
    assert int_convolve([7], [-6]) == [-42]
    assert int_convolve([-big], [big], 2) == [-big * big, 0]
    assert int_convolve([1, -1], [1, 1]) == [1, 0, -1]


@st.composite
def _class_supported(draw, stride: int) -> list[int]:
    """A list supported on one residue class mod `stride`: leading zeros, then
    entries `stride` apart, some of them zero, then trailing zeros."""
    values = draw(st.lists(st.integers(-9, 9) | st.integers(-(10**30), 10**30), max_size=8))
    out = [0] * draw(st.integers(0, 7))
    for value in values:
        out += [value] + [0] * (stride - 1)
    return out + [0] * draw(st.integers(0, 3))


@st.composite
def _strided_products(draw):
    """Two operands on one class mod g each, for g in (1, 2, 3, 5) times 1 or 2,
    and an output length below, at or above the product length."""
    g = draw(st.sampled_from((1, 2, 3, 5)))
    xs = draw(_class_supported(g * draw(st.integers(1, 2))))
    ys = draw(_class_supported(g * draw(st.integers(1, 2))))
    full = len(xs) + len(ys) - 1 if xs and ys else 0
    n = draw(st.none() | st.sampled_from((0, 1, full // 2, full - 1, full, full + 3)) | st.integers(0, full + 5))
    return xs, ys, None if n is None else max(n, 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_strided_products())
@example(([], [1, 2], None))
@example(([0], [0], 3))
@example(([0, 0, 0], [0, 0, 0, 0], None))
@example(([0, 0, 5, 0, 0], [0, 7, 0, 0, 0, 0, -1], None))  # a monomial: its offsets' gcd is 0
@example(([0, 0, -(10**30)], [10**30, 0, 0, 10**30], 4))
@example(([0, 1, 0, 0, 2, 0], [0, 0, 3, 0, 0, -1], 7))
def test_int_convolve_packs_one_residue_class(case):
    xs, ys, n = case
    full = _schoolbook(xs, ys)
    expected = full if n is None else (full + [0] * n)[:n]
    assert int_convolve(xs, ys, n) == expected
    assert int_convolve(xs, ys) == full


def test_int_convolve_keeps_its_empty_and_zero_returns():
    assert int_convolve([], [1, 2]) == []
    assert int_convolve([0], [0], 3) == [0, 0, 0]
    assert int_convolve([0, 0, 4], [0, 5], 2) == [0, 0]  # product starts at the cut


def test_long_rational_multiplication_matches_scalar_schoolbook():
    rng = random.Random(78)
    n = 300
    a = QSeries([Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(n)], -3, n - 3)
    b = QSeries([Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(n - 40)], 2, n)
    expected, truncation = _scalar_product(a, b)
    prod = a * b
    assert prod.truncation == truncation
    for e in range(-1, truncation):
        assert prod.coefficient(e) == expected.get(e, 0)


# -- series over Q(zeta_3) ----------------------------------------------------------------


def _scalar_product(a: QSeries, b: QSeries) -> tuple[dict, int]:
    """Coefficients of a*b below its truncation, by scalar arithmetic alone."""
    truncation = min(a.truncation + b.valuation, b.truncation + a.valuation)
    out: dict = {}
    for ea, ca in a.known_terms():
        for eb, cb in b.known_terms():
            if ea + eb < truncation:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out, truncation


def test_twisted_eta_unit_inverse_log_and_exp():
    # the twist by w^k, read off the 3-dissection, commutes with inverse, log and exp
    u = eta_unit(1, 40)
    one = (QSeries.one(40), QSeries.zero(40))
    for k in (1, 2):
        twisted = _twist(u, k)
        assert _pair_product(twisted, _twist(u.inv(), k)) == one
        log = u.log_unit()
        assert _twist(_recurrence_exp(log), k) == twisted
        # q d/dq log u = (q du/dq) / u, twisted term by term
        assert _pair_product(_twist(log.qdq(), k), twisted) == _twist(u.qdq(), k)
    # the twists by w^2 = w^-1 and by w are conjugate: their product is the
    # rational norm (x - y)^2 + xy of x + w y = u(w^-1 q), which the rotation reads
    x, y = _twist(u, 2)
    assert _pair_product(_twist(u, 1), (x, y)) == ((x - y) ** 2 + x * y, QSeries.zero(40))


# -- serialization ---------------------------------------------------------------------


def test_json_round_trip():
    rng = random.Random(79)
    for _ in range(20):
        s = _random_series(rng, 12)
        data = json.loads(json.dumps(s.to_json_dict()))
        again = QSeries.from_json_dict(data)
        assert again == s
        assert again.truncation == s.truncation
        assert again.valuation <= s.truncation


def test_json_schema_shape():
    s = QSeries([Fraction(1, 3), Fraction(0), Fraction(-2)], -1, 2)
    data = s.to_json_dict()
    assert sorted(data) == ["coeffs", "truncation", "valuation"]
    assert data["valuation"] == -1
    assert data["truncation"] == 2
    assert data["coeffs"] == ["1/3", "0", "-2"]


def test_format_series_examples():
    assert format_series(QSeries([1, 0, 0, 1, 0, 0, 2], 1, 8)) == "q + q^4 + 2q^7 + O(q^8)"
    assert format_series(QSeries([Fraction(-1, 24)], 0, 2)) == "-1/24 + O(q^2)"
    assert format_series(QSeries.zero(5)) == "O(q^5)"
    assert format_series(QSeries([Fraction(1, 3)], -1, 1)) == "1/3q^-1 + O(q^1)"
