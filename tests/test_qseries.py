from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

from gwseries.d4 import _d4_rhs
from gwseries.e6 import _e6_rhs
from gwseries.exact_arith import CyclotomicNumber, OrderMismatch, int_convolve
from gwseries.modular import eta_unit
from gwseries.qseries import (
    BranchMissing,
    LeadingCoefficientNotPower,
    NotUnit,
    PrecisionError,
    PuiseuxSeries,
    QSeries,
    ValuationNotDivisible,
    ZeroDivisor,
    format_series,
    solve_qdq_system,
)

CASES = 100
RING_ORDER = 64
# Relative precisions on either side of the Newton iterations' doublings.
NEWTON_PRECISIONS = (1, 2, 3, 63, 64, 65)


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
    """CASES random relative precisions, then the Newton boundaries."""
    for _ in range(CASES):
        yield rng.randint(low, high)
    yield from NEWTON_PRECISIONS


# The O(n^2) coefficient recurrences that inv, log_unit and exp_positive used
# before they became Newton iterations, kept as independent references.


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


def test_qdq_system_solves_the_geometric_series():
    # q dy/dq = y^2 - y with y = 1 + q + ... is solved by 1/(1 - q)
    for order in (0, 1, 2, 3, 40):
        (y,) = solve_qdq_system(lambda y: (y * y - y,), [(1, 1)], order)
        assert y == QSeries([1] * order, 0, order) and y.truncation == order


def test_qdq_system_rejects_seeds_off_the_system():
    with pytest.raises(ArithmeticError, match="seeds"):
        solve_qdq_system(lambda y: (y * y - y,), [(2, 1)], 10)  # q^0: 0 != 2^2 - 2
    with pytest.raises(ArithmeticError, match="seeds"):
        solve_qdq_system(lambda y: (y * y,), [(0, 1)], 10)  # q^1: 1 != 2 * 0 * 1


def test_qdq_system_needs_an_upper_triangular_jacobian():
    # q y' = y, q z' = y: J0 = [[1, 0], [1, 0]] has an entry below the diagonal
    with pytest.raises(ArithmeticError, match="upper triangular"):
        solve_qdq_system(lambda y, z: (y, y), [(0, 1), (0, 1)], 10)
    # the same system with z listed first is upper triangular and solvable
    z, y = solve_qdq_system(lambda z, y: (y, y), [(0, 1), (0, 1)], 10)
    assert z == y == QSeries.monomial(1, 1, 10)


def _step_solve(rhs, seeds, order: int) -> tuple[QSeries, ...]:
    """Reference: the solver one coefficient per step.  Step n evaluates rhs
    with Y_n provisionally 0 and solves (n - J0) Y_n = [rhs]_n by back
    substitution, one full evaluation of the system per coefficient."""
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
    "geometric": (lambda y: (y * y - y,), [(1, 1)]),
    "d4": (_d4_rhs, ((0, 1), (Fraction(-1, 24), 0), (0, 0))),
    "e6": (_e6_rhs, ((0, 1), (Fraction(1, 3), 0), (0, 0))),
}


@pytest.mark.parametrize("system", sorted(_SYSTEMS))
def test_doubling_solver_matches_the_step_loop(system):
    rhs, seeds = _SYSTEMS[system]
    for order in [*range(41), 125, 242]:
        reference = _step_solve(rhs, seeds, order)
        solved = solve_qdq_system(rhs, seeds, order)
        for s, r in zip(solved, reference, strict=True):
            assert s == r and s.truncation == r.truncation == order, order


def test_doubling_solver_calls_the_system_logarithmically_often():
    calls = []

    def counted(*ys):
        calls.append(max(y.truncation for y in ys))
        return _e6_rhs(*ys)

    seeds = _SYSTEMS["e6"][1]
    order, k = 242, len(seeds)
    solve_qdq_system(counted, seeds, order)
    assert len(calls) <= 4 * math.ceil(math.log2(order)) + k + 2
    assert max(calls) == order


def test_qdq_system_is_solved_over_the_rationals_only():
    w = CyclotomicNumber.zeta(3)
    with pytest.raises(OrderMismatch):
        solve_qdq_system(lambda y: (y * y - y + w - w * w,), [(w, 0)], 10)


def test_qdq_system_stops_at_a_resonance():
    # q y' = 2 y: n - J0 vanishes at n = 2, where y_2 is not determined
    with pytest.raises(ZeroDivisionError):
        solve_qdq_system(lambda y: (y.scale(2),), [(0, 0)], 10)


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


def test_twist_multiplies_coefficients_termwise():
    rng = random.Random(72)
    z = CyclotomicNumber.zeta(24, 5)
    s = _random_series(rng, 12)
    twisted = s.twist(z)
    for e, c in s.known_terms():
        assert twisted.coefficient(e) == c * z**e


def test_twist_by_minus_one_flips_odd_part():
    rng = random.Random(73)
    s = _random_series(rng, 20, valuation_low=0)
    flipped = s.twist(Fraction(-1))
    even = (s + flipped).scale(Fraction(1, 2))
    for e, c in even.known_terms():
        assert e % 2 == 0 or c == 0


def test_log_exp_round_trip():
    rng = random.Random(74)
    for truncation in (24,) * 25 + NEWTON_PRECISIONS:
        u = _random_unit(rng, truncation)
        assert u.log_unit().exp_positive() == u
    long_unit = _random_unit(rng, 300)
    log = long_unit.log_unit()
    assert log == _recurrence_log(long_unit) and log.truncation == 300
    assert log.exp_positive() == _recurrence_exp(log) == long_unit
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


# -- series over Q(zeta_72) ---------------------------------------------------------------


def _scalar_product(a: QSeries, b: QSeries) -> tuple[dict, int]:
    """Coefficients of a*b below its truncation, by scalar arithmetic alone."""
    truncation = min(a.truncation + b.valuation, b.truncation + a.valuation)
    out: dict = {}
    for ea, ca in a.known_terms():
        for eb, cb in b.known_terms():
            if ea + eb < truncation:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out, truncation


def _mixed_coefficient(rng: random.Random):
    kind = rng.randrange(4)
    q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if kind == 0:
        return q
    z = CyclotomicNumber.zeta(72, rng.randrange(72)) * q
    if kind == 1:
        return z
    return z + CyclotomicNumber.zeta(72, rng.randrange(72)) * Fraction(1, rng.randint(1, 5))


def test_cyclotomic_series_products_match_scalar_schoolbook():
    rng = random.Random(80)
    for _ in range(12):
        series = []
        for _ in range(2):
            length = rng.randint(1, 30)
            valuation = rng.randint(-4, 3)
            truncation = valuation + length + rng.randint(0, 6)
            series.append(
                QSeries([_mixed_coefficient(rng) for _ in range(length)], valuation, truncation)
            )
        a, b = series
        expected, truncation = _scalar_product(a, b)
        prod = a * b
        assert prod.truncation == truncation
        for e in range(a.valuation + b.valuation, truncation):
            assert prod.coefficient(e) == expected.get(e, 0)


def test_twisted_eta_unit_inverse_log_and_exp():
    u = eta_unit(1, 40).twist(CyclotomicNumber.zeta(72, 5))
    assert u * u.inv() == 1
    assert u.log_unit().exp_positive() == u
    shifted = u.shift(-2).scale(CyclotomicNumber.zeta(72, 7) + Fraction(1, 3))
    assert shifted * shifted.inv() == QSeries.one(38)


def test_product_across_cyclotomic_orders_raises():
    a = QSeries([1, CyclotomicNumber.zeta(72, 1)], 0, 4)
    b = QSeries([CyclotomicNumber.zeta(24, 1)], 0, 4)
    with pytest.raises(OrderMismatch):
        a * b


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


def test_cyclotomic_series_refuse_json():
    s = QSeries([CyclotomicNumber.zeta(3)], 0, 2)
    with pytest.raises(ValueError):
        s.to_json_dict()


def test_format_series_examples():
    assert format_series(QSeries([1, 0, 0, 1, 0, 0, 2], 1, 8)) == "q + q^4 + 2q^7 + O(q^8)"
    assert format_series(QSeries([Fraction(-1, 24)], 0, 2)) == "-1/24 + O(q^2)"
    assert format_series(QSeries.zero(5)) == "O(q^5)"
    assert format_series(QSeries([Fraction(1, 3)], -1, 1)) == "1/3q^-1 + O(q^1)"


# -- Puiseux layer ---------------------------------------------------------------------


def test_puiseux_product_collects_offsets_and_scalars():
    unit = QSeries([1, 1], 0, 6)
    a = PuiseuxSeries(2, Fraction(1, 4), unit)
    b = PuiseuxSeries(Fraction(1, 2), Fraction(3, 4), unit)
    prod = a * b
    assert prod.scalar == 1
    assert prod.offset == 1
    assert prod.unit == unit * unit


def test_puiseux_twist_branch_contract():
    unit = QSeries([1, 1], 0, 6)
    s = PuiseuxSeries(1, Fraction(1, 24), unit)
    with pytest.raises(BranchMissing):
        s.twist(CyclotomicNumber.zeta(72, 3))
    twisted = s.twist(CyclotomicNumber.zeta(72, 3), branch=CyclotomicNumber.zeta(72, 1))
    assert twisted.scalar == CyclotomicNumber.zeta(72, 1)
    # integral offsets never need a branch
    t = PuiseuxSeries(1, Fraction(2), unit).twist(Fraction(-1))
    assert t.scalar == 1


def test_puiseux_logderiv_reports_offset():
    unit = QSeries([1, 1], 0, 6)  # 1 + q
    s = PuiseuxSeries(7, Fraction(1, 4), unit)
    ld = s.logderiv()
    assert ld.coefficient(0) == Fraction(1, 4)
    assert ld.coefficient(1) == 1  # q d/dq log(1+q) = q - q^2 + ...
    assert ld.coefficient(2) == -1


def test_puiseux_to_qseries_requires_integral_offset():
    unit = QSeries([1], 0, 4)
    with pytest.raises(ValuationNotDivisible):
        PuiseuxSeries(1, Fraction(1, 2), unit).to_qseries()
    assert PuiseuxSeries(3, Fraction(2), unit).to_qseries() == QSeries([3], 2, 6)
