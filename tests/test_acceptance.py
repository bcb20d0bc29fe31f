"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `criterion NN: pass/FAIL` line (visible under
pytest -s) and then asserts, so the -v listing carries the same verdicts.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from gwseries.d4 import (
    d4_analytic,
    d4_build_potential,
    d4_elliptic_weyl_reports,
    d4_genus_one,
    d4_recursion_solve,
    halphen_suites,
)
from gwseries.e6 import (
    e6_build_fi,
    e6_build_potential,
    e6_genus_one,
    e6_gw_table,
    e6_h_analytic,
    e6_identity_suite,
    e6_schwarzian_solve,
)
from gwseries.frobenius import euler_residual, wdvv_residual
from gwseries.modular import EtaQuotient, eta_expand, lattice_theta
from gwseries.qseries import QSeries


def _certify(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'pass' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} failed: {detail}"


_POTENTIALS: dict[str, object] = {}


def _potential(model: str):
    if model not in _POTENTIALS:
        _POTENTIALS[model] = (
            d4_build_potential(d4_analytic(22))
            if model == "d4"
            else e6_build_potential(e6_build_fi(17))
        )
    return _POTENTIALS[model]


def test_criterion_01_d4_recursion_equals_closed_form():
    start = time.perf_counter()
    recursive = d4_recursion_solve(60)
    closed = d4_analytic(60)
    elapsed = time.perf_counter() - start
    equal = (
        recursive.a == closed.a and recursive.b == closed.b and recursive.c == closed.c
    )
    _certify(
        1,
        equal and elapsed < 5.0,
        f"d4 recursion matches divisor-sum/eta forms at order 60 ({elapsed:.2f}s)",
    )


def test_criterion_02_e6_solver_equals_eta_closed_form():
    start = time.perf_counter()
    solved = e6_schwarzian_solve(60)
    quotient = eta_expand("eta(1)^3 * eta(9)^-3", 61)
    closed = QSeries.constant(Fraction(1), 60) + quotient.scale(Fraction(1, 3))
    elapsed = time.perf_counter() - start
    printed = (
        solved.coefficient(-1) == Fraction(1, 3)
        and solved.coefficient(2) == Fraction(5, 3)
        and solved.coefficient(5) == Fraction(-7, 3)
        and solved.coefficient(8) == 1
    )
    _certify(
        2,
        solved == closed and printed and elapsed < 30.0,
        f"e6 pole series matches 1 + (1/3)(eta(q)/eta(q^9))^3 at order 60 ({elapsed:.2f}s)",
    )


def test_criterion_03_wdvv_passes_and_is_mutation_sensitive():
    start = time.perf_counter()
    d4 = d4_build_potential(d4_analytic(22))
    e6 = e6_build_potential(e6_build_fi(17))
    _POTENTIALS["d4"] = d4
    _POTENTIALS["e6"] = e6
    clean = wdvv_residual(d4, 20).passed and wdvv_residual(e6, 15).passed
    rng = random.Random(33)
    surviving = 0
    for potential, cap in ((d4, 20), (e6, 15)):
        keys = sorted(potential.quantum)
        for _ in range(20):
            key = rng.choice(keys)
            exponent = rng.randint(1, cap - 1)
            delta = Fraction(rng.choice((-1, 1)), rng.randint(1, 720))
            mutated = potential.with_mutated_quantum(key, exponent, delta)
            if wdvv_residual(mutated, cap).passed:
                surviving += 1
    elapsed = time.perf_counter() - start
    _certify(
        3,
        clean and surviving == 0 and elapsed < 60.0,
        "wdvv passes at T=20 (d4) and T=15 (e6); all 40 mutations fail "
        f"({elapsed:.1f}s)",
    )


def test_criterion_04_euler_grading():
    ok = euler_residual(_potential("d4")).passed and euler_residual(_potential("e6")).passed
    _certify(4, ok, "Euler grading holds for both potentials")


def test_criterion_05_gw_table_dual_route():
    table, certificate = e6_gw_table(10)
    direct = EtaQuotient.parse("eta(3)^3 * eta(1)^-1").unit(12)  # q^(1/3) * unit
    eta_counts = [direct.coefficient(k) for k in range(11)]
    values = [c for _, c in table]
    ok = (
        certificate.passed
        and values == eta_counts
        and values[0] == 1
        and [k for k, _ in table] == list(range(11))
    )
    _certify(
        5,
        ok,
        f"c_0..c_10 = {[int(v) for v in values]} match the eta quotient and "
        "the equation-solving route",
    )


def test_criterion_06_halphen_suite_to_order_100():
    reports = [r for _, suite in halphen_suites(100) for r in suite]
    failing = [r.name for r in reports if not r.passed]
    ok = not failing and len(reports) == 12 and all(
        r.order_certified >= 100 for r in reports
    )
    _certify(6, ok, f"Halphen system, eta forms, and bridges exact to order 100 "
                    f"({len(reports)} reports{', failing: ' + ', '.join(failing) if failing else ''})")


def test_criterion_07_e6_identity_suite():
    f0 = eta_expand("eta(9)^3 * eta(3)^-1", 60)
    quotient = eta_expand("eta(1)^3 * eta(9)^-3", 61)
    reports = e6_identity_suite(60, e6_h_analytic(62), f0, quotient)
    ok = len(reports) == 8 and all(
        r.passed and r.order_certified >= 60 for r in reports
    )
    _certify(7, ok, "eight identities exact to order 60, three of them over Q(zeta_3)")


def test_criterion_08_genus_one_both_models():
    d4 = d4_genus_one(60, d4_analytic(60))
    e6 = e6_genus_one(60, e6_build_fi(60))
    ok = (
        d4.passed
        and e6.passed
        and d4.report.order_certified >= 60
        and e6.report.order_certified >= 60
        and d4.linear_coefficient == Fraction(-1, 24)
        and e6.linear_coefficient == Fraction(-1, 24)
    )
    _certify(8, ok, "genus-one derivative and Virasoro certificates exact to order 60")


def test_criterion_09_elliptic_weyl_comparison():
    reports = d4_elliptic_weyl_reports(40, d4_analytic(40))
    even, shifted = lattice_theta(3)
    anchors = even.coefficient(0) == 1 and shifted.leading() == (1, 8)
    _certify(
        9,
        all(r.passed and r.order_certified >= 40 for r in reports) and anchors,
        "h0, h1, h2 match the lattice theta forms to order 40 with anchored leads",
    )


def test_criterion_10_property_suites():
    rng = random.Random(10)
    order = 64
    cases = 100

    def rand_series(truncation, valuation_low=-3):
        v = rng.randint(valuation_low, 3)
        return QSeries(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(truncation - v)],
            v,
            truncation,
        )

    def rand_unit(truncation):
        return QSeries(
            [Fraction(1)]
            + [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(truncation - 1)],
            0,
            truncation,
        )

    ok = True
    for _ in range(cases):
        x, y, z = (rand_series(order) for _ in range(3))
        ok = ok and (x + y) + z == x + (y + z) and x * y == y * x
        ok = ok and (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
    # then relative precisions at the small end and on either side of a power of two
    for truncation in (24,) * cases + (1, 2, 3, 63, 64, 65):
        u = rand_unit(truncation)
        ok = ok and u * u.inv() == QSeries.one(truncation)
        shifted = u.shift(-3)  # negative valuation
        ok = ok and shifted * shifted.inv() == QSeries.one(truncation)
        n = rng.choice((2, 3, 5))
        ok = ok and (u**n).nth_root(n) == u
        ok = ok and (u**n).shift(-2 * n).nth_root(n) == u.shift(-2)
    for _ in range(cases):
        x, y = rand_series(24), rand_series(24)
        ok = ok and (x * y).qdq() == x.qdq() * y + x * y.qdq()
    for _ in range(cases):
        x = rand_series(20, valuation_low=0)
        m = rng.randint(1, 5)
        ok = ok and x.substitute_power(m).qdq() == x.qdq().substitute_power(m).scale(m)
    _certify(
        10,
        ok,
        f"ring axioms, inverse/root round-trips, Leibniz, substitution: {cases} cases each",
    )
