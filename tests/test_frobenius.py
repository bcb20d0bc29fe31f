from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest

import gwseries.e6 as e6_module
import gwseries.frobenius as frobenius
from gwseries.d4 import d4_analytic, d4_build_potential
from gwseries.e6 import e6_build_fi, e6_build_potential
from gwseries.exact_arith import _unpack_slots as unpack
from gwseries.frobenius import (
    FrobeniusPotential,
    MetricMatrix,
    NonConstantMetric,
    UnknownCoordinate,
    _WdvvEngine,
    _contraction_keys,
    euler_residual,
    metric_from_potential,
    third_derivative,
    wdvv_residual,
)
from gwseries.qseries import PrecisionError, QSeries

# Rational plane curve counts through 3d-1 generic points, the classic
# associativity benchmark: any single wrong count breaks WDVV.
PLANE_CURVE_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304}


def _projective_plane(truncation: int = 6) -> FrobeniusPotential:
    quantum = {
        (0, 3 * d - 1, 0): QSeries.monomial(
            Fraction(count, factorial(3 * d - 1)), d, truncation
        )
        for d, count in PLANE_CURVE_COUNTS.items()
        if d < truncation
    }
    return FrobeniusPotential(
        coords=("t0", "p", "t"),
        degrees=(Fraction(1), Fraction(1), Fraction(0)),
        classical={(2, 1, 0): Fraction(1, 2), (1, 0, 2): Fraction(1, 2)},
        quantum=quantum,
    )


def _toy_potential(pairing: Fraction = Fraction(1)) -> FrobeniusPotential:
    series = QSeries([1, 2, 3], 1, 6)
    return FrobeniusPotential(
        coords=("t0", "x", "y", "t"),
        degrees=(Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        classical={(2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): pairing},
        quantum={(0, 1, 2, 0): series},
    )


# -- third derivatives -------------------------------------------------------------


def test_third_derivative_of_classical_cubic_is_constant():
    F = _toy_potential()
    out = third_derivative(F, "t0", "t0", "t")
    assert list(out) == [(0, 0, 0, 0)]
    assert out[(0, 0, 0, 0)] == QSeries.one(6)
    mixed = third_derivative(F, "t0", "x", "y")
    assert mixed == {(0, 0, 0, 0): QSeries.one(6)}


def test_third_derivative_with_log_slot_applies_q_derivative():
    F = _toy_potential()
    out = third_derivative(F, "x", "y", "t")
    qd = QSeries([1, 2, 3], 1, 6).qdq().scale(2)
    assert out == {(0, 0, 1, 0): qd}


def test_third_derivative_drops_annihilated_terms():
    F = _toy_potential()
    assert third_derivative(F, "x", "x", "x") == {}
    assert third_derivative(F, "y", "y", "y") == {}


def test_pure_log_derivatives_iterate_qdq():
    F = _toy_potential()
    out = third_derivative(F, "t", "t", "t")
    assert out == {(0, 1, 2, 0): QSeries([1, 2, 3], 1, 6).qdq().qdq().qdq()}


def _third_derivative_slot_by_slot(F: FrobeniusPotential, *names: str) -> dict:
    """Reference: differentiate the raw potential one slot at a time, with
    d/dt acting as q d/dq on quantum coefficients."""
    log = len(F.coords) - 1
    T = F.truncation
    terms = [(key, Fraction(1), s.truncate(T), True) for key, s in F.quantum.items()]
    terms += [(key, value, QSeries.one(T), False) for key, value in F.classical.items()]
    for slot in (F.coordinate_index(name) for name in names):
        lowered = []
        for key, scalar, series, quantum in terms:
            if quantum and slot == log:
                lowered.append((key, scalar, series.qdq(), quantum))
            elif key[slot]:
                new_key = key[:slot] + (key[slot] - 1,) + key[slot + 1 :]
                lowered.append((new_key, scalar * key[slot], series, quantum))
        terms = lowered
    out: dict = {}
    for key, scalar, series, _ in terms:
        piece = series.scale(scalar)
        out[key] = out[key] + piece if key in out else piece
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_third_derivative_is_symmetric_in_its_arguments():
    rng = random.Random(20260818)
    coords = ("t0", "u", "v", "w", "t")
    for _ in range(20):
        classical = {}
        for _ in range(4):
            key = tuple(rng.randint(0, 2) for _ in coords)
            classical[key] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        quantum = {}
        for _ in range(3):
            key = (0, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3), 0)
            quantum[key] = QSeries([rng.randint(-4, 4) for _ in range(5)], 1, 6)
        F = FrobeniusPotential(coords, (Fraction(1),) * 5, classical, quantum)
        names = [rng.choice(coords) for _ in range(3)]
        reference = third_derivative(F, *names)
        for perm in ((1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0), (0, 2, 1)):
            shuffled = third_derivative(F, *(names[i] for i in perm))
            assert shuffled == reference
        for triple in combinations_with_replacement(coords, 3):
            assert third_derivative(F, *triple) == _third_derivative_slot_by_slot(F, *triple)


def test_unknown_coordinate_is_reported():
    F = _toy_potential()
    with pytest.raises(UnknownCoordinate):
        third_derivative(F, "t0", "t0", "nope")
    with pytest.raises(UnknownCoordinate):
        F.coordinate_index("q")


# -- the metric --------------------------------------------------------------------


def test_plane_metric_pairs_unit_with_point_class():
    metric = metric_from_potential(_projective_plane())
    assert metric.entry("t0", "p") == 1
    assert metric.entry("t", "t") == 1
    assert metric.entry("t0", "t0") == 0
    assert metric.entry("t0", "t") == 0
    assert metric.entry("p", "p") == 0


def test_metric_is_symmetric_and_inverts():
    metric = metric_from_potential(_projective_plane())
    n = len(metric.coords)
    for i in range(n):
        for j in range(n):
            assert metric.rows[i][j] == metric.rows[j][i]
    inverse = metric.inverse_rows()
    for i in range(n):
        for j in range(n):
            total = sum(metric.rows[i][k] * inverse[k][j] for k in range(n))
            assert total == (1 if i == j else 0)


def test_metric_sees_only_the_classical_part():
    with_quantum = _projective_plane()
    without = FrobeniusPotential(
        with_quantum.coords, with_quantum.degrees, with_quantum.classical, {}
    )
    assert metric_from_potential(with_quantum) == metric_from_potential(without)
    assert without.truncation == 0


def test_quartic_classical_term_is_rejected():
    F = FrobeniusPotential(
        ("t0", "x", "t"),
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        {(2, 2, 0): Fraction(1)},
        {},
    )
    with pytest.raises(NonConstantMetric):
        metric_from_potential(F)


def test_degenerate_metric_is_rejected():
    metric = MetricMatrix(("a", "b"), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(NonConstantMetric):
        metric.inverse_rows()


# -- Euler grading -----------------------------------------------------------------


def test_euler_grading_accepts_weight_two_potentials():
    F = FrobeniusPotential(
        ("t0", "x", "y", "t"),
        (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        {(2, 0, 0, 1): Fraction(1, 2), (1, 1, 1, 0): Fraction(1)},
        {(0, 2, 2, 0): QSeries([1], 1, 4), (0, 4, 0, 0): QSeries([2], 2, 4)},
    )
    assert euler_residual(F).passed


def test_euler_grading_flags_degree_breaking_monomials():
    F = FrobeniusPotential(
        ("t0", "x", "y", "t"),
        (Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        {(2, 0, 0, 1): Fraction(1, 2)},
        {(0, 1, 1, 0): QSeries([1], 1, 4)},
    )
    report = euler_residual(F)
    assert not report.passed
    assert report.name == "euler-grading"
    assert report.first_failure.indices == (0, 1, 1, 0)
    assert report.first_failure.residual == "-1"
    # the residual prints as the Fraction weight - 2, degrees of any denominators
    e6_like = FrobeniusPotential(
        ("t0", "x", "y", "t"),
        (Fraction(1), Fraction(2, 3), Fraction(1, 3), Fraction(0)),
        {(2, 0, 0, 1): Fraction(1, 2)},
        {(0, 1, 4, 0): QSeries([1], 1, 4), (0, 1, 3, 0): QSeries([1], 1, 4)},
    )
    assert euler_residual(e6_like).first_failure[::2] == ((0, 1, 3, 0), "-1/3")


# -- WDVV --------------------------------------------------------------------------


def test_plane_curve_counts_satisfy_associativity():
    assert wdvv_residual(_projective_plane(), 6).passed


def test_each_wrong_curve_count_breaks_associativity():
    F = _projective_plane()
    low = F.with_mutated_quantum((0, 5, 0), 2, Fraction(1, 720))
    report = wdvv_residual(low, 6)
    assert not report.passed
    assert report.first_failure.indices == (1, 1, 2, 2)
    assert report.first_failure.exponent == 2
    assert Fraction(report.first_failure.residual) == Fraction(1, 12)

    high = F.with_mutated_quantum((0, 14, 0), 5, Fraction(-3))
    report = wdvv_residual(high, 6)
    assert report.first_failure.exponent == 5
    assert Fraction(report.first_failure.residual) == -6552


E6_PROBE_KEY = (0, 1, 1, 1, 0, 0, 0, 0)  # f_0 = q + q^4 + 2q^7 + ..., class 1 mod 3


def _wdvv_cases() -> list[tuple[FrobeniusPotential, int]]:
    plane = _projective_plane()
    d4 = d4_build_potential(d4_analytic(8))
    e6 = e6_build_potential(e6_build_fi(12))
    return [
        (plane, 6),
        (plane.with_mutated_quantum((0, 5, 0), 2, Fraction(1, 720)), 6),
        (plane.with_mutated_quantum((0, 14, 0), 5, Fraction(-3)), 6),
        (d4.with_mutated_quantum((0, 2, 2, 0, 0, 0), 3, Fraction(-5, 7)), 6),  # off class
        (d4.with_mutated_quantum((0, 2, 2, 0, 0, 0), 4, Fraction(-5, 7)), 6),  # on class
        (_toy_potential(Fraction(3, 5)), 6),  # inverse metric entry 5/3
        (e6, 10),
        (e6.with_mutated_quantum(E6_PROBE_KEY, 4, Fraction(-2, 5)), 10),  # on class
        (e6.with_mutated_quantum(E6_PROBE_KEY, 2, Fraction(-2, 5)), 10),  # off class
    ]


def test_engine_reads_the_stride_from_the_numerators():
    # monomial bases (the plane) give stride 1; a perturbation off its class
    # lowers a model's stride to 1, one on its class keeps it
    strides = [_WdvvEngine(potential, truncation).stride for potential, truncation in _wdvv_cases()]
    assert strides == [1, 1, 1, 1, 2, 1, 3, 3, 1]
    e6 = _WdvvEngine(e6_build_potential(e6_build_fi(60)), 60)
    assert (e6.stride, [mask.bit_length() // (8 * e6.width) for mask in e6.masks]) == (3, [20, 20, 20])
    d4 = _WdvvEngine(d4_build_potential(d4_analytic(60)), 60)
    assert (d4.stride, [mask.bit_length() // (8 * d4.width) for mask in d4.masks]) == (2, [30, 30])


def test_every_stride_case_has_teeth():
    failures = [wdvv_residual(potential, truncation).first_failure for potential, truncation in _wdvv_cases()]
    assert [failure is None for failure in failures] == [True] + [False] * 5 + [True, False, False]
    # each e6 perturbation of f_0 at q^e shows at q^(e+1)
    assert [(f.exponent, f.residual) for f in failures[-2:]] == [(5, "4/5"), (3, "4/5")]


def test_reduced_quadruple_scan_finds_the_same_failure():
    for potential, truncation in _wdvv_cases():
        engine = _WdvvEngine(potential, truncation)
        first = next(
            (
                (quad, failure)
                for quad in product(range(engine.dim), repeat=4)
                if (failure := engine.residual_failure(*quad)) is not None
            ),
            None,
        )
        failure = wdvv_residual(potential, truncation).first_failure
        if first is None:
            assert failure is None
        else:
            assert (failure.indices, (failure.exponent, Fraction(failure.residual))) == first


def _engine_entries(engine: _WdvvEngine, poly: dict, truncation: int) -> list:
    """(class, coefficients) per entry of an engine contraction, in units of
    1/engine.denominator, in the order of its keys, which is the order of
    the monomials' exponent tuples."""
    g = engine.stride
    return [(m % g, unpack(v, engine.width, len(range(m % g, truncation, g)))) for m, v in sorted(poly.items())]


def _reference_entries(poly: dict, g: int, denominator: int) -> list:
    """(class, coefficients) per monomial and nonzero residue class mod g, in
    units of 1/denominator where that is an integer."""

    def scaled(c: Fraction):
        return c.numerator * (denominator // c.denominator) if denominator % c.denominator == 0 else c

    entries = ((c, coeffs[c::g]) for _, coeffs in sorted(poly.items()) for c in range(g))
    return [(c, [scaled(x) for x in part]) for c, part in entries if any(part)]


def test_engine_matches_the_fraction_reference_on_every_quadruple(wdvv_reference):
    """Every contraction a residual reads, entry by entry, and the first
    failure of every quadruple; quadruples that read the same two
    contractions share it, so one of them stands for all."""
    for potential, truncation in _wdvv_cases():
        engine = _WdvvEngine(potential, truncation)
        reference = wdvv_reference(potential, truncation)
        sides = {}
        for quad in product(range(engine.dim), repeat=4):
            sides.setdefault(tuple(_contraction_keys(*quad)), quad)
        for key in {key for pair in sides for key in pair}:
            got = _engine_entries(engine, engine.contraction(key), truncation)
            want = _reference_entries(reference.contraction(*key[0], *key[1]), engine.stride, engine.denominator)
            assert got == want, key
        for quad in sides.values():
            reference.assert_first_failure(quad, engine.residual_failure(*quad))


def test_residuals_do_not_depend_on_the_order_they_are_asked_in():
    """The engine stores pair products only, which do not depend on the order
    they are met in: a fresh engine swept over every quadruple in a shuffled
    order answers as one swept in lexicographic order."""
    rng = random.Random(23)
    for potential, truncation in _wdvv_cases():
        engine = _WdvvEngine(potential, truncation)
        quads = list(product(range(engine.dim), repeat=4))
        lexicographic = {quad: engine.residual_failure(*quad) for quad in quads}
        rng.shuffle(quads)
        engine = _WdvvEngine(potential, truncation)
        assert {quad: engine.residual_failure(*quad) for quad in quads} == lexicographic


def test_a_contraction_keeps_every_monomial_apart(wdvv_reference):
    """(t t | t t) multiplies whole quantum keys, so its exponents are the
    largest a product reaches: the engine keeps one entry per monomial and
    residue class, each with the reference's coefficients."""
    potential = e6_build_potential(e6_build_fi(10))
    engine = _WdvvEngine(potential, 10)
    t = engine.dim - 1
    got = _engine_entries(engine, engine.contraction(((t, t), (t, t))), 10)
    assert len(got) == 146
    want = _reference_entries(wdvv_reference(potential, 10).contraction(t, t, t, t), engine.stride, engine.denominator)
    assert got == want


def test_wdvv_rejects_laurent_coefficients():
    plane = _projective_plane()
    laurent = FrobeniusPotential(
        plane.coords, plane.degrees, plane.classical, {(0, 2, 0): QSeries([1], -1, 6)}
    )
    with pytest.raises(ValueError, match="power-series"):
        wdvv_residual(laurent, 6)


def test_residual_is_antisymmetric_in_the_outer_pair():
    broken = _projective_plane().with_mutated_quantum((0, 5, 0), 2, Fraction(1, 720))
    engine = _WdvvEngine(broken, 6)
    assert engine.residual_failure(1, 1, 2, 2) == (2, Fraction(1, 12))
    assert engine.residual_failure(1, 2, 2, 1) == (2, Fraction(-1, 12))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if b == d:
                        assert engine.residual_failure(a, b, c, d) is None
                        continue
                    forward = engine.residual_failure(a, b, c, d)
                    swapped = engine.residual_failure(a, d, c, b)
                    if forward is None:
                        assert swapped is None
                    else:
                        assert swapped == (forward[0], -forward[1])


def test_wdvv_refuses_to_certify_past_the_potential():
    with pytest.raises(PrecisionError, match="need order 40"):
        wdvv_residual(d4_build_potential(d4_analytic(10)), 40)
    # with no quantum part the potential is exact, though its truncation reads 0
    plane = _projective_plane()
    classical = FrobeniusPotential(plane.coords, plane.degrees, plane.classical, {})
    assert classical.truncation == 0
    assert wdvv_residual(classical, 40).passed


def test_wdvv_takes_a_quantum_coefficient_that_q_d_dq_kills(wdvv_reference):
    # a constant coefficient: every derivative term with a t slot is the zero series
    plane = _projective_plane()
    quantum = {(0, 3, 0): QSeries([Fraction(1, 6)], 0, 6)}
    cubic = FrobeniusPotential(plane.coords, plane.degrees, plane.classical, quantum)
    failure = wdvv_residual(cubic, 6).first_failure
    assert (failure.indices, failure.exponent, Fraction(failure.residual)) == ((1, 1, 2, 2), 0, 1)
    engine = _WdvvEngine(cubic, 6)
    reference = wdvv_reference(cubic, 6)
    for quad in product(range(engine.dim), repeat=4):
        reference.assert_first_failure(quad, engine.residual_failure(*quad))


def test_engine_interns_its_series_up_to_a_scalar():
    # the fourteen f_i (resp. a, b, c) under q d/dq^0..3, plus the constant 1
    assert len(_WdvvEngine(e6_build_potential(e6_build_fi(20)), 20)._packed) == 57
    assert len(_WdvvEngine(d4_build_potential(d4_analytic(20)), 20)._packed) == 13


def test_engine_takes_q_derivatives_once_per_series(monkeypatch):
    # the keys of an orbit share one series, so three q d/dq per distinct
    # series: the fourteen f_i, one more for the doubled f_11 key of the
    # transcribed block, and a, b, c
    potentials = [
        e6_build_potential(e6_build_fi(20)),
        e6_build_potential(e6_build_fi(20), raw_f11_block=True),
        d4_build_potential(d4_analytic(20)),
    ]
    calls = []
    qdq = QSeries.qdq

    def counting(self):
        calls.append(self)
        return qdq(self)

    monkeypatch.setattr(QSeries, "qdq", counting)
    counts = []
    for potential in potentials:
        calls.clear()
        _WdvvEngine(potential, 20)
        counts.append(len(calls))
    assert counts == [42, 45, 9]


def test_engine_interns_each_series_once(monkeypatch):
    # one gcd and primitive tuple per series object, not one per derivative
    # term: the 446 nonzero terms of the e6 triples hold 57 series objects
    potential = e6_build_potential(e6_build_fi(20))
    terms = list(frobenius._derivative_terms(potential, 20))
    assert sum(1 for *_, series in terms if not series.is_zero()) == 446
    calls = []
    intern = frobenius._intern

    def counting(series, ref_of):
        calls.append(series)
        return intern(series, ref_of)

    monkeypatch.setattr(frobenius, "_intern", counting)
    _WdvvEngine(potential, 20)
    assert len(calls) == len({id(s) for s in calls}) == 57


@pytest.mark.parametrize(
    "build, blocks, keys",
    [
        (lambda: d4_build_potential(d4_analytic(12)), ((1,), (2,), (3,), (4,)), 11),
        (lambda: e6_build_potential(e6_build_fi(12)), ((1, 6), (2, 5), (3, 4)), 41),
    ],
    ids=["d4", "e6"],
)
def test_potentials_are_invariant_under_their_block_permutations(build, blocks, keys):
    potential = build()
    assert len(potential.quantum) == keys
    for perm in permutations(blocks):
        source_of = list(range(len(potential.coords)))
        for source, target in zip(blocks, perm):
            for s, t in zip(source, target):
                source_of[t] = s

        def image(key):
            return tuple(key[s] for s in source_of)

        assert {image(k): v for k, v in potential.classical.items()} == potential.classical
        assert {image(k) for k in potential.quantum} == set(potential.quantum)
        for key, series in potential.quantum.items():
            assert potential.quantum[image(key)] == series


@pytest.fixture
def scanned(monkeypatch):
    """The engines wdvv_residual builds, each recording the quadruples it scans,
    the contractions it computes in call order, and the set of squares that
    the scan (`_orbit_representatives`) fills as it meets orbits."""
    engines = []

    class Recording(_WdvvEngine):
        def __init__(self, *args):
            super().__init__(*args)
            self.quads, self.computed, self.squares = [], [], None
            engines.append(self)

        def residual_failure(self, *quad):
            self.quads.append(quad)
            return super().residual_failure(*quad)

        def contraction(self, key):
            self.computed.append(key)
            return super().contraction(key)

    scan = frobenius._orbit_representatives

    def recording_scan(dim, symmetries, seen):
        engines[-1].squares = seen
        return scan(dim, symmetries, seen)

    monkeypatch.setattr(frobenius, "_WdvvEngine", Recording)
    monkeypatch.setattr(frobenius, "_orbit_representatives", recording_scan)
    return engines


def test_scan_skips_every_quadruple_with_the_unit_index(scanned):
    for potential, truncation in _wdvv_cases():
        wdvv_residual(potential, truncation)
        engine = _WdvvEngine(potential, truncation)
        for quad in product(range(engine.dim), repeat=4):
            if 0 in quad:
                assert engine.residual_failure(*quad) is None, quad
    assert len(scanned) == len(_wdvv_cases())
    assert all(engine.quads and 0 not in quad for engine in scanned for quad in engine.quads)


def _without_symmetries(F: FrobeniusPotential) -> FrobeniusPotential:
    return FrobeniusPotential(F.coords, F.degrees, F.classical, F.quantum)


def _bump_shared(F: FrobeniusPotential, key, exponent: int, delta: Fraction) -> FrobeniusPotential:
    """F with the series at `key` bumped at every key that shares it, which
    keeps an orbit table invariant."""
    old = F.quantum[key]
    new = old + QSeries.monomial(delta, exponent, old.truncation)
    quantum = {k: new if v is old else v for k, v in F.quantum.items()}
    return FrobeniusPotential(F.coords, F.degrees, F.classical, quantum, F.symmetries)


def test_orbit_scan_counts(scanned):
    """One quadruple per orbit: e6 at T = 60 scans 50 quadruples (441 with
    every a < c, b < d scanned) and reads 92 distinct contractions (357); d4
    at T = 125 scans 7 (100) and reads 14 (95)."""
    assert wdvv_residual(e6_build_potential(e6_build_fi(60)), 60).passed
    assert wdvv_residual(d4_build_potential(d4_analytic(125)), 125).passed
    assert [(len(e.quads), len(set(e.computed))) for e in scanned] == [(50, 92), (7, 14)]


def test_engine_work_counters(scanned):
    """The deterministic work of a scan: lowerings enumerated from the keys,
    nonzero terms, bases, quadruples, distinct contractions, contractions
    computed (two per quadruple: none is stored), pair multiply-adds per
    distinct contraction, distinct pair products, slot bytes, and the squares
    the scan met.  The transcribed e6 block fails at its 12th quadruple, and
    the scan has met only those 12 orbits, one square each, of the 231 it
    would list in full."""
    cases = [
        (e6_build_potential(e6_build_fi(60)), 60),
        (e6_build_potential(e6_build_fi(60), raw_f11_block=True), 60),
        (d4_build_potential(d4_analytic(125)), 125),
    ]
    counts = []
    for potential, truncation in cases:
        wdvv_residual(potential, truncation)
        engine = scanned[-1]
        adds = sum(
            len(engine._terms[tuple(sorted((*p1, e)))]) * len(engine._terms[tuple(sorted((*p2, f)))])
            for p1, p2 in set(engine.computed)
            for e, f, _ in engine.eta_pairs
        )
        products = sum(v is not None for i, row in enumerate(engine._pair_products) for v in row[i:])
        counts.append((
            sum(1 for _ in frobenius._derivative_terms(potential, truncation)),
            sum(map(len, engine._terms.values())),
            len(engine._packed),
            len(engine.quads),
            len(set(engine.computed)),
            len(engine.computed),
            adds,
            products,
            engine.width,
            len(engine.squares),
        ))
    assert counts == [
        (446, 446, 57, 50, 92, 100, 7218, 572, 9, 231),
        (434, 434, 57, 12, 24, 24, 188, 70, 9, 12),
        (84, 84, 13, 7, 14, 14, 182, 37, 8, 55),
    ]


def test_a_residual_at_half_the_proven_bound_reads_back_exactly():
    """t0^2 x/2 + t0 t^2/(2N) + x q, with N = 1100: the (x,x,t,t) residual is
    -N q^2, all of it through the inverse-metric weight N of (t,t).  In units
    of 1/N^2 that is N^3, N/(2(N+2)) of the proven bound (module docstring)
    2 sum_ef |w_ef| top(e) top(f) = 2 (N+2) N^2, every top being N; its 32
    bits take 5 bytes with the sign, and without its factor 2 they would
    take 4."""
    n = 1100
    F = FrobeniusPotential(
        ("t0", "x", "t"),
        (Fraction(1), Fraction(1), Fraction(0)),
        {(2, 1, 0): Fraction(1, 2), (1, 0, 2): Fraction(1, 2 * n)},
        {(0, 1, 0): QSeries([1], 1, 4)},
    )
    engine = _WdvvEngine(F, 4)
    bound = 2 * (n + 2) * n**2
    assert (engine.denominator, bound.bit_length(), engine.width) == (n**2, 32, 5)
    assert 2 * n**3 > 0.99 * bound
    assert engine.residual_failure(1, 1, 2, 2) == (2, Fraction(-n))
    failure = wdvv_residual(F, 4).first_failure
    assert (failure.indices, failure.exponent, failure.residual) == ((1, 1, 2, 2), 2, str(-n))


def test_recorded_symmetries_are_the_adjacent_block_swaps():
    d4 = d4_build_potential(d4_analytic(12))
    assert d4.symmetries == ((0, 2, 1, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 4, 3, 5))
    e6 = e6_build_potential(e6_build_fi(12))
    assert e6.symmetries == ((0, 2, 1, 3, 4, 6, 5, 7), (0, 1, 3, 2, 5, 4, 6, 7))
    assert all(frobenius._invariant(F, perm) for F in (d4, e6) for perm in F.symmetries)
    # the transcribed block breaks both swaps, so it is built with none recorded
    raw = e6_build_potential(e6_build_fi(12), raw_f11_block=True)
    assert raw.symmetries == ()
    assert [frobenius._invariant(raw, perm) for perm in e6.symmetries] == [False, False]
    with pytest.raises(ValueError):
        FrobeniusPotential(d4.coords, d4.degrees, d4.classical, d4.quantum, [(0, 1, 2, 3, 5, 4)])


def test_orbit_scan_reports_what_the_full_scan_reports(monkeypatch):
    """On potentials that keep their symmetries (a row's correlator scaled,
    a shared series bumped at every key), ones that break them (one key
    bumped) and the raw f_11 block, which records none, the report equals
    the one without symmetries."""
    rows = list(e6_module._E6_QUANTUM_ROWS)
    rows[5] = ({e: c * Fraction(4, 3) for e, c in rows[5][0].items()}, rows[5][1])
    with monkeypatch.context() as patch:
        patch.setattr(e6_module, "_E6_QUANTUM_ROWS", tuple(rows))
        scaled = e6_build_potential(e6_build_fi(12))
    coeffs = e6_build_fi(12)
    e6, d4 = e6_build_potential(coeffs), d4_build_potential(d4_analytic(12))
    cases = [
        scaled,
        _bump_shared(e6, E6_PROBE_KEY, 4, Fraction(-2, 5)),
        _bump_shared(d4, (0, 2, 2, 0, 0, 0), 4, Fraction(1, 3)),
        e6.with_mutated_quantum((0, 3, 0, 0, 0, 0, 0, 0), 4, Fraction(-2, 5)),
        d4.with_mutated_quantum((0, 0, 0, 2, 2, 0), 6, Fraction(1, 3)),
        e6_build_potential(coeffs, raw_f11_block=True),
    ]
    kept = [all(frobenius._invariant(F, perm) for perm in F.symmetries) for F in cases]
    assert kept == [True] * 3 + [False] * 2 + [True]
    for F in cases:
        report = wdvv_residual(F, 10)
        assert not report.passed
        assert report == wdvv_residual(_without_symmetries(F), 10)


def test_a_symmetry_that_fails_verification_is_never_used(scanned):
    """d4 bumped at t3^2 t4^2 only: the swaps t1<->t2 and t3<->t4 still
    hold, t2<->t3 does not.  Trusting all three would report (1, 1, 5, 5)
    rather than the first failure, (1, 1, 3, 3)."""
    F = d4_build_potential(d4_analytic(12)).with_mutated_quantum((0, 0, 0, 2, 2, 0), 6, Fraction(1, 3))
    assert [frobenius._invariant(F, perm) for perm in F.symmetries] == [True, False, True]
    report = wdvv_residual(F, 10)
    assert not report.passed and report == wdvv_residual(_without_symmetries(F), 10)
    quads = scanned[0].quads  # the scan stops at the failure
    assert quads == list(frobenius._orbit_representatives(6, F.symmetries[0::2], set()))[: len(quads)]
    assert report.first_failure.indices == (1, 1, 3, 3)
    engine = _WdvvEngine(F, 10)
    trusted = frobenius._orbit_representatives(6, F.symmetries, set())
    assert next(quad for quad in trusted if engine.residual_failure(*quad)) == (1, 1, 5, 5)


def test_mutation_helper_changes_one_coefficient():
    F = _projective_plane()
    bumped = F.with_mutated_quantum((0, 5, 0), 2, Fraction(1, 720))
    assert bumped.quantum[(0, 5, 0)].coefficient(2) == F.quantum[(0, 5, 0)].coefficient(2) + Fraction(1, 720)
    assert bumped.quantum[(0, 8, 0)] == F.quantum[(0, 8, 0)]
    assert F.quantum[(0, 5, 0)].coefficient(2) == Fraction(1, 120)


# -- the two orbit tables --------------------------------------------------------------

# sha256 of `_potential_text`, recorded when every row still carried its
# prefactor by hand: (case, truncation, digest, classical keys, quantum keys,
# distinct quantum series)
PINNED_POTENTIALS = [
    ("d4", 12, "b9360ef7ba443a693b7bc6bc845a256dc133f04ca6111109f8f1a00736ee0435", 5, 11, 3),
    ("d4", 125, "999a8913c6db2bb866736d789a89acdba3efaca20510636eb6d309bb1df751fe", 5, 11, 3),
    ("e6", 12, "55016a0060f3e4e916a35db777b9413867185aec4e5fec539ac1a38050a6bb3f", 4, 41, 14),
    ("e6", 60, "15f60ede1b5801639cab210dcc42f0c8db779d2a7622f1d5cbe76fd0add21b94", 4, 41, 14),
    ("e6-raw-f11", 12, "252bde500e6face22f7d62ac3e071e2e967ae9bd8295f913f713798173696097", 4, 40, 15),
]


def _potential_text(F: FrobeniusPotential) -> tuple[str, int]:
    """Every field of F in its own order: coordinates, degrees, each classical
    key with its Fraction, each quantum key with its series' fields and the
    index of the first key sharing that series object, and the symmetries;
    with the number of distinct series."""
    shared: dict[int, int] = {}
    quantum = [(key, s._fields(), shared.setdefault(id(s), len(shared))) for key, s in F.quantum.items()]
    return repr((F.coords, F.degrees, list(F.classical.items()), quantum, F.symmetries)), len(shared)


@pytest.mark.parametrize("case, order, digest, n_classical, n_quantum, n_series", PINNED_POTENTIALS)
def test_both_potentials_are_pinned_field_by_field(case, order, digest, n_classical, n_quantum, n_series):
    if case == "d4":
        F = d4_build_potential(d4_analytic(order))
    else:
        F = e6_build_potential(e6_build_fi(order), raw_f11_block=case == "e6-raw-f11")
    text, distinct = _potential_text(F)
    assert (len(F.classical), len(F.quantum), distinct) == (n_classical, n_quantum, n_series)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- constructor validation ----------------------------------------------------------


def test_potential_rejects_malformed_input():
    coords = ("t0", "x", "t")
    degrees = (Fraction(1), Fraction(1, 2), Fraction(0))
    good_classical = {(2, 0, 1): Fraction(1, 2)}
    with pytest.raises(ValueError):
        FrobeniusPotential(coords, degrees[:2], good_classical, {})
    with pytest.raises(ValueError):
        FrobeniusPotential(coords, degrees, {(2, 0): Fraction(1)}, {})
    with pytest.raises(ValueError):
        FrobeniusPotential(coords, degrees, {(2, 0, -1): Fraction(1)}, {})
    with pytest.raises(ValueError):
        FrobeniusPotential(coords, degrees, {(2, 0, 1): 1}, {})
    with pytest.raises(ValueError):
        FrobeniusPotential(coords, degrees, {}, {(1, 1, 0): QSeries([1], 1, 4)})
    with pytest.raises(ValueError):
        FrobeniusPotential(coords, degrees, {}, {(0, 1, 1): QSeries([1], 1, 4)})
    with pytest.raises(ValueError):
        FrobeniusPotential(coords, degrees, {}, {(0, 1, 0): Fraction(1)})
    # with one coordinate t0 and the log coordinate t would coincide
    with pytest.raises(ValueError):
        FrobeniusPotential(("t0",), (Fraction(1),), {(3,): Fraction(1, 6)}, {})
    with pytest.raises(ValueError):
        FrobeniusPotential((), (), {}, {})


def test_truncation_is_the_weakest_quantum_link():
    F = FrobeniusPotential(
        ("t0", "x", "t"),
        (Fraction(1), Fraction(1, 2), Fraction(0)),
        {},
        {(0, 1, 0): QSeries([1], 1, 9), (0, 2, 0): QSeries([1], 1, 7)},
    )
    assert F.truncation == 7
