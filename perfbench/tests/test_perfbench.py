"""Tests of the benchmark itself: oracles, checkers, tracer, traced runs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import random
import sys
from fractions import Fraction

import pytest

import oracles
import run
import tracer as tracer_mod

SMALL = {
    "verify-e6": run.Request("verify", ("verify", "e6", "--order", "12"), 12),
    "typo-e6": run.Request(
        "verify-typo", ("verify", "e6", "--order", "12", "--strict-typo-mode"), 12),
    "table": run.Request("gw-table", ("gw-table", "--kmax", "12"), 12),
    "d4": run.Request("verify", ("verify", "d4", "--order", "16"), 16),
    "halphen": run.Request("verify", ("verify", "halphen", "--order", "16"), 16),
    "identities": run.Request("verify", ("verify", "identities", "--order", "12"), 12),
    "delta": run.Request("expand-delta", ("expand", "eta(1)^24", "--order", "40"), 40),
}


@pytest.fixture(scope="module")
def outputs():
    """Seed-program stdout and exit status for every small request."""
    found = {}
    for name, request in SMALL.items():
        out, err, status, *_ = run.spawn(
            [sys.executable, "-m", "gwseries.cli", *request.argv], timeout=120)
        found[name] = (out.decode(), status)
    return found


# -- oracles against the program --------------------------------------------------------


def test_partitions_and_tau_known_values():
    assert oracles.partitions(12) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56]
    tau = oracles.ramanujan_tau(13)
    assert tau[:5] == [1, -24, 252, -1472, 4830]
    assert tau[11] == -370944
    assert tau[5] == tau[1] * tau[2]  # tau(6) = tau(2) tau(3)


def test_gw_table_oracle_matches_program():
    from gwseries.e6 import e6_gw_table

    table, report = e6_gw_table(15)
    assert report.passed
    assert [int(c) for _, c in table] == oracles.gw_table_counts(15)


def test_tau_oracle_matches_program():
    from gwseries.modular import delta_series

    delta = delta_series(80)
    assert [int(delta.coefficient(n)) for n in range(1, 80)] == oracles.ramanujan_tau(80)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checkers_accept_seed_output(outputs, name):
    verdict = run.check(SMALL[name], *outputs[name])
    assert verdict.ok, verdict.reason


def test_parse_series_round_trip():
    coeffs, truncation = oracles.parse_series("-1/24 + 3q^2 - q^-1 + O(q^5)")
    assert truncation == 5
    assert coeffs == {0: Fraction(-1, 24), 2: Fraction(3), -1: Fraction(-1)}
    for bad in ("q + 2q", "q + q^7 + O(q^5)", "q ++ O(q^5)", "q + O(q^x)"):
        with pytest.raises(ValueError):
            oracles.parse_series(bad)


# -- corrupted outputs count as errors ------------------------------------------------


def test_changed_table_entry_is_an_error(outputs):
    text, status = outputs["table"]
    assert "c_4 = 2\n" in text
    verdict = run.check(SMALL["table"], text.replace("c_4 = 2\n", "c_4 = 3\n"), status)
    assert not verdict.ok and "c_4" in verdict.reason


def test_missing_table_row_is_an_error(outputs):
    text, status = outputs["table"]
    verdict = run.check(SMALL["table"], text.replace("c_12 = ", "c_13 = "), status)
    assert not verdict.ok


def test_wdvv_flipped_to_pass_is_an_error(outputs):
    text, status = outputs["typo-e6"]
    assert status != 0 and "FAIL  wdvv" in text
    flipped = "\n".join(
        line.replace("FAIL  wdvv", "pass  wdvv") for line in text.splitlines())
    assert not run.check(SMALL["typo-e6"], flipped, status).ok
    assert not run.check(SMALL["typo-e6"], flipped, 0).ok


def test_flipped_report_or_status_in_a_passing_run_is_an_error(outputs):
    text, status = outputs["verify-e6"]
    flipped = text.replace("pass  e6-j-relation", "FAIL  e6-j-relation", 1)
    assert flipped != text
    assert not run.check(SMALL["verify-e6"], flipped, status).ok
    assert not run.check(SMALL["verify-e6"], text, 11).ok
    assert not run.check(SMALL["verify-e6"], "", 0).ok


def test_changed_delta_coefficient_is_an_error(outputs):
    text, status = outputs["delta"]
    assert " + 252q^3 " in text
    verdict = run.check(SMALL["delta"], text.replace(" + 252q^3 ", " + 253q^3 "), status)
    assert not verdict.ok and "q^3" in verdict.reason
    assert not run.check(SMALL["delta"], text.replace("O(q^40)", "O(q^41)"), status).ok


def test_corrupted_expected_value_fails_the_request(monkeypatch):
    real = oracles.gw_table_counts

    def corrupted(kmax):
        counts = real(kmax)
        counts[5] += 1
        return counts

    monkeypatch.setattr(oracles, "gw_table_counts", corrupted)
    clock = run.Clock()
    outcomes = run.run_pass([SMALL["table"]], clock)
    assert [o.verdict.ok for o in outcomes] == [False]
    assert "c_5" in outcomes[0].verdict.reason


# -- workloads and seeds ---------------------------------------------------------------


def test_draw_pair_is_seeded_and_mirrored():
    templates = run.WORKLOADS["modular-deep"]
    a = run.draw_pair(templates, random.Random("w/1"))
    b = run.draw_pair(templates, random.Random("w/1"))
    assert a == b
    first, second = a
    for t, x, y in zip(templates, first, second):
        assert t.lo <= x.n <= t.hi and x.n + y.n == t.lo + t.hi
        assert str(x.n) in x.argv
    draws = {run.draw_pair(templates, random.Random(f"w/{s}"))[0][0].n for s in range(20)}
    assert len(draws) > 1


# -- untraced runs ---------------------------------------------------------------------


def test_gauge_runs_beside_us_and_is_reaped():
    import os
    import time

    before = os.sched_getaffinity(0)
    with run.Gauge() as gauge:
        assert len(os.sched_getaffinity(0)) == 1
        ticks, cpu_ns = gauge.read()
        time.sleep(0.3)
        later = gauge.read()
        assert later[0] > ticks and later[1] > cpu_ns
        pid = gauge.pid
    assert os.sched_getaffinity(0) == before
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_gauged_step_reports_quiet_cpu_times():
    clock = run.Clock()
    with run.Gauge() as gauge:
        step = run.gauged_step(gauge, SMALL["identities"], clock)
    assert step.outcome.verdict.ok
    assert len(step.setup_s) == run.SETUP_PER_REQUEST
    assert step.speed > 0 and 0 < step.run_s < step.outcome.wall_s * step.speed
    assert all(0 < t < step.run_s for t in step.setup_s)


def _step(request, run_s, ok=True, terms=10):
    verdict = oracles.Verdict(ok, "", terms)
    outcome = run.Outcome(run_s, run_s, 20.0, verdict)
    return run.Step(request, outcome, [0.1, 0.3], run_s, run_s / 2, 1.0)


def test_end_to_end_takes_request_medians_and_the_pair_mean():
    a, b, c = (run.Request("verify", ("x", str(n)), n) for n in (1, 2, 3))
    pair = ([a, c], [b, c])
    steps = [_step(a, 1.0), _step(b, 3.0), _step(c, 2.0), _step(a, 9.0), _step(a, 2.0)]
    out = run.end_to_end(pair, steps)
    assert out["run_s"][0] == ((2.0 + 2.0) + (3.0 + 2.0)) / 2
    assert out["cpu_s"][0] == out["run_s"][0] / 2
    assert out["setup_s"][0] == 0.2
    assert out["certified_terms"][0] == 20
    steps.append(_step(c, 2.0, ok=False))
    assert run.end_to_end(pair, steps)["certified_terms"][0] == 10


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- the tracer -------------------------------------------------------------------------


def _snapshot():
    import gwseries

    state = {}
    for name, module in list(sys.modules.items()):
        if name == "gwseries" or name.startswith("gwseries."):
            state[name] = dict(vars(module))
            for value in vars(module).values():
                if inspect.isclass(value) and value.__module__.startswith("gwseries"):
                    state[value.__qualname__ + "@" + value.__module__] = dict(vars(value))
    return state


def test_tracer_patches_by_identity_and_restores_everything():
    import gwseries.cli  # noqa: F401  (loads every layer module)
    import gwseries.d4
    import gwseries.e6
    import gwseries.modular
    from gwseries.qseries import QSeries

    before = _snapshot()
    original_mul = vars(QSeries)["__mul__"]
    t = tracer_mod.Tracer().install()
    try:
        assert gwseries.d4.eta_expand is gwseries.modular.eta_expand
        assert gwseries.e6.eta_expand is gwseries.modular.eta_expand
        assert gwseries.modular.eta_expand.__wrapped__ is before["gwseries.modular"]["eta_expand"]
        assert vars(QSeries)["__mul__"] is not original_mul
        gwseries.d4.d4_eta_forms(12)
    finally:
        t.restore()
    after = _snapshot()
    assert before.keys() == after.keys()
    for owner, attrs in before.items():
        assert attrs.keys() == after[owner].keys(), owner
        for name, value in attrs.items():
            assert after[owner][name] is value, f"{owner}.{name} not restored"
    stats = t.summary()["functions"]
    assert stats["d4.d4_eta_forms"]["calls"] == 1
    assert stats["modular.eta_expand"]["calls"] == 3  # reached through d4's binding
    assert stats["modular.eta_expand"]["distinct"] == 3
    assert stats["qseries.QSeries.__mul__"]["calls"] > 0
    assert t.coeff_bits_max > 0


def test_missing_layer_and_absent_function_do_not_crash():
    t = tracer_mod.Tracer(layers=("qseries", "no_such_layer")).install()
    t.restore()
    assert t.missing_layers == ["no_such_layer"]
    merged = run.merge_traces([t.summary()])
    values, absent = run.layer_metrics([merged], [1.0], [1.5])
    assert "e6.e6_schwarzian_solve" in absent
    assert values["e6.e6_schwarzian_solve.steps"] == 0
    assert values["trace.overhead_s"] == pytest.approx(0.5)
    assert set(values) == set(run.layer_metric_units())


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: next(ticks))
    t = tracer_mod.Tracer()
    inner = t._wrap("x.inner", lambda: 1)
    outer = t._wrap("x.outer", lambda: inner())
    assert outer() == 1
    assert t.stats["x.outer"].total_s == 10.0
    assert t.stats["x.inner"].self_s == 2.0
    assert t.stats["x.outer"].self_s == 8.0


def test_traced_runs_repeat_their_counters():
    clock = run.Clock()
    requests = [SMALL[k] for k in ("verify-e6", "typo-e6", "table", "d4", "identities", "delta")]
    runs = []
    for _ in range(2):
        outcomes = run.run_pass(requests, clock, traced=True)
        assert all(o.verdict.ok for o in outcomes), [o.verdict.reason for o in outcomes]
        runs.append(run.merge_traces([o.trace for o in outcomes]))
    assert run.counters_of(runs[0]) == run.counters_of(runs[1])
    first = runs[0]["functions"]
    assert first["e6.e6_schwarzian_solve"]["steps"] > 0
    assert first["qseries.QSeries.__mul__"]["coeff_mults"] > 0
    assert first["reporting.series_match"]["terms"] > 0
    assert runs[0]["counter_errors"] == 0
