"""The verdicts of tools/bench_pairs.py, on synthetic runs: no benchmark runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METRICS = [
    {"name": "run_s", "better": "lower", "bound": 0.24},
    {"name": "certified_terms", "better": "higher", "bound": 0.02},
]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(run_s: list[float], terms: int = 2580, failed: int = 0) -> list[dict]:
    return [{"failed": failed, "attempted": 100,
             "metrics": {"run_s": {"value": r}, "certified_terms": {"value": terms}}} for r in run_s]


def _report(capsys, base: list[dict], change: list[dict]) -> tuple[bool, dict[str, list[str]]]:
    ok = _bench_pairs().report("e6-verify", list(range(len(base))), {"base": base, "change": change}, METRICS)
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    return ok, rows


BASE = [0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.28, 0.29]


def test_a_change_within_noise_passes_and_claims_nothing(capsys):
    ok, rows = _report(capsys, _runs(BASE), _runs([x + 0.001 * (-1) ** i for i, x in enumerate(BASE)]))
    assert ok
    assert rows["run_s"][-4:] == ["no", "no", "ok", "24%"]
    assert rows["certified_terms"][-3:] == ["no", "ok", "2%"]


def test_a_clear_gain_wins_nine_of_ten_beyond_the_quartiles(capsys):
    ok, rows = _report(capsys, _runs(BASE), _runs([x * 0.6 for x in BASE[:9]] + [0.3]))
    assert ok
    assert rows["run_s"][-5:] == ["9/10", "yes", "yes", "ok", "24%"]


def test_a_metric_past_its_bound_fails(capsys):
    ok, rows = _report(capsys, _runs(BASE), _runs([x * 1.3 for x in BASE]))
    assert not ok
    assert rows["run_s"][-2:] == ["WORSE", "24%"]
    ok, rows = _report(capsys, _runs(BASE), _runs(BASE, terms=2500))  # 3% fewer terms, bound 2%
    assert not ok
    assert rows["certified_terms"][-2:] == ["WORSE", "2%"]
    assert rows["run_s"][-2:] == ["ok", "24%"]


def test_more_failed_requests_fail(capsys):
    ok, rows = _report(capsys, _runs(BASE), _runs(BASE, failed=1))
    assert not ok
    assert "FAILED:" in rows
    ok, _ = _report(capsys, _runs(BASE, failed=1), _runs(BASE, failed=1))
    assert ok
