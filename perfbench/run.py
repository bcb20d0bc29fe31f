"""The gwseries benchmark: seeded CLI workloads with checked verdicts.

    python3 perfbench/run.py --workload e6-verify --seed 1 --seconds 58 --trace 0

One client sends one request at a time (a closed loop); every request is a
fresh `python -m gwseries.cli ...` process, timed from spawn to exit, with
its CPU time and peak RSS read from `wait4`.  Every output is checked against
an answer the benchmark computes itself (oracles.py); a wrong output counts
as a failed request.

With `--trace 0` the run sends the distinct requests of one antithetic pair
of passes round-robin until the time is up, on one CPU beside a speed gauge,
and reports the end-to-end metrics in seconds of a quiet CPU; with
`--trace 1` it alternates untraced passes with passes whose requests run under the tracer
(traced_cli.py) and reports per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object; the lines before it give the same
numbers for people, with the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import mmap
import os
import platform
import random
import selectors
import signal
import statistics
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
from traced_cli import MARKER
from tracer import BUILDERS, LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# A run never lasts longer than this, so it exits well inside 180 s even when
# a request hangs; a request still running at the limit is killed and failed.
HARD_LIMIT_S = 165.0
SETUP_PER_REQUEST = 1  # fresh-interpreter imports timed before each untraced request


# -- workloads -----------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Template:
    kind: str  # verify | verify-typo | gw-table | expand-delta
    argv: tuple[str, ...]  # "{n}" marks the drawn size
    lo: int
    hi: int


WORKLOADS: dict[str, tuple[Template, ...]] = {
    # Many small Schwarzian solves per run plus the failing WDVV path.
    "e6-verify": (
        Template("verify", ("verify", "e6", "--order", "{n}"), 56, 64),
        Template("verify-typo", ("verify", "e6", "--order", "{n}", "--strict-typo-mode"), 56, 64),
    ),
    # Long series products, eta powers, lattice theta, Q(zeta_72); little solving.
    # Each request costs 1-2 s, so a run repeats every one of them several times.
    "modular-deep": (
        Template("verify", ("verify", "d4", "--order", "{n}"), 120, 130),
        Template("verify", ("verify", "halphen", "--order", "{n}"), 170, 180),
        Template("verify", ("verify", "identities", "--order", "{n}"), 200, 200),
        Template("expand-delta", ("expand", "eta(1)^24", "--order", "{n}"), 400, 440),
    ),
}


@dataclasses.dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    n: int


def make_request(t: Template, n: int) -> Request:
    return Request(t.kind, tuple(a.replace("{n}", str(n)) for a in t.argv), n)


def draw_pair(templates, rng: random.Random) -> tuple[list[Request], list[Request]]:
    """Two passes over the request list: sizes drawn from the seed, then each
    size mirrored in its range (lo + hi - n).

    The mirrored pass is an antithetic sample: the pair's median work is close
    to that of the mid-range sizes whatever the seed drew, so runs on
    different seeds can be compared while each still sees other inputs.
    """
    drawn = [rng.randint(t.lo, t.hi) for t in templates]
    first = [make_request(t, n) for t, n in zip(templates, drawn)]
    second = [make_request(t, t.lo + t.hi - n) for t, n in zip(templates, drawn)]
    return first, second


def check(request: Request, stdout: str, status: int) -> oracles.Verdict:
    if request.kind in ("verify", "verify-typo"):
        return oracles.check_verify(stdout, status, request.kind == "verify-typo")
    if request.kind == "gw-table":
        return oracles.check_gw_table(stdout, status, request.n)
    if request.kind == "expand-delta":
        return oracles.check_delta(stdout, status, request.n)
    raise ValueError(f"unknown request kind {request.kind}")


# -- child processes ---------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    verdict: oracles.Verdict
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("GWSERIES_ORDER", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], timeout: float):
    """Run argv to completion.  Returns stdout, stderr, exit status, wall
    seconds, the child's rusage, and whether it was killed at the timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    timed_out = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
        # wait4 rather than Popen.wait: it also returns the child's rusage
        _, wait_status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return (b"".join(chunks[out_fd]), b"".join(chunks[err_fd]), proc.returncode,
            wall, usage, timed_out)


def run_request(request: Request, timeout: float, traced: bool = False) -> Outcome:
    head = [sys.executable, str(BENCH_DIR / "traced_cli.py")] if traced else [
        sys.executable, "-m", "gwseries.cli"]
    out, err, status, wall, usage, timed_out = spawn(head + list(request.argv), timeout)
    trace = None
    if traced:
        lines = err.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(MARKER):
            trace = json.loads(lines[-1][len(MARKER):])
    if timed_out:
        verdict = oracles.Verdict(False, f"timed out after {timeout:.0f} s")
    elif traced and trace is None:
        verdict = oracles.Verdict(False, "traced request wrote no trace")
    else:
        try:
            verdict = check(request, out.decode(), status)
        except UnicodeDecodeError:
            verdict = oracles.Verdict(False, "stdout is not UTF-8")
    if not verdict.ok:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        print(f"FAILED {' '.join(request.argv)}: {verdict.reason} {tail}", file=sys.stderr)
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, verdict, trace)


class Clock:
    """Time since the run started, and what is left of its hard limit."""

    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def request_timeout(self) -> float:
        return max(HARD_LIMIT_S - self.elapsed(), 1.0)


def run_pass(requests: list[Request], clock: Clock, traced: bool = False) -> list[Outcome]:
    return [run_request(r, clock.request_timeout(), traced) for r in requests]


def measure_setup(clock: Clock) -> float:
    """Wall seconds for a fresh interpreter to import gwseries.cli."""
    out, err, status, wall, _, timed_out = spawn(
        [sys.executable, "-c", "import gwseries.cli"], min(clock.request_timeout(), 60.0))
    if status != 0 or timed_out:
        raise SetupError(f"import gwseries.cli failed: {err.decode(errors='replace').strip()}")
    return wall


class SetupError(RuntimeError):
    pass


# -- the speed gauge -------------------------------------------------------------------------
#
# On a shared host the CPU behind this machine is often time-sliced with other
# tenants, which stretches wall and CPU times alike by up to 2x for seconds or
# minutes at a time.  So the untraced run pins itself, and every request it
# spawns, to one CPU, and keeps a gauge process busy on that CPU at a lower
# priority.  The gauge repeats a fixed stdlib-only tick and publishes its tick
# count and its own CPU time.  Over any interval, ticks * TICK_S / gauge CPU
# seconds is how many seconds of a quiet CPU one second of this CPU was worth
# (1 when nothing else runs on the host); times are scaled by that factor.  The
# gauge never imports gwseries, so no change to the program can move it.

TICK_S = 165e-6  # one tick's fastest time alone on a CPU of the 2-vCPU machine the benchmark was written on
GAUGE_NICE = 5  # the gauge gets about a quarter of the CPU; requests, the rest


def gauge_tick() -> None:
    for i in range(1, 50):
        Fraction(i, 7) * Fraction(3, i + 1)


class Gauge:
    """The gauge process, forked on entry and killed on exit.  While it runs,
    this process and its children are pinned to the gauge's CPU."""

    def __enter__(self) -> "Gauge":
        self.affinity = os.sched_getaffinity(0)
        cpu = min(self.affinity)
        self.shared = mmap.mmap(-1, 16)
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.sched_setaffinity(0, {cpu})
                os.nice(GAUGE_NICE)
                ticks = 0
                while os.getppid() == parent:  # an orphaned gauge stops by itself
                    for _ in range(64):
                        gauge_tick()
                        ticks += 1
                        struct.pack_into("qq", self.shared, 0, ticks, time.process_time_ns())
            finally:
                os._exit(0)
        os.sched_setaffinity(0, {cpu})
        return self

    def __exit__(self, *exc) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.sched_setaffinity(0, self.affinity)

    def read(self) -> tuple[int, int]:
        """(ticks, gauge CPU nanoseconds), read until two reads agree so that
        a read never sees half an update."""
        while True:
            first = struct.unpack_from("qq", self.shared)
            if first == struct.unpack_from("qq", self.shared):
                return first


# -- metrics --------------------------------------------------------------------------------


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(o.wall_s for o in outcomes)


END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "certified_terms": "count",
    "certified_terms_per_s": "1/s",
}


@dataclasses.dataclass
class Step:
    """One request of an untraced run and the imports timed just before it.
    Times are in seconds of a quiet CPU: each interval's wall time less the
    gauge's CPU time in it, scaled by the step's speed (see Gauge)."""
    request: Request
    outcome: Outcome
    setup_s: list[float]
    run_s: float
    cpu_s: float
    speed: float


def end_to_end(pair: tuple[list[Request], list[Request]],
               steps: list[Step]) -> dict[str, tuple[float, str]]:
    """Each metric as (value, how it was taken).  A request's figure is the
    median over its repeats; a pass sums its requests; the metric is the mean
    over the antithetic pair's two passes."""
    def per_request(request, value):
        return statistics.median(value(s) for s in steps if s.request == request)

    def terms(request):  # a failed repeat makes it 0
        return min(s.outcome.verdict.certified_terms if s.outcome.verdict.ok else 0
                   for s in steps if s.request == request)

    passes = [{
        "run_s": sum(per_request(r, lambda s: s.run_s) for r in requests),
        "cpu_s": sum(per_request(r, lambda s: s.cpu_s) for r in requests),
        "peak_rss_mb": max(per_request(r, lambda s: s.outcome.rss_mb) for r in requests),
        "certified_terms": sum(terms(r) for r in requests),
    } for requests in pair]
    setup = [t for s in steps for t in s.setup_s]
    repeats = sorted({sum(s.request == r for s in steps) for requests in pair for r in requests})
    how = f"median of {repeats[0]}-{repeats[-1]} per request, mean of the pair"
    out = {"setup_s": (statistics.median(setup), f"median of {len(setup)}")}
    for name in ("run_s", "cpu_s", "peak_rss_mb", "certified_terms"):
        out[name] = (statistics.fmean(p[name] for p in passes), how)
    out["certified_terms_per_s"] = (out["certified_terms"][0] / out["run_s"][0], how)
    return out


def gauged_step(gauge: Gauge, request: Request, clock: Clock) -> Step:
    """Time SETUP_PER_REQUEST imports, then the request, against the gauge."""
    marks = [gauge.read()]
    walls = []
    for _ in range(SETUP_PER_REQUEST):
        walls.append(measure_setup(clock))
        marks.append(gauge.read())
    outcome = run_request(request, clock.request_timeout())
    marks.append(gauge.read())
    if marks[-1][0] == marks[-2][0]:
        raise SetupError("the speed gauge made no progress during a request")

    def speed(a, b):
        return (b[0] - a[0]) * TICK_S * 1e9 / (b[1] - a[1])

    def quiet(wall, a, b):
        """Wall seconds from mark a to b, less the gauge's CPU time in them,
        at the speed the gauge saw in between (the whole step's if none)."""
        factor = speed(a, b) if b[0] > a[0] else speed(marks[0], marks[-1])
        return (wall - (b[1] - a[1]) / 1e9) * factor

    setup = [quiet(w, a, b) for w, a, b in zip(walls, marks, marks[1:])]
    run_speed = speed(marks[-2], marks[-1])
    return Step(request, outcome, setup, quiet(outcome.wall_s, *marks[-2:]),
                outcome.cpu_s * run_speed, run_speed)


# Functions whose calls and self time are per-layer metrics.  Names are
# "<module>.<qualname>", so a method reads qseries.QSeries.__mul__.
LAYER_FUNCTIONS_TIMED = (
    "e6.e6_schwarzian_solve",
    "qseries.QSeries.__mul__", "qseries.QSeries.inv", "qseries.QSeries.log_unit",
    "qseries.QSeries.exp_positive", "qseries.QSeries.pow_rational", "qseries.QSeries.nth_root",
    "qseries.convolve",
    "exact_arith.CyclotomicNumber.__mul__", "exact_arith.CyclotomicNumber.__add__",
    "exact_arith.CyclotomicNumber.inverse",
    "modular.sigma", "modular.f_series", "modular.lattice_theta", "modular.J_series",
    "modular.theta_logderiv",
    "frobenius.wdvv_residual", "frobenius.euler_residual", "frobenius.metric_from_potential",
    "reporting.series_match", "reporting.puiseux_match",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in BENCHMARK.json order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for fn in LAYER_FUNCTIONS_TIMED:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units["e6.e6_schwarzian_solve.total_s"] = "s"
    units["e6.e6_schwarzian_solve.steps"] = "count"
    for fn in BUILDERS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.unique_ratio"] = "ratio"
    units["qseries.QSeries.__mul__.coeff_mults"] = "count"
    units["qseries.QSeries.__mul__.max_len"] = "count"
    units["qseries.coeff_bits_max"] = "bits"
    units["modular.sigma.hit_ratio"] = "ratio"
    units["d4.d4_recursion_solve.self_s"] = "s"
    units["d4.d4_build_potential.calls"] = "count"
    units["frobenius.wdvv_residual.order"] = "count"
    units["reporting.series_match.terms"] = "count"
    units["reporting.puiseux_match.terms"] = "count"
    units["cli.run.self_s"] = "s"
    units["trace.untraced_run_s"] = "s"
    units["trace.traced_run_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def merge_traces(traces: list[dict]) -> dict:
    """Sum one pass's per-request summaries; peaks take the maximum."""
    functions: dict[str, dict] = {}
    for t in traces:
        for key, entry in t["functions"].items():
            into = functions.setdefault(key, {})
            for stat, value in entry.items():
                if stat == "max_len":
                    into[stat] = max(into.get(stat, 0), value)
                else:
                    into[stat] = into.get(stat, 0) + value
    return {
        "functions": functions,
        "coeff_bits_max": max(t["coeff_bits_max"] for t in traces),
        "missing_layers": sorted({m for t in traces for m in t["missing_layers"]}),
        "counter_errors": sum(t["counter_errors"] for t in traces),
    }


def counters_of(merged: dict) -> dict:
    """The computed (deterministic) part of a merged trace: no times."""
    return {
        "functions": {k: {s: v for s, v in e.items() if not s.endswith("_s")}
                      for k, e in merged["functions"].items()},
        "coeff_bits_max": merged["coeff_bits_max"],
    }


def layer_metrics(merged_passes: list[dict], untraced: list[float], traced: list[float]):
    """Per-layer values: counters from the first traced pass, times as medians
    over traced passes.  Returns (values by name, names of absent functions)."""
    first = merged_passes[0]["functions"]

    def timed(key: str, stat: str) -> float:
        return statistics.median(m["functions"].get(key, {}).get(stat, 0.0) for m in merged_passes)

    units = layer_metric_units()
    values: dict[str, float] = {}
    absent = set()
    for name in units:
        if name.startswith("trace."):
            continue
        key, _, stat = name.rpartition(".")
        if name == "qseries.coeff_bits_max":
            values[name] = merged_passes[0]["coeff_bits_max"]
            continue
        if key in LAYERS:
            members = [k for k in first if k.startswith(key + ".")]
            if stat == "calls":
                values[name] = sum(first[k]["calls"] for k in members)
            else:
                values[name] = statistics.median(
                    sum(m["functions"].get(k, {}).get("self_s", 0.0) for k in members)
                    for m in merged_passes)
            continue
        entry = first.get(key)
        if entry is None:
            absent.add(key)
            values[name] = 0
            continue
        calls = entry["calls"]
        if stat in ("self_s", "total_s"):
            values[name] = timed(key, stat)
        elif stat == "unique_ratio":
            values[name] = entry["distinct"] / calls if calls else 1.0
        elif stat == "hit_ratio":
            values[name] = entry.get("hits", 0) / calls if calls else 0.0
        else:
            values[name] = entry.get(stat, 0)
    values["trace.untraced_run_s"] = statistics.median(untraced)
    values["trace.traced_run_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.traced_run_s"] - values["trace.untraced_run_s"]
    return values, sorted(absent)


# -- run metadata ----------------------------------------------------------------------------


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gwseries").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- the run ----------------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run.  Returns the result object and the lines for people."""
    templates = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    clock = Clock()
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            **metadata(), "loadavg_before": loadavg()}
    measure_setup(clock)  # first import writes bytecode caches; not a user's cost per run
    outcomes: list[Outcome] = []
    lines = []
    if not trace:
        # Round-robin over the pair's distinct requests, so that each one's
        # repeats are spread over the whole run, until the next would overrun.
        pair = draw_pair(templates, rng)
        order = list(dict.fromkeys(r for requests in pair for r in requests))
        steps: list[Step] = []
        extra = 0.0  # the last step's time outside its request
        with Gauge() as gauge:
            for i in itertools.count():
                request = order[i % len(order)]
                done = [s.outcome.wall_s for s in steps if s.request == request]
                if done and clock.elapsed() + min(done) + extra > seconds:
                    break
                start = clock.elapsed()
                steps.append(gauged_step(gauge, request, clock))
                outcomes.append(steps[-1].outcome)
                extra = clock.elapsed() - start - steps[-1].outcome.wall_s
        metrics = end_to_end(pair, steps)
        meta["steps"] = [{"argv": " ".join(s.request.argv), "wall_s": round(s.outcome.wall_s, 4),
                          "run_s": round(s.run_s, 4), "speed": round(s.speed, 4)} for s in steps]
        for name, (value, how) in metrics.items():
            lines.append(f"{name:24s} {value:14.6g} {END_TO_END_UNITS[name]:6s} {how}")
        values = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, (v, _) in metrics.items()}
    else:
        requests, _ = draw_pair(templates, rng)
        meta["requests"] = [" ".join(r.argv) for r in requests]
        untraced, traced, merged, round_costs = [], [], [], []

        def timed_pass(requests, traced=False):
            result = run_pass(requests, clock, traced)
            outcomes.extend(result)
            return result

        while True:
            round_start = clock.elapsed()
            untraced.append(pass_wall(timed_pass(requests)))
            result = timed_pass(requests, traced=True)
            traced.append(pass_wall(result))
            if all(o.trace for o in result):
                merged.append(merge_traces([o.trace for o in result]))
            round_costs.append(clock.elapsed() - round_start)
            if not merged or clock.elapsed() + statistics.mean(round_costs) > seconds:
                break
        if not merged:
            raise SetupError("no traced pass produced a complete trace")
        repeat = all(counters_of(m) == counters_of(merged[0]) for m in merged)
        values_raw, absent = layer_metrics(merged, untraced, traced)
        units = layer_metric_units()
        for name, value in values_raw.items():
            lines.append(f"{name:44s} {value:14.6g} {units[name]}")
        lines.append("waiting time: none; requests run one at a time and the program is "
                     "single-threaded with no I/O, so no layer waits")
        if absent:
            lines.append(f"absent (reported as 0): {', '.join(absent)}")
        meta.update(counters_repeat=repeat, traced_passes=len(merged), absent=absent,
                    missing_layers=merged[0]["missing_layers"],
                    counter_errors=merged[0]["counter_errors"])
        values = {n: {"value": v, "unit": units[n]} for n, v in values_raw.items()}
    failed = sum(1 for o in outcomes if not o.verdict.ok)
    lines.append(f"{'error_rate':24s} {failed / len(outcomes):14.6g} ratio  "
                 f"{failed} of {len(outcomes)} requests failed")
    meta.update(loadavg_after=loadavg(), elapsed_s=clock.elapsed())
    lines.insert(0, "meta " + json.dumps(meta))
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": values}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gwseries" / "cli.py").is_file():
        print(f"error: no gwseries sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
