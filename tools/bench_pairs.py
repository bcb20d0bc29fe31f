"""Alternating A/B runs of the benchmark on two git revisions.

    python3 tools/bench_pairs.py BASE CHANGE --workload e6-verify --seeds 101-110 --seconds 20

Each revision is exported with `git archive` into a fresh tree under a
temporary directory, so neither side carries compiled bytecode, and every
run sets PYTHONDONTWRITEBYTECODE=1, so none is written.  For each seed the
unedited `perfbench/run.py --trace 0` of both trees runs once, base first on
even pairs and change first on odd ones.  For each end-to-end metric of
BENCHMARK.json the tool prints both sides' median and quartiles, the ratio
of the medians, the pairs the change wins, and three verdicts:

- `9/10`: the change won at least nine in ten of the pairs
- `>iqr`: the medians differ by more than the base's quartile distance
- `bound`: `WORSE` when the change's median is worse than the base's by
  more than the metric's `bound`, read as a share of the base median

A claimed gain needs both of the first two.  The tool exits 1 when a metric
is WORSE on some workload, or when a larger share of the change's requests
failed than of the base's.  It only reads the trees.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'81-84,90' -> [81, 82, 83, 84, 90]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def export(revision: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, ...]:
    """(q1, median, q3); a single value is all three."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 else (values[0],) * 3


def summary(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def report(workload: str, seeds: list[int], results: dict[str, list[dict]], metrics: list[dict]) -> bool:
    """Print the workload's table; False when a metric is worse than its
    bound or a larger share of the change's requests failed."""
    base, change = results["base"], results["change"]
    print(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
    shares = []
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        shares.append(failed / attempted if attempted else 0.0)
        print(f"  {side}: {failed} of {attempted} requests failed")
    ok = shares[1] <= shares[0]
    if not ok:
        print("  FAILED: a larger share of the change's requests failed")
    print(f"  {'metric':24s} {'base median [q1, q3]':>30s} {'change median [q1, q3]':>30s} {'ratio':>7s} {'wins':>6s}"
          f" {'9/10':>5s} {'>iqr':>5s} {'bound':>12s}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in zip(base, change)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        xs, ys = [b for b, _ in pairs], [c for _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in pairs)
        (q1, mx, q3), my = quartiles(xs), statistics.median(ys)
        ratio = my / mx if mx else float("nan")
        worse = (my - mx if lower else mx - my) > metric["bound"] * abs(mx)
        ok = ok and not worse
        verdict = f"{'WORSE' if worse else 'ok'} {metric['bound']:.0%}"
        print(f"  {name:24s} {summary(xs):>30s} {summary(ys):>30s} {ratio:7.3f} {wins:>3d}/{len(pairs)}"
              f" {'yes' if 10 * wins >= 9 * len(pairs) else 'no':>5s} {'yes' if abs(my - mx) > q3 - q1 else 'no':>5s}"
              f" {verdict:>12s}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision measured first on even pairs")
    parser.add_argument("change", help="git revision compared against it")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/run.py; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 101-110 or 5,9,12")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of each run")
    args = parser.parse_args(argv)
    ok = True
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: export(rev, work / side) for side, rev in (("base", args.base), ("change", args.change))}
        metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
        for workload in args.workload:
            results: dict[str, list[dict]] = {"base": [], "change": []}
            for i, seed in enumerate(args.seeds):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    results[side].append(run_once(trees[side], workload, seed, args.seconds))
            ok = report(workload, args.seeds, results, metrics) and ok
    finally:
        shutil.rmtree(work)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
