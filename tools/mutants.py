"""Run named source mutants against the tests that must kill them.

    python3 tools/mutants.py                  # every mutant
    python3 tools/mutants.py --list           # names, files and test files
    python3 tools/mutants.py NAME [NAME ...]  # some of them

A mutant replaces one exact text of one file under src/ by another.  Each
runs in its own temporary copy of src/, tests/ and pyproject.toml, so the
tree itself is never edited, and the runs are sequential: one pytest
process at a time, `pytest -x -q` over the mutant's test files.  A failing
run kills the mutant, and the first failing test is printed.  Before the
mutants, the unmutated copy must pass every listed test file.

A mutant flagged equivalent changes no value the tests can see; its reason
is printed, and it may survive.  The tool exits 1 when a mutant that is not
flagged equivalent survives, when an equivalent one is killed (its flag is
wrong), or when a mutant's old text does not occur exactly once in its file
(the list is stale).  Stdlib only; it is not part of the tier-1 tests,
but tests/test_mutants.py checks there that every old text still applies.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # a mutant that hangs the tests counts as killed


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # the reason, for a mutant no test can see


MUTANTS = (
    # -- the twisted identities: exponent bookkeeping over Q(zeta_3) --------------------
    Mutant(
        "omega-squared-entry",
        "src/gwseries/e6.py",
        "_OMEGA_POWERS = ((1, 0), (0, 1), (-1, -1))",
        "_OMEGA_POWERS = ((1, 0), (0, 1), (-1, 1))",
        ("tests/test_twisted_identities.py",),
    ),
    Mutant(
        "twist-class-without-pole",
        "src/gwseries/e6.py",
        "_OMEGA_POWERS[(2 * m + k * (r - pole)) % 3]",
        "_OMEGA_POWERS[(2 * m + k * r) % 3]",
        ("tests/test_twisted_identities.py",),
    ),
    Mutant(
        "prefactor-sign-dropped",
        "src/gwseries/e6.py",
        "sign, (x, y) = _THIRD * (-1) ** m, _OMEGA_POWERS[omega_power % 3]",
        "sign, (x, y) = _THIRD, _OMEGA_POWERS[omega_power % 3]",
        ("tests/test_twisted_identities.py",),
    ),
    Mutant(
        "outside-prefactor-ignores-quotient",
        "src/gwseries/e6.py",
        "prefactor = (-_THIRD * quotient.coefficient(pole), f\"*z72^{phase}\")",
        "prefactor = (-_THIRD, f\"*z72^{phase}\")",
        ("tests/test_exact_arith.py",),
    ),
    Mutant(
        "dissect-ignores-valuation",
        "src/gwseries/qseries.py",
        "start = (r - self.valuation) % m",
        "start = r % m",
        ("tests/test_qseries_canonical.py",),
    ),
    Mutant(
        "norm-sign-flipped",
        "src/gwseries/modular.py",
        "norm = (x - y) ** 2 + x * y",
        "norm = (x - y) ** 2 - x * y",
        ("tests/test_twisted_identities.py",),
    ),
    Mutant(
        "d4-odd-part-as-even",
        "src/gwseries/d4.py",
        "a = f.dissect(2, 1)",
        "a = f.dissect(2, 0)",
        ("tests/test_d4.py",),
    ),
    Mutant(
        "lattice-cosets-swapped",
        "src/gwseries/modular.py",
        "return theta.dissect(2, 0).truncate(truncation), theta.dissect(2, 1).truncate(truncation)",
        "return theta.dissect(2, 1).truncate(truncation), theta.dissect(2, 0).truncate(truncation)",
        ("tests/test_modular.py",),
    ),
    Mutant(
        "even-part-as-odd",
        "src/gwseries/modular.py",
        "lhs = f.dissect(2, 0)",
        "lhs = f.dissect(2, 1)",
        ("tests/test_modular.py",),
    ),
    # -- the WDVV engine ------------------------------------------------------------------
    Mutant(
        "wdvv-carry-shift-lost",
        "src/gwseries/frobenius.py",
        "s, product = s - self.stride, product << 8 * self.width",
        "s, product = s - self.stride, product",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-square-keyed-by-sides",
        "src/gwseries/frobenius.py",
        "one, two = (a, c) if a < c else (c, a), (b, d) if b < d else (d, b)",
        "one, two = (a, b) if a < b else (b, a), (c, d) if c < d else (d, c)",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-invariant-always-true",
        "src/gwseries/frobenius.py",
        "    return all(i.keys() == p.keys() and all(x is p[k] or f(x) == f(p[k])",
        "    return True or all(i.keys() == p.keys() and all(x is p[k] or f(x) == f(p[k])",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-width-without-factor-2",
        "src/gwseries/frobenius.py",
        "self.width = _slot_width(2 * sum(",
        "self.width = _slot_width(sum(",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-radix-one-exponent-wide",
        "src/gwseries/frobenius.py",
        "radices = [2 * max(column) + 1 for column in zip(*keys)]",
        "radices = [max(column) + 1 for column in zip(*keys)]",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-right-carry-strict",
        "src/gwseries/frobenius.py",
        "t if c + classes[t[2]] < g else",
        "t if c + classes[t[2]] <= g else",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-scan-skips-adjacent-c",
        "src/gwseries/frobenius.py",
        "for c in span[a:] for d in span[b:]",
        "for c in span[a + 1 :] for d in span[b:]",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-last-failure-reported",
        "src/gwseries/frobenius.py",
        "exponent, _, value = min(failures)",
        "exponent, _, value = max(failures)",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-pair-product-unmasked",
        "src/gwseries/frobenius.py",
        "return product & self.masks[s]",
        "return product",
        ("tests/test_frobenius.py",),
        equivalent="masking is reduction mod 2^bits, which commutes with the contraction's sum, and the "
        "contraction masks its total by the same class",
    ),
    Mutant(
        "wdvv-equal-keys-computed",
        "src/gwseries/frobenius.py",
        "if k1 == k2 or (p1 := self.contraction(k1))",
        "if (p1 := self.contraction(k1))",
        ("tests/test_frobenius.py",),
        equivalent="equal keys give one contraction twice, so the residual is None either way; "
        "only a count of contractions computed could see it",
    ),
    Mutant(
        "wdvv-term-denominator-without-series",
        "src/gwseries/frobenius.py",
        "num, den = scalar.numerator, scalar.denominator * series.den",
        "num, den = scalar.numerator, scalar.denominator",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-term-lowers-one-slot",
        "src/gwseries/frobenius.py",
        "sum(map(units.__getitem__, slots))",
        "sum(map(units.__getitem__, slots[:1]))",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "wdvv-laurent-guard-moved",
        "src/gwseries/frobenius.py",
        "if series.valuation < 0:",
        "if series.valuation < -1:",
        ("tests/test_frobenius.py",),
    ),
    # -- the d4 first-order system, against Halphen's through the bridge ------------------
    Mutant(
        "d4-rhs-ac-coefficient",
        "src/gwseries/d4.py",
        "{(1, 0, 1): Fraction(8, 3), (1, 1, 0): -24}",
        "{(1, 0, 1): Fraction(7, 3), (1, 1, 0): -24}",
        ("tests/test_d4.py",),
    ),
    Mutant(
        "d4-bridge-coefficient",
        "src/gwseries/d4.py",
        "{(0, 1, 0): -6, (0, 0, 1): Fraction(2, 3)}",
        "{(0, 1, 0): -5, (0, 0, 1): Fraction(2, 3)}",
        ("tests/test_d4.py",),
    ),
    # -- both potentials as correlator rows: orbit_potential divides by k! ----------------
    Mutant(
        "orbit-classical-without-factorial",
        "src/gwseries/frobenius.py",
        "Fraction(1, math.prod(map(math.factorial, representative)))",
        "Fraction(1, math.prod(map(math.factorial, representative)) if part is quantum else 1)",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "orbit-quantum-without-factorial",
        "src/gwseries/frobenius.py",
        "Fraction(1, math.prod(map(math.factorial, representative)))",
        "Fraction(1, math.prod(map(math.factorial, representative)) if part is classical else 1)",
        ("tests/test_frobenius.py",),
    ),
    Mutant(
        "d4-row-correlator",
        "src/gwseries/d4.py",
        "({(0, 1, 0): 6}, (0, 4, 0, 0, 0, 0))",
        "({(0, 1, 0): 4}, (0, 4, 0, 0, 0, 0))",
        ("tests/test_d4.py",),
    ),
    # -- first-order systems as polynomial data: the evaluator and the exact Jacobian --------
    Mutant(
        "jacobian-drops-the-exponent-factor",
        "src/gwseries/qseries.py",
        "c * e[j] for e, c in f.items() if e[j]",
        "c for e, c in f.items() if e[j]",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "jacobian-read-transposed",
        "src/gwseries/qseries.py",
        "for s in jac[i * k : (i + 1) * k]]",
        "for s in jac[i::k]]",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "evaluate-reduces-the-first-exponent",
        "src/gwseries/qseries.py",
        "j = max(i for i, n in enumerate(e) if n)",
        "j = min(i for i, n in enumerate(e) if n)",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "evaluate-one-at-largest-truncation",
        "src/gwseries/qseries.py",
        "least = min(y.truncation for y in ys)",
        "least = max(y.truncation for y in ys)",
        ("tests/test_qseries.py",),
    ),
    # -- the series kernels: Miller's recurrence on the residue class, sums, the match ----
    Mutant(
        "power-scatter-start",
        "src/gwseries/qseries.py",
        "out[::g] = ys",
        "out[1::g] = ys",
        ("tests/test_qseries_kernels.py",),
    ),
    Mutant(
        "power-class-loop-bound",
        "src/gwseries/qseries.py",
        "for n in range(1, -(-rel // g)):",
        "for n in range(1, rel // g):",
        ("tests/test_qseries_kernels.py",),
    ),
    Mutant(
        "add-slice-offset",
        "src/gwseries/qseries.py",
        "map(add, out[i : i + len(ys)], ys)",
        "map(add, out[: len(ys)], ys)",
        ("tests/test_qseries_canonical.py",),
    ),
    Mutant(
        "match-fast-path-untruncated",
        "src/gwseries/reporting.py",
        "if a._fields() == b._fields():",
        "if lhs._fields() == rhs._fields():",
        ("tests/test_qseries_kernels.py",),
    ),
    Mutant(
        "match-residual-sign-flipped",
        "src/gwseries/reporting.py",
        "exponent, residual = (a - b).leading()",
        "exponent, residual = (b - a).leading()",
        ("tests/test_qseries_kernels.py",),
    ),
    Mutant(
        "genus-one-virasoro-checked-first",
        "src/gwseries/modular.py",
        'for side, lhs in (("derivative", derivative), ("virasoro", virasoro))',
        'for side, lhs in (("virasoro", virasoro), ("derivative", derivative))',
        ("tests/test_modular.py",),
    ),
    # -- exact inputs only: a float or a string is refused, never converted ---------------
    Mutant(
        "float-coefficients-coerced",
        "src/gwseries/qseries.py",
        "values = list(map(exact, coeffs))",
        "values = [c if isinstance(c, _SCALARS) else Fraction(c) for c in coeffs]",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "float-scalar-coerced",
        "src/gwseries/qseries.py",
        "c = exact(scalar)",
        "c = Fraction(scalar)",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "float-power-coerced",
        "src/gwseries/qseries.py",
        "r = exact(r)",
        "r = Fraction(r)",
        ("tests/test_qseries.py",),
    ),
    Mutant(
        "float-eta-exponent-coerced",
        "src/gwseries/modular.py",
        "Fraction(exact(r))",
        "Fraction(r)",
        ("tests/test_modular.py",),
    ),
    # -- the CLI: one output path, config straight from argparse --------------------------
    Mutant(
        "emit-status-from-last-failure",
        "src/gwseries/cli.py",
        "return 10 + failing[0] if failing else 0",
        "return 10 + failing[-1] if failing else 0",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "emit-csv-header-dropped",
        "src/gwseries/cli.py",
        ".writerows([header, *rows])",
        ".writerows(rows)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "kmax-bound-moved",
        "src/gwseries/cli.py",
        "config.kmax < 0:",
        "config.kmax < -1:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "hard-exit-without-flush",
        "src/gwseries/cli.py",
        "sys.stdout.flush()\n        sys.stderr.flush()",
        "sys.stderr.flush()",
        ("tests/test_fresh_process.py",),
    ),
    Mutant(
        "hard-exit-status-zero",
        "src/gwseries/cli.py",
        "os._exit(status)",
        "os._exit(0)",
        ("tests/test_fresh_process.py",),
    ),
    Mutant(
        "broken-pipe-exits-one",
        "src/gwseries/cli.py",
        "os._exit(BROKEN_PIPE_STATUS)",
        "os._exit(1)",
        ("tests/test_fresh_process.py",),
    ),
    Mutant(
        "text-line-drops-indices",
        "src/gwseries/reporting.py",
        'where = f", indices {f.indices}" if f.indices else ""',
        'where = ""',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "int-convolve-stride-one",
        "src/gwseries/exact_arith.py",
        "g = math.gcd(*map(sub, xs_at[1:], xs_at), *map(sub, ys_at[1:], ys_at)) or 1",
        "g = 1",
        ("tests/test_qseries.py",),
        equivalent="the stride sets how many slots are packed, not any value; only a packed-slot counter could see it",
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(REPO / name, dest / name, ignore=ignore)
    shutil.copy2(REPO / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[bool, str]:
    """(passed, first failing test or reason) for pytest -x over `tests`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timeout after {TIMEOUT_S} s"
    failed = re.search(r"^FAILED (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)
    return done.returncode == 0, failed.group(1) if failed else (done.stdout.strip().splitlines() or [""])[-1]


def mutate(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            flag = f"  [equivalent: {m.equivalent}]" if m.equivalent else ""
            print(f"{m.name:36} {m.path:28} {' '.join(m.tests)}{flag}")
        return 0

    stale = [m.name for m in chosen if (REPO / m.path).read_text().count(m.old) != 1]
    if stale:
        print(f"stale mutants (old text not found exactly once): {', '.join(stale)}")
        return 1
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        base = Path(workdir) / "base"
        copy_tree(base)
        tests = tuple(sorted({t for m in chosen for t in m.tests}))
        passed, detail = run_tests(base, tests)
        if not passed:
            print(f"the unmutated tree fails its tests ({detail}); no mutant is run")
            return 1
        for m in chosen:
            tree = Path(workdir) / m.name
            copy_tree(tree)
            mutate(tree, m)
            began = time.perf_counter()
            survived, detail = run_tests(tree, m.tests)
            elapsed = time.perf_counter() - began
            shutil.rmtree(tree)
            if m.equivalent:
                verdict = "equivalent" if survived else "KILLED-EQUIVALENT"
                detail = m.equivalent if survived else detail
            else:
                verdict = "SURVIVED" if survived else "killed"
            bad += verdict in ("SURVIVED", "KILLED-EQUIVALENT")
            print(f"{verdict:18} {m.name:36} {elapsed:6.1f} s  {detail}", flush=True)
    print(f"{len(chosen)} mutants, {bad} bad, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
