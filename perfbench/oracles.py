"""Expected answers for the benchmark's requests, computed without gwseries.

Every oracle here uses plain integer arithmetic and shares no code with the
package under test, so a wrong coefficient in the program cannot also be
wrong in its expected value.  The checkers take a request's raw stdout and
exit status and return a `Verdict`: whether the output is right, why not,
and how many terms the passing reports certified.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction


# -- integer q-series oracles ---------------------------------------------------------


def _euler_product(n: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - x^k) through x^(n-1), by the pentagonal
    number theorem: sum over m of (-1)^m x^(m(3m-1)/2)."""
    out = [0] * n
    m = 0
    while True:
        done = True
        for g in {m * (3 * m - 1) // 2, m * (3 * m + 1) // 2}:
            if g < n:
                out[g] += -1 if m % 2 else 1
                done = False
        if done:
            return out
        m += 1


def partitions(n: int) -> list[int]:
    """p(0), ..., p(n-1): coefficients of 1/prod (1 - x^k), by Euler's recurrence."""
    p = [0] * n
    if n:
        p[0] = 1
    for k in range(1, n):
        total, m = 0, 1
        while True:
            g1 = m * (3 * m - 1) // 2
            if g1 > k:
                break
            sign = 1 if m % 2 else -1
            total += sign * p[k - g1]
            g2 = m * (3 * m + 1) // 2
            if g2 <= k:
                total += sign * p[k - g2]
            m += 1
        p[k] = total
    return p


def gw_table_counts(kmax: int) -> list[int]:
    """c_0, ..., c_kmax: coefficients of prod (1 - x^(3n))^3 / prod (1 - x^n).

    The cube comes from Jacobi's identity prod (1 - y^n)^3 =
    sum_{m>=0} (-1)^m (2m+1) y^(m(m+1)/2) with y = x^3.
    """
    n = kmax + 1
    cube = [0] * n
    m = 0
    while 3 * m * (m + 1) // 2 < n:
        cube[3 * m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    p = partitions(n)
    return [sum(cube[i] * p[k - i] for i in range(k + 1) if cube[i]) for k in range(n)]


def ramanujan_tau(n: int) -> list[int]:
    """tau(1), ..., tau(n-1): eta(q)^24 = sum tau(k) q^k, through q^(n-1).

    Powers the sparse Euler product with the J.C.P. Miller recurrence
    k g_k = sum_{j>=1} (25 j - k) f_j g_{k-j} for g = f^24, f_0 = 1.
    """
    f = _euler_product(n)
    support = [j for j in range(1, n) if f[j]]
    g = [0] * n
    if n:
        g[0] = 1
    for k in range(1, n):
        acc = 0
        for j in support:
            if j > k:
                break
            acc += (25 * j - k) * f[j] * g[k - j]
        g[k] = acc // k
    return g[:max(n - 1, 0)]  # q^1 .. q^(n-1) of q * prod^24


# -- output parsing ---------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    certified_terms: int = 0


_REPORT_RE = re.compile(r"^\s*(pass|FAIL)\s+(\S+)\s+\(order (\d+)")
_SUITE_RE = re.compile(r"^\[(.+)\]$")
_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?(q(?:\^(-?\d+))?)?$")
_BIG_O_RE = re.compile(r"^O\(q\^(-?\d+)\)$")


def parse_reports(stdout: str) -> list[tuple[str, str, str, int]]:
    """(suite, status, name, order) for every report line of text output."""
    suite = ""
    out = []
    for line in stdout.splitlines():
        head = _SUITE_RE.match(line.strip())
        if head:
            suite = head.group(1)
            continue
        m = _REPORT_RE.match(line)
        if m:
            out.append((suite, m.group(1), m.group(2), int(m.group(3))))
    return out


def parse_series(text: str) -> tuple[dict[int, Fraction], int]:
    """Inverse of the text series format 'q - 24q^2 + ... + O(q^N)'.

    Returns the nonzero coefficients by exponent and the truncation N.
    Raises ValueError on anything that is not a well-formed series.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty series")
    m = _BIG_O_RE.match(tokens[-1])
    if not m:
        raise ValueError("series must end in O(q^N)")
    truncation = int(m.group(1))
    body = tokens[:-1]
    if body:
        if body[-1] != "+":
            raise ValueError("O(q^N) must follow a '+'")
        body = body[:-1]
    coeffs: dict[int, Fraction] = {}
    sign = 1
    for i, tok in enumerate(body):
        if i % 2:
            if tok not in "+-":
                raise ValueError(f"expected a sign, got {tok!r}")
            sign = 1 if tok == "+" else -1
            continue
        if i == 0 and tok.startswith("-"):
            sign, tok = -1, tok[1:]
        t = _TERM_RE.match(tok)
        if not t or not (t.group(1) or t.group(2)):
            raise ValueError(f"cannot parse term {tok!r}")
        value = Fraction(t.group(1)) if t.group(1) else Fraction(1)
        exponent = 0 if not t.group(2) else int(t.group(3) or 1)
        if exponent in coeffs or exponent >= truncation:
            raise ValueError(f"bad exponent {exponent}")
        coeffs[exponent] = sign * value
    return coeffs, truncation


# -- checkers ---------------------------------------------------------------------------


def check_verify(stdout: str, status: int, expect_wdvv_failure: bool) -> Verdict:
    """Every report must pass; with the typo potential exactly `wdvv` fails.

    The exit status must be 0, or 10 + the index of the first suite that
    holds a failing report.
    """
    reports = parse_reports(stdout)
    if not reports:
        return Verdict(False, "no report lines")
    failing = [name for _, st, name, _ in reports if st == "FAIL"]
    expected = ["wdvv"] if expect_wdvv_failure else []
    if failing != expected:
        return Verdict(False, f"failing reports {failing}, expected {expected}")
    suites = list(dict.fromkeys(suite for suite, _, _, _ in reports))
    want = 0
    for index, suite in enumerate(suites):
        if any(s == suite and st == "FAIL" for s, st, _, _ in reports):
            want = 10 + index
            break
    if status != want:
        return Verdict(False, f"exit status {status}, expected {want}")
    return Verdict(True, certified_terms=sum(o for _, st, _, o in reports if st == "pass"))


_TABLE_RE = re.compile(r"^c_(\d+) = (-?\d+(?:/\d+)?)$")


def check_gw_table(stdout: str, status: int, kmax: int) -> Verdict:
    """c_0..c_kmax equal the oracle and the dual-route report passes."""
    if status != 0:
        return Verdict(False, f"exit status {status}, expected 0")
    table = {}
    for line in stdout.splitlines():
        m = _TABLE_RE.match(line.strip())
        if m:
            table[int(m.group(1))] = Fraction(m.group(2))
    expected = gw_table_counts(kmax)
    if sorted(table) != list(range(kmax + 1)):
        return Verdict(False, f"table rows {len(table)}, expected {kmax + 1}")
    for k, c in enumerate(expected):
        if table[k] != c:
            return Verdict(False, f"c_{k} = {table[k]}, expected {c}")
    reports = parse_reports(stdout)
    if len(reports) != 1 or reports[0][1] != "pass":
        return Verdict(False, f"certificate lines {reports}, expected one pass")
    return Verdict(True, certified_terms=reports[0][3])


def check_delta(stdout: str, status: int, order: int) -> Verdict:
    """eta(1)^24 through O(q^order) equals sum tau(n) q^n."""
    if status != 0:
        return Verdict(False, f"exit status {status}, expected 0")
    try:
        coeffs, truncation = parse_series(stdout.strip())
    except ValueError as exc:
        return Verdict(False, f"unparseable series: {exc}")
    if truncation != order:
        return Verdict(False, f"truncation {truncation}, expected {order}")
    tau = ramanujan_tau(order)
    expected = {n: t for n, t in enumerate(tau, start=1) if t}
    if coeffs != expected:
        bad = min(e for e in set(coeffs) | set(expected) if coeffs.get(e) != expected.get(e))
        return Verdict(False, f"q^{bad}: {coeffs.get(bad, 0)}, expected {expected.get(bad, 0)}")
    return Verdict(True)
