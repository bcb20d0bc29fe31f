"""Command-line front end: expansions, solvers, identity suites, tables.

Commands
--------
expand EXPR         expand an eta quotient such as "eta(9)^3 * eta(3)^-1"
solve MODEL         run the coefficient solver for d4 or e6
verify TARGET       run an identity suite: d4, e6, halphen, or identities
gw-table            degree counts c_k with their dual-route certificate
genus-one MODEL     the genus-one series and its certificates

Every verification prints IdentityReports in the chosen format (text, json,
or csv).  Exit status 0 means every report passed; a failing run exits with
10 plus the index of the first failing suite in the stream, so scripts can
tell which stage broke.  Usage problems exit 2, and an internal precondition
violation (such as a PrecisionError) exits 3.  A wrong coefficient is never
an internal error: it shows up as a failing report.

The default truncation order is 60 and can be overridden either with
--order or the GWSERIES_ORDER environment variable.

Each command imports the modules it runs when it runs, so a process pays
only for the layers of its own command.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from .qseries import QSeries, QSeriesError, format_series
from .reporting import IdentityReport

DEFAULT_ORDER = 60
DEFAULT_KMAX = 10
ORDER_ENV_VAR = "GWSERIES_ORDER"


class RunConfig(NamedTuple):
    """Everything a single CLI invocation needs, normalized and validated."""

    command: str
    order: int = DEFAULT_ORDER
    format: str = "text"
    model: str | None = None
    strict_typo_mode: bool = False
    expression: str | None = None
    kmax: int = DEFAULT_KMAX


# -- verification suites -------------------------------------------------------------


def _verify_suites(config: RunConfig) -> list[tuple[str, list[IdentityReport]]]:
    if config.model == "d4":
        from .d4 import d4_suites

        return d4_suites(config.order)
    if config.model == "e6":
        from .e6 import e6_suites

        return e6_suites(config.order, raw_f11_block=config.strict_typo_mode)
    if config.model == "halphen":
        from .d4 import halphen_suites

        return halphen_suites(config.order)
    from .modular import modular_reports

    return [("modular-suite", modular_reports(config.order))]


# -- output helpers ------------------------------------------------------------------


def _report_line(report: IdentityReport) -> str:
    if report.passed:
        return f"pass  {report.name} (order {report.order_certified})"
    f = report.first_failure
    where = f", indices {f.indices}" if f.indices else ""
    return (
        f"FAIL  {report.name} (order {report.order_certified};"
        f" first failure at q^{f.exponent}{where}, residual {f.residual})"
    )


def _print_json(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _print_csv(header: list[str], rows: list[list[str]]) -> None:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _series_csv_rows(label: str, series: QSeries) -> list[list[str]]:
    return [[label, str(e), str(c)] for e, c in series.known_terms()]


def _exit_status(groups: list[tuple[str, list[IdentityReport]]]) -> int:
    for index, (_, reports) in enumerate(groups):
        if any(not r.passed for r in reports):
            return 10 + index
    return 0


# -- command implementations ----------------------------------------------------------


def _run_expand(config: RunConfig) -> int:
    from .modular import EtaQuotient

    try:
        quotient = EtaQuotient.parse(config.expression or "")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    integral = quotient.offset.denominator == 1
    # --order is the absolute truncation: exponents below it are known.
    unit_order = config.order - int(quotient.offset) if integral else config.order
    if unit_order < 1:
        print(f"error: order {config.order} does not reach past the leading "
              f"exponent {quotient.offset}", file=sys.stderr)
        return 2
    series = quotient.expand(unit_order) if integral else quotient.unit(unit_order)
    if config.format == "json":
        # "scalar" is always 1: an eta quotient's leading coefficient is 1
        fields = ({"series": series.to_json_dict()} if integral else
                  {"scalar": "1", "offset": str(quotient.offset),
                   "unit": series.to_json_dict()})
        _print_json({"command": "expand", "expression": str(quotient), **fields})
    elif config.format == "csv":
        _print_csv(["series", "exponent", "coefficient"], _series_csv_rows(str(quotient), series))
    elif integral:
        print(format_series(series))
    else:
        print(f"q^({quotient.offset}) * ({format_series(series)})")
    return 0


def _run_solve(config: RunConfig) -> int:
    if config.model == "d4":
        from .d4 import d4_recursion_solve

        solution = d4_recursion_solve(config.order)
        named = [("a", solution.a), ("b", solution.b), ("c", solution.c)]
    else:
        from .e6 import e6_schwarzian_solve

        named = [("a", e6_schwarzian_solve(config.order))]
    if config.format == "json":
        _print_json({
            "command": "solve",
            "model": config.model,
            "order": config.order,
            "series": {name: s.to_json_dict() for name, s in named},
        })
    elif config.format == "csv":
        rows = []
        for name, s in named:
            rows.extend(_series_csv_rows(name, s))
        _print_csv(["series", "exponent", "coefficient"], rows)
    else:
        for name, s in named:
            print(f"{name} = {format_series(s)}")
    return 0


def _run_verify(config: RunConfig) -> int:
    groups = _verify_suites(config)
    if config.format == "json":
        _print_json({
            "command": "verify",
            "target": config.model,
            "order": config.order,
            "suites": [
                {"name": name, "reports": [r.to_json_dict() for r in reports]}
                for name, reports in groups
            ],
        })
    elif config.format == "csv":
        rows = [r.csv_row() for _, reports in groups for r in reports]
        _print_csv(["name", "order", "status", "failure_exponent"], rows)
    else:
        for name, reports in groups:
            print(f"[{name}]")
            for report in reports:
                print(f"  {_report_line(report)}")
    return _exit_status(groups)


def _run_gw_table(config: RunConfig) -> int:
    from .e6 import e6_gw_table

    table, report = e6_gw_table(config.kmax)
    if config.format == "json":
        _print_json({
            "command": "gw-table",
            "kmax": config.kmax,
            "table": [{"k": k, "c_k": str(c)} for k, c in table],
            "report": report.to_json_dict(),
        })
    elif config.format == "csv":
        _print_csv(["k", "c_k"], [[str(k), str(c)] for k, c in table])
    else:
        for k, c in table:
            print(f"c_{k} = {c}")
        print(_report_line(report))
    return _exit_status([("gw-table", [report])])


def _run_genus_one(config: RunConfig) -> int:
    if config.model == "d4":
        from .d4 import d4_analytic, d4_genus_one

        result = d4_genus_one(config.order, d4_analytic(config.order))
    else:
        from .e6 import e6_build_fi, e6_genus_one

        result = e6_genus_one(config.order, e6_build_fi(config.order))
    if config.format == "json":
        _print_json({
            "command": "genus-one",
            "model": config.model,
            "order": config.order,
            "linear_log_q_coefficient": str(result.linear_coefficient),
            "series": result.series.to_json_dict(),
            "report": result.report.to_json_dict(),
        })
    elif config.format == "csv":
        _print_csv(["name", "order", "status", "failure_exponent"],
                   [result.report.csv_row()])
    else:
        print(f"linear log q coefficient: {result.linear_coefficient}")
        print(f"series: {format_series(result.series)}")
        print(_report_line(result.report))
    return _exit_status([("genus-one", [result.report])])


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    if config.command == "expand":
        return _run_expand(config)
    runner = {
        "solve": _run_solve,
        "verify": _run_verify,
        "gw-table": _run_gw_table,
        "genus-one": _run_genus_one,
    }[config.command]
    try:
        return runner(config)
    except (QSeriesError, ArithmeticError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


# -- argument parsing -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwseries",
        description="Exact q-series reconstruction of the genus zero and one "
        "invariants of the orbifold lines with signatures (2,2,2,2) and (3,3,3).",
        epilog="exit status: 0 all reports pass; 2 usage error; 3 internal "
        "precondition violation; 10+i when suite i (0-based, in output order) "
        "is the first to fail",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p: argparse.ArgumentParser, with_order: bool = True) -> None:
        if with_order:
            p.add_argument(
                "--order",
                type=int,
                default=None,
                metavar="T",
                help=f"truncation order (default {DEFAULT_ORDER}; "
                f"override with ${ORDER_ENV_VAR})",
            )
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default text)",
        )

    p_expand = sub.add_parser("expand", help="expand an eta quotient")
    p_expand.add_argument("expression", help='eta quotient, e.g. "eta(9)^3 * eta(3)^-1"')
    add_common(p_expand)

    p_solve = sub.add_parser("solve", help="run a coefficient solver")
    p_solve.add_argument("model", choices=("d4", "e6"))
    add_common(p_solve)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("target", choices=("d4", "e6", "halphen", "identities"))
    add_common(p_verify)
    p_verify.add_argument(
        "--strict-typo-mode",
        action="store_true",
        help="keep the f11 potential block exactly as transcribed, with one "
        "monomial duplicated and its orbit partner missing, instead of the "
        "symmetric completion that associativity demands",
    )

    p_gw = sub.add_parser("gw-table", help="degree counts c_k with certificate")
    p_gw.add_argument("--kmax", type=int, default=DEFAULT_KMAX, metavar="K",
                      help=f"largest degree to tabulate (default {DEFAULT_KMAX})")
    add_common(p_gw, with_order=False)

    p_genus = sub.add_parser("genus-one", help="genus-one series and certificates")
    p_genus.add_argument("model", choices=("d4", "e6"))
    add_common(p_genus)

    return parser


def _resolve_order(parser: argparse.ArgumentParser, flag_value: int | None) -> int:
    if flag_value is not None:
        order = flag_value
    elif ORDER_ENV_VAR in os.environ:
        raw = os.environ[ORDER_ENV_VAR]
        try:
            order = int(raw)
        except ValueError:
            parser.error(f"${ORDER_ENV_VAR} must be an integer, got {raw!r}")
    else:
        order = DEFAULT_ORDER
    if order < 2:
        parser.error(f"order must be at least 2, got {order}")
    return order


def parse_args(argv: list[str] | None = None) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    order = DEFAULT_ORDER
    if hasattr(args, "order"):
        order = _resolve_order(parser, args.order)
    kmax = getattr(args, "kmax", DEFAULT_KMAX)
    if kmax < 0:
        parser.error(f"kmax must be nonnegative, got {kmax}")
    model = getattr(args, "model", None) or getattr(args, "target", None)
    return RunConfig(
        command=args.command,
        order=order,
        format=args.format,
        model=model,
        strict_typo_mode=getattr(args, "strict_typo_mode", False),
        expression=getattr(args, "expression", None),
        kmax=kmax,
    )


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
