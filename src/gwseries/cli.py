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
an internal error: it shows up as a failing report.  When the reader of the
output goes away first (`gwseries ... | head`), the command line exits 141,
128 + SIGPIPE as a shell reports a writer the signal ends, and prints nothing
more.

The default truncation order is 60 and can be overridden either with
--order or the GWSERIES_ORDER environment variable.

Each command imports the modules it runs when it runs, so a process pays
only for the layers of its own command.  The command line (`console_main`,
the `gwseries` script and `python -m gwseries.cli`) ends the process without
interpreter teardown once its output is flushed: freeing every loaded module
and object cost about 8 ms of a 100 ms `verify e6 --order 60`.  `main(argv)`,
the in-process entry, still raises SystemExit.
"""

from __future__ import annotations

import argparse
import os
import sys

from .qseries import QSeries, format_series
from .reporting import IdentityReport

DEFAULT_ORDER = 60
DEFAULT_KMAX = 10
ORDER_ENV_VAR = "GWSERIES_ORDER"
BROKEN_PIPE_STATUS = 141  # 128 + SIGPIPE


# -- verification suites -------------------------------------------------------------


def _verify_suites(config: argparse.Namespace) -> list[tuple[str, list[IdentityReport]]]:
    if config.target == "d4":
        from .d4 import d4_suites

        return d4_suites(config.order)
    if config.target == "e6":
        from .e6 import e6_suites

        return e6_suites(config.order, raw_f11_block=config.strict_typo_mode)
    if config.target == "halphen":
        from .d4 import halphen_suites

        return halphen_suites(config.order)
    from .modular import modular_reports

    return [("modular-suite", modular_reports(config.order))]


# -- output --------------------------------------------------------------------------


def _emit(config: argparse.Namespace, groups: list[tuple[str, list[IdentityReport]]],
          as_json, as_csv, as_text) -> int:
    """Print one command's result in config.format; returns the exit status.

    as_json (the payload), as_csv (header and rows) and as_text (the lines)
    take no arguments, and only the one for the requested format is called;
    json and csv are imported only for their own format.  The status is 0, or
    10 plus the index of the first of `groups` (name, reports) that fails.
    """
    if config.format == "json":
        import json

        print(json.dumps(as_json(), indent=2))
    elif config.format == "csv":
        import csv

        header, rows = as_csv()
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
    else:
        print(*as_text(), sep="\n")
    failing = [i for i, (_, reports) in enumerate(groups) if not all(r.passed for r in reports)]
    return 10 + failing[0] if failing else 0


def _series_table(named: list[tuple[str, QSeries]]) -> tuple[list[str], list[list[str]]]:
    return ["series", "exponent", "coefficient"], [
        [name, str(e), str(c)] for name, s in named for e, c in s.known_terms()]


# -- command implementations ----------------------------------------------------------


def _run_expand(config: argparse.Namespace) -> int:
    from .modular import EtaQuotient

    try:
        quotient = EtaQuotient.parse(config.expression)
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
    # "scalar" is always 1: an eta quotient's leading coefficient is 1
    return _emit(
        config, [],
        lambda: {"command": "expand", "expression": str(quotient), **(
            {"series": series.to_json_dict()} if integral else
            {"scalar": "1", "offset": str(quotient.offset), "unit": series.to_json_dict()})},
        lambda: _series_table([(str(quotient), series)]),
        lambda: [format_series(series) if integral else
                 f"q^({quotient.offset}) * ({format_series(series)})"],
    )


def _run_solve(config: argparse.Namespace) -> int:
    if config.model == "d4":
        from .d4 import d4_recursion_solve

        solution = d4_recursion_solve(config.order)
        named = [("a", solution.a), ("b", solution.b), ("c", solution.c)]
    else:
        from .e6 import e6_schwarzian_solve

        named = [("a", e6_schwarzian_solve(config.order))]
    return _emit(
        config, [],
        lambda: {"command": "solve", "model": config.model, "order": config.order,
                 "series": {name: s.to_json_dict() for name, s in named}},
        lambda: _series_table(named),
        lambda: [f"{name} = {format_series(s)}" for name, s in named],
    )


def _run_verify(config: argparse.Namespace) -> int:
    groups = _verify_suites(config)
    return _emit(
        config, groups,
        lambda: {"command": "verify", "target": config.target, "order": config.order,
                 "suites": [{"name": name, "reports": [r.to_json_dict() for r in reports]}
                            for name, reports in groups]},
        lambda: (IdentityReport.CSV_HEADER, [r.csv_row() for _, reports in groups for r in reports]),
        lambda: [line for name, reports in groups
                 for line in (f"[{name}]", *(f"  {r.text_line()}" for r in reports))],
    )


def _run_gw_table(config: argparse.Namespace) -> int:
    from .e6 import e6_gw_table

    table, report = e6_gw_table(config.kmax)
    return _emit(
        config, [("gw-table", [report])],
        lambda: {"command": "gw-table", "kmax": config.kmax,
                 "table": [{"k": k, "c_k": str(c)} for k, c in table],
                 "report": report.to_json_dict()},
        lambda: (["k", "c_k"], [[str(k), str(c)] for k, c in table]),
        lambda: [*(f"c_{k} = {c}" for k, c in table), report.text_line()],
    )


def _run_genus_one(config: argparse.Namespace) -> int:
    if config.model == "d4":
        from .d4 import d4_analytic, d4_genus_one

        result = d4_genus_one(config.order, d4_analytic(config.order))
    else:
        from .e6 import e6_build_fi, e6_genus_one

        result = e6_genus_one(config.order, e6_build_fi(config.order))
    report = result.report
    return _emit(
        config, [("genus-one", [report])],
        lambda: {"command": "genus-one", "model": config.model, "order": config.order,
                 "linear_log_q_coefficient": str(result.linear_coefficient),
                 "series": result.series.to_json_dict(), "report": report.to_json_dict()},
        lambda: (IdentityReport.CSV_HEADER, [report.csv_row()]),
        lambda: [f"linear log q coefficient: {result.linear_coefficient}",
                 f"series: {format_series(result.series)}", report.text_line()],
    )


def run(config: argparse.Namespace) -> int:
    """Execute one parsed command (`parse_args`); returns the process exit status."""
    runner = {
        "expand": _run_expand,
        "solve": _run_solve,
        "verify": _run_verify,
        "gw-table": _run_gw_table,
        "genus-one": _run_genus_one,
    }[config.command]
    try:
        return runner(config)
    except (ArithmeticError, ValueError) as exc:
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


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parser's namespace, with the order resolved and kmax checked."""
    parser = _build_parser()
    config = parser.parse_args(argv)
    if "order" in config:
        config.order = _resolve_order(parser, config.order)
    if "kmax" in config and config.kmax < 0:
        parser.error(f"kmax must be nonnegative, got {config.kmax}")
    return config


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(parse_args(argv)))


def console_main() -> None:
    """`main` for the command line, ending the process without teardown.

    Once the command returns, stdout and stderr are flushed and os._exit
    ends the process with the command's status, so the interpreter does not
    free the modules and objects it loaded.  That is safe because the
    package, and the stdlib modules it loads, register no atexit handler,
    start no thread and write only to stdout and stderr.  A pipe whose
    reader has gone, met by the command's output or by the flush, ends the
    process with BROKEN_PIPE_STATUS and no message.  If a flush raises
    anything else, sys.exit takes over and the interpreter reports the
    error and sets the status as for `main`.  Usage errors, --help and
    uncaught exceptions leave as they do from `main`.
    """
    status = None
    try:
        status = run(parse_args())
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(BROKEN_PIPE_STATUS)
    except Exception:
        if status is None:  # raised by the command, not by a flush
            raise
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    console_main()
