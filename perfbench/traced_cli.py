"""Run one gwseries CLI request under the tracer.

    python perfbench/traced_cli.py verify e6 --order 60

Behaves like `python -m gwseries.cli` (same stdout and exit status) and
writes the trace summary as the last line of stderr, prefixed by MARKER.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer

MARKER = "PERFBENCH_TRACE "


def main(argv: list[str]) -> int:
    tracer = Tracer().install()
    import gwseries.cli

    status = 1
    try:
        gwseries.cli.main(argv)
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        # also on a crash, so the failed request still shows where time went
        tracer.restore()
        sys.stdout.flush()
        sys.stderr.write("\n" + MARKER + json.dumps(tracer.summary()) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
