"""The CLI run in fresh interpreters.

In-process tests import every module before a command runs, so a broken
per-command import would still pass there.  Each test here starts a new
`python` with only the package's source on its path.  The command line
ends its process with os._exit once stdout and stderr are flushed, so the
tests of that exit path compare a fresh process's output with `main`'s in
process, with PYTHONUNBUFFERED set and unset.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gwseries import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MARKER = "\nMODULES "
# runs one CLI command, then writes the names of every loaded module to stderr
FOOTPRINT = (
    "import sys\n"
    "import gwseries.cli\n"
    "try:\n"
    "    gwseries.cli.main(sys.argv[1:])\n"
    "finally:\n"
    f"    sys.stderr.write({MARKER!r} + ' '.join(sorted(sys.modules)))\n"
)
MODEL_MODULES = {"gwseries.d4", "gwseries.e6", "gwseries.frobenius"}


def _python(*args: str, unbuffered: bool = False, stdout=subprocess.PIPE, text: bool = True):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GWSERIES_ORDER", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=text, env=env, timeout=300
    )


def _loaded_modules(argv: list[str]) -> set[str]:
    done = _python("-c", FOOTPRINT, *argv)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.rpartition(MARKER)[2].split())


FRESH_RUNS = [
    (["expand", "eta(9)^3 * eta(3)^-1", "--order", "12"], 0),
    (["expand", "eta(2)^-3/2 * eta(4)^1/2", "--order", "12", "--format", "json"], 0),
    (["solve", "d4", "--order", "8", "--format", "csv"], 0),
    (["solve", "e6", "--order", "8"], 0),
    (["verify", "d4", "--order", "8"], 0),
    (["verify", "e6", "--order", "8", "--format", "json"], 0),
    (["verify", "e6", "--order", "8", "--strict-typo-mode"], 14),
    (["verify", "halphen", "--order", "8", "--format", "csv"], 0),
    (["verify", "identities", "--order", "8"], 0),
    (["gw-table", "--kmax", "4"], 0),
    (["genus-one", "d4", "--order", "8", "--format", "json"], 0),
    (["genus-one", "e6", "--order", "8"], 0),
]


@pytest.mark.parametrize("argv, status", FRESH_RUNS, ids=[" ".join(argv) for argv, _ in FRESH_RUNS])
def test_every_command_runs_in_a_fresh_process(argv, status):
    done = _python("-m", "gwseries.cli", *argv)
    assert done.returncode == status, done.stderr
    assert done.stdout and not done.stderr


def test_import_footprint():
    done = _python("-c", "import sys, gwseries.cli; print(' '.join(sorted(sys.modules)))")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "gwseries.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "gwseries.modular", *MODEL_MODULES}
    for argv in (["expand", "eta(1)^24", "--order", "12"], ["verify", "identities", "--order", "8"]):
        loaded = _loaded_modules(argv)
        assert "gwseries.modular" in loaded
        assert not loaded & MODEL_MODULES, argv
    for target in ("d4", "halphen"):
        assert "gwseries.e6" not in _loaded_modules(["verify", target, "--order", "8"])
    assert "gwseries.d4" not in _loaded_modules(["verify", "e6", "--order", "8"])
    # frobenius loads only where a potential is built or checked
    for argv in (
        ["verify", "halphen", "--order", "8"],
        ["solve", "d4", "--order", "8"],
        ["solve", "e6", "--order", "8"],
        ["gw-table", "--kmax", "4"],
        ["genus-one", "d4", "--order", "8"],
        ["genus-one", "e6", "--order", "8"],
    ):
        assert "gwseries.frobenius" not in _loaded_modules(argv), argv
    for model in ("d4", "e6"):
        assert "gwseries.frobenius" in _loaded_modules(["verify", model, "--order", "8"])
    # json and csv load only for their own output format
    for argv in (
        ["expand", "eta(1)^24", "--order", "12"],
        ["solve", "d4", "--order", "8"],
        ["verify", "halphen", "--order", "8"],
        ["gw-table", "--kmax", "4"],
        ["genus-one", "d4", "--order", "8"],
    ):
        assert not _loaded_modules(argv) & {"json", "csv"}, argv
        assert "csv" not in _loaded_modules([*argv, "--format", "json"]), argv
        assert "json" not in _loaded_modules([*argv, "--format", "csv"]), argv


# -- the exit path: flush, then os._exit -------------------------------------------------

BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@functools.cache
def _in_process(*argv: str) -> tuple[str, int]:
    """`main`'s stdout and exit status for argv, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exited:
        cli.main(list(argv))
    return out.getvalue(), exited.value.code


@BUFFERING
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_output_longer_than_a_pipe_buffer_arrives_whole(fmt, unbuffered):
    """About 76 KB of text, more in json and csv: what the process leaves in
    its buffers at the end reaches the reader byte for byte."""
    argv = ("expand", "eta(1)^24", "--order", "3000", "--format", fmt)
    expected, status = _in_process(*argv)
    done = _python("-m", "gwseries.cli", *argv, unbuffered=unbuffered, text=False)
    assert (status, done.returncode, done.stderr) == (0, 0, b"")
    assert len(done.stdout) > 65536
    assert done.stdout == expected.encode()


@BUFFERING
def test_a_failing_suite_keeps_its_status(unbuffered):
    argv = ("verify", "e6", "--order", "8", "--strict-typo-mode")
    expected, status = _in_process(*argv)
    done = _python("-m", "gwseries.cli", *argv, unbuffered=unbuffered)
    assert (status, done.returncode, done.stderr) == (14, 14, "")
    assert done.stdout == expected


@BUFFERING
def test_a_reader_gone_before_the_output(unbuffered):
    """The pipe's read end is closed before the child writes.  Whether the
    output first meets it in a print (unbuffered, or longer than the
    buffer) or in the exit path's flush, the process exits with
    BROKEN_PIPE_STATUS, 141, and writes nothing to stderr."""
    for order in ("12", "3000"):
        read, write = os.pipe()
        os.close(read)
        try:
            done = _python("-m", "gwseries.cli", "expand", "eta(1)^24", "--order", order,
                           unbuffered=unbuffered, stdout=write)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (cli.BROKEN_PIPE_STATUS, ""), order
    assert cli.BROKEN_PIPE_STATUS == 141


# registers an atexit marker, then calls the entry point named by argv[1],
# "module:function", with the rest of argv as the command line
ENTRY = (
    "import atexit, importlib, sys\n"
    "atexit.register(sys.stderr.write, 'teardown')\n"
    "module, _, name = sys.argv.pop(1).partition(':')\n"
    "getattr(importlib.import_module(module), name)()\n"
)
# the same marker around `python -m gwseries.cli`
MODULE = (
    "import atexit, runpy, sys\n"
    "atexit.register(sys.stderr.write, 'teardown')\n"
    "runpy.run_module('gwseries.cli', run_name='__main__')\n"
)


def test_the_command_line_ends_without_teardown():
    """The console script and `python -m` take the exit path, which runs no
    atexit handler; `main` still ends through SystemExit and teardown."""
    tomllib = pytest.importorskip("tomllib")  # in the stdlib from Python 3.11
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"gwseries": "gwseries.cli:console_main"}
    argv = ["solve", "e6", "--order", "8"]
    for probe in (["-c", ENTRY, scripts["gwseries"], *argv], ["-c", MODULE, *argv]):
        done = _python(*probe)
        assert (done.returncode, done.stderr) == (0, ""), probe
        assert done.stdout.startswith("a = 1/3q^-1")
    done = _python("-c", ENTRY, "gwseries.cli:main", *argv)
    assert (done.returncode, done.stderr) == (0, "teardown")
