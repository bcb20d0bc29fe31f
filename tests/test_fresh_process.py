"""The CLI run in fresh interpreters.

In-process tests import every module before a command runs, so a broken
per-command import would still pass there.  Each test here starts a new
`python` with only the package's source on its path.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
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


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GWSERIES_ORDER")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
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
