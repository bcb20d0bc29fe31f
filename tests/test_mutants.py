"""The committed mutant list of tools/mutants.py stays in step with the code.

Running the mutants takes minutes, so it is not a tier-1 test; this checks,
in milliseconds, that each listed mutant still applies: its old text occurs
exactly once in its file, its new text differs, and its test files exist.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", REPO / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_listed_mutant_still_applies():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (REPO / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.tests and all((REPO / test).is_file() for test in m.tests), m.name
