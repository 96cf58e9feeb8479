"""The standing mutants of `tests/mutants.py` still apply: each old text
occurs exactly once in its file, and each killing test exists.  Running
the mutants is that script's job, not tier-1's."""

from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("m", MUTANTS + EQUIVALENT, ids=lambda m: f"{Path(m.path).name}:{m.old.strip()}")
def test_mutant_text_occurs_once(m):
    assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1
    assert m.new != m.old


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.killer.split("::")[-1])
def test_killing_test_exists(m):
    path, name = m.killer.split("::")
    assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8")
