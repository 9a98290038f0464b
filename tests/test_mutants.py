"""The committed mutant list stays runnable: every entry's text still
occurs exactly once in its file, so a library edit that moves a mutated
site fails here, and not only in the separate mutation run."""

from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_entry_applies_once_and_names_existing_killers(m):
    assert (ROOT / m.path).is_file()
    assert m.killers and all((ROOT / f).is_file() for f in m.killers)
    assert m.new != m.old
    try:
        mutated = mutants._substituted(m)  # exits unless ``old`` occurs once
    except SystemExit as exc:
        pytest.fail(str(exc))
    assert mutated != (ROOT / m.path).read_text()
