"""Tier-1 collects tests/ and perfbench/ in one pytest session, with both
directories on sys.path, so a helper module of one name in both would
shadow the other: whichever imports first is the one both get."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: pytest imports each conftest.py by its path, not by its name
_PER_DIRECTORY = {"__init__.py", "conftest.py"}


def test_no_module_name_shared_with_perfbench():
    ours = {p.name for p in (ROOT / "tests").glob("*.py")}
    theirs = {p.name for p in (ROOT / "perfbench").glob("*.py")}
    shared = sorted((ours & theirs) - _PER_DIRECTORY)
    assert not shared, "tests/ and perfbench/ both hold " + ", ".join(shared)
