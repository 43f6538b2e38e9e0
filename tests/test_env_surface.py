"""The environment surface is pinned: README's table names every variable.

Every ``REPRO_*`` name that appears anywhere under ``src/`` (code or
docstring) must be a row of README's "Environment variables" table, and
every row must still appear in ``src/``.  A new environment knob, or a
docstring naming a deleted one, fails here.
"""

import pathlib
import re

import repro

_NAME = re.compile(r"REPRO_[A-Z][A-Z_]*")
_ROW = re.compile(r"^\| `(REPRO_[A-Z][A-Z_]*)` \|", re.MULTILINE)

SRC = pathlib.Path(repro.__file__).resolve().parent
README = SRC.parent.parent / "README.md"


def _src_names() -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        names.update(_NAME.findall(path.read_text(encoding="utf-8")))
    return names


def _readme_names() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Environment variables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(_ROW.findall(section))


def test_readme_table_matches_src():
    assert _readme_names() == _src_names()
