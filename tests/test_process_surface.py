"""The process surface is pinned: ``src/`` starts no interpreter.

Work reaches another process only through the executor's fork (and the
crash drill's forked victim), which inherits the run state.  A file
under ``src/`` that names ``subprocess``, ``sys.executable``, ``Popen``,
``os.exec*``/``os.spawn*``/``os.posix_spawn*``, or a ``spawn`` or
``forkserver`` start method would start a fresh interpreter that
inherits none of it — and fails here.
"""

import pathlib
import re

import repro

_INTERPRETER_START = re.compile(
    r"\bsubprocess\b|sys\.executable|\bPopen\b"
    r"|\bos\.(?:exec|spawn|posix_spawn)\w*"
    r"|get_context\(\s*[\"'](?:spawn|forkserver)[\"']"
    r"|set_start_method"
)

SRC = pathlib.Path(repro.__file__).resolve().parent


def test_src_starts_no_interpreter():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        )
        if _INTERPRETER_START.search(line)
    ]
    assert hits == []
