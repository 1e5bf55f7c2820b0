"""List the engine lines that the tier-1 tests never run.

Run from the repository root, with the tier-1 environment:

    PYTHONPATH=src python tests/unrun_lines.py [pytest arguments]

It traces each line of code under src/motivic that runs in this process or
its threads while pytest runs the tests (the CLI and demo processes the tests
start are not traced), then prints ``file:line: source`` for every executable
line that never ran.  The bodies of ``if TYPE_CHECKING:`` blocks are skipped:
they run only under a type checker.  It exits 1 if it printed a line, and
with pytest's code if a test failed.  Line events differ between Python
versions, so a clean result holds for the version it ran on.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENGINE = ROOT / "src" / "motivic"

_runs: dict = {}  # code file name -> the lines run in it, or None outside the engine


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _runs:
        inside = os.path.dirname(os.path.abspath(name)) == str(ENGINE)
        _runs[name] = set() if inside else None
    seen = _runs[name]
    if seen is None:
        return None

    def lines(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return lines

    return lines


def _executable(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}  # a module's code starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _type_checking_bodies(tree) -> set:
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
            for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1)}


def unrun() -> list:
    """(path, line, source) of each executable engine line that never ran."""
    ran: dict = {}
    for name, seen in _runs.items():
        if seen is not None:
            ran.setdefault(os.path.abspath(name), set()).update(seen)
    found = []
    for path in sorted(ENGINE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        skipped = _type_checking_bodies(ast.parse(source))
        lines = source.splitlines()
        missed = _executable(compile(source, str(path), "exec")) - skipped - ran.get(str(path), set())
        found += [(path, line, lines[line - 1].strip()) for line in sorted(missed)]
    return found


def main() -> int:
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = unrun()
    for path, line, text in found:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    return int(code) or (1 if found else 0)


if __name__ == "__main__":
    sys.exit(main())
