#!/usr/bin/env python3
"""The function-body statement lines of ``src/lcivt`` that tier-1 never runs.

    python3 scripts/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this interpreter, by default on the whole tier-1 suite
(``tests/``), under a ``sys.settrace`` line tracer; no ``coverage`` package
is needed.  Then prints, per module, the statement lines inside function
and method bodies that never ran, as line ranges, and the total.  A
statement counts by its first line; docstrings and ``global`` and
``nonlocal`` declarations, which never run, are not counted, and neither
is module- or class-level code.  Lines run only in subprocesses that the
tests start are not seen.  The tracer makes the suite several times slower
(about 260 s against 80 s on a 2 vCPU host).  Exits with pytest's code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcivt"
SKIPPED = (ast.Global, ast.Nonlocal)


def body_lines(path):
    """First lines of the statements inside the function bodies of ``path``."""
    lines = set()

    def visit(stmts):
        for i, stmt in enumerate(stmts):
            docstring = (i == 0 and isinstance(stmt, ast.Expr)
                         and isinstance(stmt.value, ast.Constant)
                         and isinstance(stmt.value.value, str))
            if not docstring and not isinstance(stmt, SKIPPED):
                lines.add(stmt.lineno)
            for block in ("body", "orelse", "finalbody"):
                visit(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                visit(handler.body)
            for case in getattr(stmt, "cases", []):
                visit(case.body)

    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node.body)
    return lines


def ranges(lines):
    """Sorted line numbers as "a-b" ranges of consecutive numbers."""
    out = []
    for n in sorted(lines):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main(argv):
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "--continue-on-collection-errors",
                                    "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in files.items():
        lines = body_lines(path)
        never = lines - ran[name]
        total, missed = total + len(lines), missed + len(never)
        if never:
            print("%s: %d of %d never run: %s" % (path.relative_to(ROOT / "src"), len(never),
                                                  len(lines), ranges(never)))
    print("total: %d of %d function-body statement lines never run (%.1f %%)"
          % (missed, total, 100.0 * missed / max(total, 1)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
