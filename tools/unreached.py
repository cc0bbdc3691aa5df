"""Print every statement of ``src/polydarcy`` that no Tier-1 test executes.

The Tier-1 suite (``pytest -q --continue-on-collection-errors`` over the
configured test paths) runs in this interpreter under ``sys.settrace``,
which records the lines executed in the package's files.  A statement
counts as reached when any line of its own span ran: the whole statement
for a simple one, the header (decorators and ``def``, ``if`` ... up to the
first statement of its body) for a compound one.  Docstrings, ``global``
and ``nonlocal`` run no code and are skipped.  Each unreached statement
prints as ``file:line: source`` (its first line), in file order, followed
by a count.  Code that only tests' child processes run (``subprocess``)
is not seen, so it is listed too.

Usage: python tools/unreached.py   (takes no options; run from anywhere)

The pytest summary goes to stderr; the exit status is pytest's.  Tracing
roughly doubles the suite's run time.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polydarcy"
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NO_CODE = (ast.Global, ast.Nonlocal)


def statement_spans(source: str) -> list:
    """(first line, last line) of the own span of every code statement."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings or isinstance(node, _NO_CODE):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.append((first, last))
    return sorted(spans)


def trace_suite() -> tuple:
    """Run the Tier-1 suite under a line tracer; (pytest status, {file: lines})."""
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = executed.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)  # so pytest reads the repository's test paths
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
    return int(status), executed


def main() -> int:
    status, executed = trace_suite()
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = executed.get(str(path), set())
        for first, last in statement_spans(source):
            if ran.isdisjoint(range(first, last + 1)):
                count += 1
                print(f"{path.relative_to(ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{count} unreached statements")
    return status


if __name__ == "__main__":
    sys.exit(main())
