"""List the statements of ``src/otflow`` that no test reaches.

Runs pytest in this process under a line tracer and prints, one per line,
each function-body statement of the package that no test executed:

    <module>:<line>

A function-body statement is a simple statement (an assignment, a call, a
``return``, a ``raise``, ...) inside a function or method of the package,
at any depth of its ``if``/``for``/``while``/``try``/``with`` blocks;
docstrings, nested ``def`` and ``class`` statements, and the headers of
compound statements are not counted, and module-level code runs at import
whether or not a test reaches it. A statement counts as reached when any
of its lines ran, so one that spans lines is not missed because its first
instruction sits on a later line.

Blind spot: code that runs only in a subprocess (a test that starts
``python -m otflow`` or ``python -c ...``) is not traced and is listed as
unreached.

The traced suite takes about 1.6 times as long as an untraced one. Run from
the root of a checkout; arguments after the script name go to pytest
(default: the ``tests`` directory, quietly):

    python3 tools/line_trace.py
    python3 tools/line_trace.py tests/test_flow.py -x
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "otflow"

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try, ast.With,
             ast.AsyncWith)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _simple_statements(body):
    """The simple statements of a block, those of its nested blocks
    included, and not those of nested definitions."""
    for stmt in body:
        if isinstance(stmt, _DEFINITIONS):
            continue
        if isinstance(stmt, _COMPOUND):
            blocks = [stmt.body, stmt.orelse if hasattr(stmt, "orelse") else []]
            if isinstance(stmt, ast.Try):
                blocks += [h.body for h in stmt.handlers] + [stmt.finalbody]
            for block in blocks:
                yield from _simple_statements(block)
        else:
            yield stmt


def function_statements(source):
    """{first line: last line} of every function-body statement of a
    module's source."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if _is_docstring(node.body[0]) else node.body
            for stmt in _simple_statements(body):
                spans[stmt.lineno] = stmt.end_lineno
    return spans


def unreached(source, executed):
    """First lines, sorted, of the function-body statements of ``source``
    none of whose lines is in the set ``executed``."""
    return sorted(first for first, last in function_statements(source).items()
                  if not any(line in executed for line in range(first, last + 1)))


class LineTracer:
    """Records the lines executed in files under ``root`` while active, in
    this thread and in threads started meanwhile; ``lines`` maps a file's
    path to the set of its executed line numbers."""

    def __init__(self, root):
        self.prefix = str(Path(root).resolve()) + os.sep
        self.lines = {}

    def _global(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.prefix):
            return None
        seen = self.lines.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        threading.settrace(self._global)
        return self

    def __exit__(self, *exc):
        threading.settrace(None)
        sys.settrace(self._previous)
        return False


def report(lines, package=PACKAGE):
    """``<module>:<line>`` of every unreached function-body statement of
    the package's modules, in module order."""
    out = []
    for path in sorted(Path(package).rglob("*.py")):
        executed = lines.get(str(path.resolve()), set())
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        out += [f"{module}:{line}" for line in unreached(path.read_text(),
                                                          executed)]
    return out


def main(argv=None):
    import pytest

    args = list(sys.argv[1:] if argv is None else argv) or ["tests", "-q"]
    sys.path.insert(0, str(ROOT / "src"))
    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(["-p", "no:cacheprovider", *args])
    for entry in report(tracer.lines):
        print(entry)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
