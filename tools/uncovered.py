"""List the statements of a package that a test run never executes.

Runs pytest in this process with a line tracer (``sys.settrace`` and
``threading.settrace``) on the files under a source path, then prints
``file:line: statement`` for each statement that ``ast`` finds there and
that never ran. Docstrings, ``def``, ``class`` and imports are left out. A
compound statement counts as run when a line of its header or its first
body statement ran, so a ``try:`` or ``while True:`` that compiles to no
line event of its own is not listed. Standard library and pytest only.

pytest reports to stderr, and its exit status, printed last there, does not
decide this tool's, as a test may fail under a tracer alone. Run from the
repository root (the whole of ``tests`` takes minutes under the tracer):

    python3 tools/uncovered.py
    python3 tools/uncovered.py --source src/permdec/cartesian.py -- -q tests/test_cartesian.py
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree):
    """Each statement of the module tree that is not a docstring, def, class or import."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str):
            continue
        yield node


def ran(node, lines):
    """Whether a line of the statement's header, or its first body statement, ran."""
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if body else node.end_lineno
    return any(n in lines for n in range(node.lineno, last + 1)) or bool(body) and ran(body[0], lines)


def traced_run(files, pytest_args):
    """pytest's exit status and the lines run in each of files, by a line tracer; one
    local trace function per file, so tracing makes no garbage per frame."""
    import pytest

    lines = {f: set() for f in files}
    local_of = {}  # co_filename -> the local tracer of a file in files, or None

    def local_for(ran):
        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_of:
            ran = lines.get(os.path.realpath(name))
            local_of[name] = None if ran is None else local_for(ran)
        return local_of[name]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), lines


def uncovered(source, pytest_args):
    """pytest's exit status and the ``file:line: statement`` entries that never ran."""
    source = Path(os.path.realpath(source))
    files = sorted(source.rglob("*.py")) if source.is_dir() else [source]
    top = source if source.is_dir() else source.parent
    while (top / "__init__.py").exists():  # import the traced files, not another copy
        top = top.parent
    sys.path.insert(0, str(top))
    status, lines = traced_run([str(f) for f in files], pytest_args)
    out = []
    for f in files:
        text = f.read_text()
        source_lines = text.splitlines()
        shown = os.path.relpath(f)
        for node in sorted(statements(ast.parse(text)), key=lambda n: n.lineno):
            if not ran(node, lines[str(f)]):
                out.append(f"{shown}:{node.lineno}: {source_lines[node.lineno - 1].strip()}")
    return status, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--source", default=ROOT / "src" / "permdec",
                        help="a file, or a directory whose .py files are traced")
    parser.add_argument("pytest_args", nargs="*", default=["-q", "-p", "no:cacheprovider",
                                                           str(ROOT / "tests")])
    args = parser.parse_args(argv)
    status, out = uncovered(args.source, args.pytest_args)
    print("\n".join(out))
    print(f"pytest exit status: {status}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
