"""Line gate: every statement line in a function body in ``src/lisnet`` runs in tier-1.

A line that no test reaches may be dead or may be wrong, and the suite
cannot tell which; a ``raise`` or an ``except`` handler that never runs is
the commonest case. This runner finds the statements of every function body
in ``src/lisnet`` with ``ast``, then runs tier-1 in this process under
``sys.settrace``, tracing line events only in frames whose code lives in
``src/lisnet``. A statement counts as reached when its first line runs. Not
counted: a function's docstring, the header of a ``def`` or ``class`` nested
in a body (its own body counts), and an annotation without a value, which
compiles to nothing. Lines run only in a subprocess that a test starts are
not seen.

Run from anywhere with the test dependencies installed (the runner itself
uses only the standard library)::

    python tests/guards.py

Tracing makes tier-1 several times slower. Exit status 0 when every line
ran or is in ``ALLOWED``, 1 when one did not, when an ``ALLOWED`` entry
matches no unreached line, or when tier-1 fails.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lisnet"
TIER1 = ("-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")

# Lines that tier-1 cannot reach by design, keyed by file (relative to the
# project root) and the stripped line. Each value says why; an entry is for a
# line no public entry point can reach, never for one that merely lacks a test.
ALLOWED: dict[tuple[str, str], str] = {}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(node: ast.AST):
    """The statements under ``node``, without those of nested definitions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            continue
        if isinstance(child, ast.stmt):
            yield child
        yield from statements(child)


def targets() -> dict[tuple[str, int], tuple[str, str]]:
    """Every line that must run: (file, line) -> (file relative to root, the line)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        name = path.relative_to(ROOT).as_posix()
        for func in ast.walk(ast.parse(source, str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            docstring = func.body[0] if ast.get_docstring(func) is not None else None
            for stmt in statements(func):
                if stmt is docstring or (isinstance(stmt, ast.AnnAssign) and stmt.value is None):
                    continue
                found[(str(path), stmt.lineno)] = (name, lines[stmt.lineno - 1].strip())
    return found


def main() -> int:
    must_run = targets()
    lines_of: dict[str, set[int]] = {}
    for filename, line in must_run:
        lines_of.setdefault(filename, set()).add(line)
    ran = set()

    # one local tracer for every frame: a closure made per call would refer to
    # itself, and leave a reference cycle per traced call for the collector
    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines_of[frame.f_code.co_filename]:
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in lines_of else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(TIER1))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"tier-1 failed (pytest exit {code}); the gate proves nothing")
        return 1
    failures = []
    allowed_seen = set()
    for key, (name, text) in sorted(must_run.items()):
        if key in ran:
            continue
        if (name, text) in ALLOWED:
            allowed_seen.add((name, text))
            continue
        failures.append(f"{name}:{key[1]}: never ran: {text}")
    for name, text in sorted(ALLOWED.keys() - allowed_seen):
        failures.append(f"{name}: allowed but not an unreached line: {text}")
    for failure in failures:
        print(f"FAIL {failure}")
    reached = len(ran & must_run.keys())
    print(f"{reached} of {len(must_run)} lines ran; {len(allowed_seen)} allowed unreached")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
