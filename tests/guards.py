"""Guard gate: every ``raise`` and every ``except`` handler in ``src/lisnet`` runs in tier-1.

A guard that no test reaches may be dead or may be wrong, and the suite
cannot tell which. This runner finds the ``raise`` statements and the
``except`` handlers of ``src/lisnet`` with ``ast``, then runs tier-1 in this
process under ``sys.settrace``, tracing line events only in frames whose
code lives in ``src/lisnet``. A ``raise`` counts as reached when its line
runs, a handler when the first statement of its body runs. Lines run only
in a subprocess that a test starts are not seen.

Run from anywhere with the test dependencies installed (the runner itself
uses only the standard library)::

    python tests/guards.py

Tracing makes tier-1 several times slower. Exit status 0 when every guard
ran or is in ``ALLOWED``, 1 when one did not, when an ``ALLOWED`` entry
matches no guard, or when tier-1 fails.
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

# Guards that tier-1 cannot reach by design, keyed by file (relative to the
# project root) and the stripped first line of the ``raise`` or ``except``.
# Each value says why; an entry is for a guard no public entry point can
# reach, never for one that merely lacks a test.
ALLOWED: dict[tuple[str, str], str] = {}


def guards() -> dict[tuple[str, int], tuple[str, str]]:
    """Every guard: (file, line that must run) -> (file relative to root, its first line)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        name = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(source, str(path))):
            if isinstance(node, ast.Raise):
                must_run = node.lineno
            elif isinstance(node, ast.ExceptHandler):
                must_run = node.body[0].lineno
            else:
                continue
            found[(str(path), must_run)] = (name, lines[node.lineno - 1].strip())
    return found


def main() -> int:
    targets = guards()
    lines_of: dict[str, set[int]] = {}
    for filename, line in targets:
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
    for key, (name, text) in sorted(targets.items()):
        if key in ran:
            continue
        if (name, text) in ALLOWED:
            allowed_seen.add((name, text))
            continue
        failures.append(f"{name}:{key[1]}: never ran: {text}")
    for name, text in sorted(ALLOWED.keys() - allowed_seen):
        failures.append(f"{name}: allowed but not an unreached guard: {text}")
    for failure in failures:
        print(f"FAIL {failure}")
    reached = len(ran & targets.keys())
    print(f"{reached} of {len(targets)} guards ran; {len(allowed_seen)} allowed unreached")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
