"""Mutation gate: every mutant in ``MUTANTS`` must make tier-1 fail.

Each row changes one exact snippet of ``src/`` (one or more whole lines,
found exactly once in its file) and says why the change is not equivalent,
that is, which behaviour a correct suite must see break. The runner copies
the project's ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` into
a temporary directory, checks that tier-1 passes there unmutated, then
applies each mutant in turn and runs tier-1 with ``-x``. The checkout is
never edited.

Run from anywhere with the test dependencies installed (the runner itself
uses only the standard library)::

    python tests/mutants.py

Exit status 0 when every mutant is killed, 1 when one survives, when a
row's snippet is not found exactly once, or when the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")


class Mutant(NamedTuple):
    file: str
    line: str
    replacement: str
    why: str


MUTANTS = (
    Mutant(
        "src/lisnet/scenario.py",
        "        d_bound = max(d_bound, diameter_bound)\n",
        "        d_bound = d_bound\n",
        "a bound above the participants' diameter no longer lengthens the "
        "checkpoint period: instant 240 under a bound of 6 runs theta 3 in 45 "
        "steps instead of theta 2 in 54",
    ),
    Mutant(
        "src/lisnet/scenario.py",
        "or frozenset(participants[:1])",
        "or frozenset(participants[-1:])",
        "the demand circulates at the highest participant: instant 0 of the "
        "default day totals 7000.8487 W instead of 7001.2419 W",
    ),
    Mutant(
        "src/lisnet/termination.py",
        '                raise ProtocolError(f"frozen node {self.state.node} received traffic")\n',
        "                pass\n",
        "a split freeze goes unreported: the frozen node drops its neighbour's "
        "shares, so the audit reports a mass leak instead",
    ),
    Mutant(
        "src/lisnet/consensus.py",
        "    if not (math.isfinite(r) and math.isfinite(s)):\n",
        "    if False:\n",
        "an infinite or NaN state is stored instead of rejected",
    ),
    Mutant(
        "src/lisnet/consensus.py",
        "    if s <= 0.0:\n",
        "    if False:\n",
        "a zero or negative denominator is stored instead of rejected",
    ),
    Mutant(
        "src/lisnet/scenario.py",
        "        if self.dispatch_period < self.consensus_period:\n",
        "        if False:\n",
        "a dispatch period shorter than one consensus iteration loads, with an "
        "iteration budget of 0",
    ),
    Mutant(
        "src/lisnet/scenario.py",
        "    if not participants:\n",
        "    if False:\n",
        "an instant where no unit offers capacity is reported as a demand "
        "outside [0, 0] W instead of by its cause",
    ),
    Mutant(
        "src/lisnet/cli.py",
        '        print(f"run failed: {exc}", file=sys.stderr)\n        return 1\n',
        '        print(f"run failed: {exc}", file=sys.stderr)\n        return 0\n',
        "a run that breaks an invariant exits 0, as if it had succeeded",
    ),
)


def tier1(tree: Path) -> bool:
    """Whether tier-1 passes in ``tree``; its output is dropped."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *TIER1], cwd=tree, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="lisnet-mutants-") as scratch:
        tree = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / name)
        if not tier1(tree):
            print("tier-1 fails without any mutant; the gate proves nothing")
            return 1
        for number, mutant in enumerate(MUTANTS, 1):
            target = tree / mutant.file
            original = target.read_text()
            label = f"mutant {number} ({mutant.file}: {mutant.line.strip()!r})"
            if original.count(mutant.line) != 1:
                failures.append(f"{label}: snippet not found exactly once")
                print(failures[-1])
                continue
            target.write_text(original.replace(mutant.line, mutant.replacement))
            started = time.perf_counter()
            try:
                survived = tier1(tree)
            finally:
                target.write_text(original)
            verdict = "SURVIVED" if survived else "killed"
            print(f"{label}: {verdict} in {time.perf_counter() - started:.1f} s")
            if survived:
                failures.append(f"{label} survived; expected: {mutant.why}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
