"""Mutation gate: every mutant in ``MUTANTS`` must make tier-1 fail.

Each row changes one exact snippet of ``src/`` (one or more whole lines,
found exactly once in its file) and says why the change is not equivalent,
that is, which behaviour a correct suite must see break. The runner copies
the project's ``src/``, ``tests/``, ``configs/`` and ``pyproject.toml`` into
a temporary directory, checks that tier-1 passes there unmutated, then
applies each mutant in turn and runs tier-1 with ``-x``. The checkout is
never edited. A mutant's run that takes ``TIMEOUT_FACTOR`` times as long as
the unmutated run is stopped and counts as killed: a mutant that keeps
cycles from freezing would otherwise run each to its step cap for hours.

Run from anywhere with the test dependencies installed (the runner itself
uses only the standard library)::

    python tests/mutants.py

Exit status 0 when every mutant is killed or times out, 1 when one
survives, when a row's snippet is not found exactly once, or when the
unmutated copy fails.
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
TIMEOUT_FACTOR = 10


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
        '                raise ProtocolError(f"frozen node {self.node} received traffic")\n',
        "                pass\n",
        "a split freeze goes unreported: the frozen node drops its neighbour's "
        "shares, so the audit reports a mass leak instead",
    ),
    Mutant(
        "src/lisnet/termination.py",
        "    if not (math.isfinite(r) and math.isfinite(s)):\n",
        "    if False:\n",
        "an infinite or NaN state is stored instead of rejected",
    ),
    Mutant(
        "src/lisnet/termination.py",
        "    if s <= 0.0:\n",
        "    if False:\n",
        "a zero or negative denominator is stored instead of rejected",
    ),
    Mutant(
        "src/lisnet/scenario.py",
        "        if self.dispatch_period < self.consensus_period:\n",
        "        if False:\n",
        "a dispatch period shorter than one consensus iteration loads, so even "
        "a cycle of one step overruns it",
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
    Mutant(
        "src/lisnet/termination.py",
        "        if sent >= since:\n",
        "        if sent > since:\n",
        "extremes sent at the first step of a checkpoint period are dropped as "
        "stale, so nodes test different extremes and the default day splits "
        "its freeze: a frozen node receives traffic",
    ),
    Mutant(
        "src/lisnet/termination.py",
        "    if term.z - term.y < rho:\n",
        "    if term.z - term.y <= rho:\n",
        "with rho 0 a node whose extremes agree freezes, so plain averaging "
        "stops at a checkpoint and a live neighbour's traffic raises",
    ),
    Mutant(
        "src/lisnet/termination.py",
        "        return self.diameter * (1 + self.tau_bar) + self.tau_bar\n",
        "        return self.diameter * (1 + self.tau_bar)\n",
        "without the flush allowance the last epoch's extremes miss the "
        "checkpoint: the default day's worst cycle needs 5 checkpoints, above "
        "the six-LIS suite's bound",
    ),
    Mutant(
        "src/lisnet/netsim.py",
        "        if mailbox.oldest_age(k) > self.delay_model.tau_bar:\n",
        "        if mailbox.oldest_age(k) > self.delay_model.tau_bar + 1:\n",
        "an envelope held one step past the delay bound goes unreported",
    ),
    Mutant(
        "src/lisnet/netsim.py",
        "        if caps:\n",
        "        if False:\n",
        "per-edge delay bounds are ignored: a capped edge draws delays up to tau_bar",
    ),
    Mutant(
        "src/lisnet/apportioning.py",
        "    return min(max(r_star / s_star, 0.0), 1.0)\n",
        "    return r_star / s_star\n",
        "a quotient above 1 commands more than a unit's upper bound: 2400 W "
        "for a 2000 W unit",
    ),
    Mutant(
        "src/lisnet/netsim.py",
        "CONSERVATION_TOL = 1e-9\n",
        "CONSERVATION_TOL = 1.0\n",
        "a mass leak above 1e-9 relative passes the audit",
    ),
    Mutant(
        "src/lisnet/topology.py",
        "    return {j: 1.0 / (g.degree(j) + 1) for j in g.nodes}\n",
        "    return {j: 1.0 / (g.degree(j) + 2) for j in g.nodes}\n",
        "the weights leaving a node sum to (deg + 1)/(deg + 2), so mass leaks "
        "at the first step and the audit raises",
    ),
    Mutant(
        "src/lisnet/cli.py",
        "                if len(mapping) == len(node.value):  # no key repeated, merged or not\n",
        "                if True:\n",
        "a key written twice in a scenario document loads, and its last value wins",
    ),
    Mutant(
        "src/lisnet/termination.py",
        "        if self.frozen:\n            return []\n",
        "        if False:\n            return []\n",
        "a frozen node keeps sending shares it never absorbs back, so mass appears",
    ),
    Mutant(
        "src/lisnet/cli.py",
        "    if isinstance(value, int) and not isinstance(value, bool):\n        return value\n",
        "    if isinstance(value, (int, str)) and not isinstance(value, bool):\n"
        "        return int(value)\n",
        "a quoted integer such as seed: \"7\" loads as the number 7",
    ),
    Mutant(
        "src/lisnet/cli.py",
        '        _distinct(edges, "graph edge", lambda edge: edge_key(*edge))\n',
        "        pass\n",
        "an edge listed twice, as [1, 6] and [6, 1], loads silently",
    ),
    Mutant(
        "src/lisnet/netsim.py",
        "        if gap > rho:\n",
        "        if False:\n",
        "a cycle whose commands leave their rho budgets returns them: the "
        "two-unit fleet dispatches 284.472 W of 300 W and exits 0",
    ),
    Mutant(
        "src/lisnet/cli.py",
        '            failures.append(f"instance {case}: {exc}")\n',
        "            pass\n",
        "oracle-sweep drops its failed instances: seed 2 passes with instance "
        "185 1.227 rho spans from the closed form",
    ),
    Mutant(
        "src/lisnet/scenario.py",
        "            trace_chunks.append(instant_rows(index, result.trace_rows, commands, delivered))\n",
        "            trace_chunks.extend(\n"
        "                instant_rows(index, result.trace_rows, commands, delivered)\n"
        "                .splitlines(keepends=True)\n"
        "            )\n",
        "a verbose day holds every trace line as its own bytes object again, "
        "135,494 of them on the default day; the files stay the same",
    ),
    Mutant(
        "src/lisnet/scenario.py",
        "        overrun = result is not None and result.steps > budget\n",
        "        overrun = result is not None and result.steps >= budget\n",
        "a cycle of exactly the dispatch period's steps is flagged as an overrun: "
        "28 theta-4 instants of 60 steps on the default day, the first two in "
        "TestResultsDigests' seven-instant day",
    ),
    Mutant(
        "src/lisnet/netsim.py",
        "        if was_enabled:\n            gc.enable()\n",
        "        if was_enabled:\n            pass\n",
        "the cyclic collector stays off after the first cycle, for the rest of a "
        "library caller's process",
    ),
    Mutant(
        "src/lisnet/netsim.py",
        "        with collector_paused():\n            while self._frozen != n:\n",
        "        if True:\n            while self._frozen != n:\n",
        "the collector rescans the loop's envelopes: a 200-unit cycle collects 5 "
        "times inside its steps",
    ),
    Mutant(
        "src/lisnet/scenario.py",
        "        if first_checkpoint > budget:\n",
        "        if False:\n",
        "a scenario whose first checkpoint lies past the dispatch budget loads: "
        "diameter 1e9 then runs for hours before any node can freeze, and "
        "--tau-bar 40 runs all 481 instants over budget and exits 0",
    ),
)


def tier1(tree: Path, timeout: float | None = None) -> str:
    """Tier-1's verdict in ``tree``: passed, failed or timed out; its output is dropped."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p
    )
    try:
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


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
        started = time.perf_counter()
        if tier1(tree) != "passed":
            print("tier-1 fails without any mutant; the gate proves nothing")
            return 1
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - started)
        print(f"unmutated: passed; each mutant may take {timeout:.0f} s")
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
                verdict = tier1(tree, timeout)
            finally:
                target.write_text(original)
            verdict = {"passed": "SURVIVED", "failed": "killed"}.get(verdict, verdict)
            print(f"{label}: {verdict} in {time.perf_counter() - started:.1f} s")
            if verdict == "SURVIVED":
                failures.append(f"{label} survived; expected: {mutant.why}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
