"""One workload iteration: time ``lisnet.cli.main``, then check its outputs.

A thin timer wraps ``run_cycle`` where ``lisnet.scenario`` and ``lisnet.cli``
look it up. It costs two clock reads per cycle and keeps, per cycle, the
problem, the threshold and the commands, so the checks can run after the
timed call. A cycle fails when it raises, when a command leaves its window,
when |sum of commands - demand| exceeds rho times the total span, when a
node is more than rho times its span from the closed-form apportionment, or
when the conservation error exceeds 1e-9. A day also fails every instant
that was infeasible or delivered more than 150 W away from 7 kW.

An untraced iteration also runs ``hostspeed.Sampler``: its reference chunks
are taken out of the wall and cycle times, and each time is also given
normalized to the nominal host speed over the interval it covers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping

import lisnet.cli

from hostspeed import Sampler
from tracer import Tracer, TargetMissing, patch
from workloads import DAY, DAY_BAND_W, DAY_DEMAND_W, Workload

CONSERVATION_TOL = 1e-9
EXIT_TARGET_MISSING = 3


@dataclass
class Cycle:
    """One ``run_cycle`` call as the checks need it."""

    seconds: float  # without the reference chunks that ran inside it
    start: float = 0.0
    end: float = 0.0
    problem: Any = None
    rho: float = 0.0
    commands: Mapping[int, float] | None = None
    steps: int = 0
    theta: int = 0
    conservation_error: float = 0.0
    edges: int = 0
    diameter: int = 0
    error: str | None = None


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class CycleTimer:
    """Times each dispatch cycle where the program calls ``run_cycle``."""

    def __init__(self, sampler: Sampler | None = None):
        self.cycles: list[Cycle] = []
        self._undo = []
        self._sampler = sampler

    def install(self) -> None:
        for owner in ("lisnet.scenario", "lisnet.cli"):
            self._undo.append(patch(owner, "run_cycle", self._wrap))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def paused(self) -> float:
        """Wall time spent in reference chunks so far."""
        return self._sampler.paused if self._sampler is not None else 0.0

    def _wrap(self, fn):
        cycles, paused = self.cycles, self.paused

        def timed(*args, **kwargs):
            p0 = paused()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                cycles.append(Cycle(perf_counter() - t0 - (paused() - p0), error=repr(exc)))
                raise
            t1 = perf_counter()
            cycles.append(
                Cycle(
                    t1 - t0 - (paused() - p0),
                    t0,
                    t1,
                    problem=_arg(args, kwargs, 2, "problem"),
                    rho=_arg(args, kwargs, 5, "rho"),
                    commands=result.commands.commands,
                    steps=result.steps,
                    theta=result.theta,
                    conservation_error=result.max_conservation_error,
                    edges=len(_arg(args, kwargs, 0, "graph").edges),
                    diameter=_arg(args, kwargs, 4, "schedule").diameter,
                )
            )
            return result

        return timed


def cycle_failures(cycle: Cycle) -> list[str]:
    """Why one cycle's commands break the paper's invariants; empty if none."""
    if cycle.error is not None:
        return [f"cycle raised {cycle.error}"]
    problem, rho, commands = cycle.problem, cycle.rho, cycle.commands
    bounds = dict(problem.bounds)
    if set(commands) != set(bounds):
        return [f"commands cover {sorted(commands)}, problem has {sorted(bounds)}"]
    floor = sum(lo for lo, _ in bounds.values())
    span = sum(hi - lo for lo, hi in bounds.values())
    q = (problem.rho_d - floor) / span
    out = []
    for i, (lo, hi) in sorted(bounds.items()):
        command = commands[i]
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not lo - slack <= command <= hi + slack:
            out.append(f"node {i}: command {command!r} outside [{lo!r}, {hi!r}]")
        if abs(command - (lo + q * (hi - lo))) > rho * (hi - lo):
            out.append(f"node {i}: command {command!r} beyond rho*span of the closed form")
    total = sum(commands.values())
    if abs(total - problem.rho_d) > rho * span:
        out.append(f"total command {total!r} beyond rho*span of demand {problem.rho_d!r}")
    if not cycle.conservation_error <= CONSERVATION_TOL:
        out.append(f"conservation error {cycle.conservation_error!r}")
    return out


def day_failures(results: Mapping, cycles: list[Cycle], instants: int) -> list[list[str]]:
    """Failure reasons per dispatch instant of a day's ``results.json``."""
    per_cycle = results["per_cycle"]
    if len(per_cycle) != instants:
        return [[f"{len(per_cycle)} dispatch instants, expected {instants}"]] * instants
    feasible = [rec for rec in per_cycle if rec["feasible"]]
    if len(feasible) != len(cycles):
        return [[f"{len(cycles)} cycles ran for {len(feasible)} feasible instants"]] * instants
    out = []
    ran = iter(cycles)
    for rec in per_cycle:
        reasons = cycle_failures(next(ran)) if rec["feasible"] else ["infeasible"]
        if abs(rec["total_delivered"] - DAY_DEMAND_W) > DAY_BAND_W:
            reasons.append(f"delivered {rec['total_delivered']!r} W outside 7 kW +- 150 W")
        out.append([f"instant {rec['index']}: {r}" for r in reasons])
    return out


def file_digest(path: Path) -> str | None:
    # Imported here, after peak memory is read: hashlib loads OpenSSL (~3.5 MB).
    import hashlib

    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with path.open("rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def run_iteration(workload: Workload, out_dir: Path, trace: bool) -> dict:
    """Run the workload once in this process and return what it measured."""
    sampler = None if trace else Sampler()
    timer = CycleTimer(sampler)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    timer.install()
    try:
        if sampler is not None:
            sampler.start()
        p0 = timer.paused()
        t0 = perf_counter()
        try:
            code = lisnet.cli.main([*workload.argv, "--out-dir", str(out_dir)])
        except Exception:  # a raw traceback fails the iteration, not the benchmark
            code = traceback.format_exc()
        wall = perf_counter() - t0 - (timer.paused() - p0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if sampler is not None:
            sampler.stop()
        timer.uninstall()
        if tracer is not None:
            tracer.uninstall()

    cycles = timer.cycles
    if workload.kind == DAY:
        attempted = workload.day_instants
        results_path = out_dir / "results.json"
        if code == 0 and results_path.is_file():
            results = json.loads(results_path.read_text())
            per_instant = day_failures(results, cycles, attempted)
        else:
            per_instant = [[f"lisnet exited with {code!r}"]] * attempted
    else:
        attempted = 1
        if code != 0:
            per_instant = [[f"lisnet exited with {code!r}"]]
        elif len(cycles) != 1:
            per_instant = [[f"{len(cycles)} cycles ran, expected 1"]]
        else:
            per_instant = [cycle_failures(cycles[0])]
    reasons = [r for rs in per_instant for r in rs]
    facts = {
        "cycles": len(cycles),
        "n_max": max((len(c.commands or ()) for c in cycles), default=0),
        "edges_max": max((c.edges for c in cycles), default=0),
        "diameter_max": max((c.diameter for c in cycles), default=0),
        "steps": sum(c.steps for c in cycles),
        "theta_max": max((c.theta for c in cycles), default=0),
    }
    out = {
        "wall_s": wall,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": sum(1 for rs in per_instant if rs),
        "reasons": reasons[:5],
        "cycle_ms": [c.seconds * 1e3 for c in cycles],
        "node_steps": sum(c.steps * len(c.commands or ()) for c in cycles),
        "digests": [file_digest(out_dir / "results.json"), file_digest(out_dir / "trace.csv")],
        "facts": facts,
    }
    if sampler is not None:
        out["speed"] = sampler.mean_speed()
        out["wall_norm_s"] = wall * out["speed"]
        out["cycle_norm_ms"] = [
            c.seconds * 1e3 * sampler.mean_speed(c.start, c.end) for c in cycles
        ]
    if tracer is not None:
        layers = tracer.layer_metrics()
        # A program that failed need not reach every target; its failure is
        # already counted above, so only a run that succeeded must reach them.
        if code == 0:
            tracer.check_hit(workload.kind)
            if layers["netsim.audits"] != layers["netsim.steps"] + tracer.cycles():
                out["failed"] = attempted
                out["reasons"].append("per-step audit count is not steps + cycles")
        out["layers"] = layers
        out["spans"] = tracer.spans
    return out


def main(argv: list[str], imported: float) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    source = (args.root / "src").resolve()
    if not Path(lisnet.cli.__file__).resolve().is_relative_to(source):
        print(f"lisnet imported from {lisnet.cli.__file__}, not {source}", file=sys.stderr)
        return 2
    out: dict[str, Any] = {"setup_s": imported - args.spawned}
    if not args.probe:
        spec = json.loads(args.workload)
        workload = Workload(**{**spec, "argv": tuple(spec["argv"])})
        try:
            out.update(run_iteration(workload, args.out_dir, bool(args.trace)))
        except TargetMissing as exc:
            print(f"traced run cannot measure its layers: {exc}", file=sys.stderr)
            return EXIT_TARGET_MISSING
    args.result.write_text(json.dumps(out))
    return 0
