"""lisnet benchmark: one workload for a fixed time, every iteration checked.

Run from the root of a lisnet checkout:

    python3 perfbench/run.py --workload day --seed 0 --seconds 40 --trace 0

Each iteration runs ``lisnet.cli.main(argv)`` in a fresh interpreter that
imports the checkout's ``src/`` (``worker.py``), so set-up time and peak
memory belong to that one run. ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics and the tracing overhead.
Untraced times are corrected for the host's speed (``hostspeed.py``); the
wall-clock figures are printed too, without a bound. Iterations start while
the time left covers the longest one so far. The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count dispatch instants (cycles), and ``metrics`` maps each
metric to its value and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from workloads import make_workload

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
WARMUP_PROBES = 1  # compiles the checkout's bytecode, which users pay once
SETUP_PROBES = 12
WORKER_TIMEOUT_S = 150
HARD_STOP_S = 120  # no new iteration after this, to end well within 180 s


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here; no result is printed."""


def spawn(args: list[str], result: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned", repr(spawned)]
    cmd += ["--root", str(ROOT), "--result", str(result), *args]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(result.read_text())


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(ROOT),
    }


def count_mismatches(plain: dict, traced: dict) -> list[str]:
    """Counts of a traced iteration that differ from an untraced one of one seed.

    The untraced counts come from the cycle timer, which reads them off the
    program's own results, so the check holds even when a run has time for
    one traced iteration only.
    """
    layers, facts = traced["layers"], plain["facts"]
    expected = {
        "netsim.steps": facts["steps"],
        "netsim.node_steps": plain["node_steps"],
        "termination.theta_max": facts["theta_max"],
    }
    return [
        f"{key} = {layers[key]!r} traced, {want!r} untraced"
        for key, want in expected.items()
        if layers[key] != want
    ]


def run(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    workload = make_workload(name, seed, run_dir)
    spec = json.dumps(asdict(workload))
    start = time.perf_counter()  # the probes count towards the run's seconds
    probes = 0 if trace else WARMUP_PROBES + SETUP_PROBES
    setups = [spawn(["--probe"], run_dir / "probe.json") for _ in range(probes)]
    del setups[:WARMUP_PROBES]

    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        for mode in (0, 1) if trace else (0,):
            out_dir = run_dir / f"it{len(plain) + len(traced)}"
            it = spawn(
                ["--workload", spec, "--out-dir", str(out_dir), "--trace", str(mode)],
                run_dir / "result.json",
            )
            (traced if mode else plain).append(it)
            shutil.rmtree(out_dir, ignore_errors=True)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        rounds = len(plain)
        if rounds >= (1 if trace else 2) and (
            now - start + longest > seconds or now - start > HARD_STOP_S
        ):
            break

    iterations = plain + traced
    attempted = sum(it["attempted"] for it in iterations)
    failed = 0
    reasons = []
    reference = plain[0]["digests"]
    for it in iterations:
        if it["digests"] != reference or None in it["digests"]:
            failed += it["attempted"]
            reasons.append("results.json or trace.csv differ between runs of one seed")
        else:
            failed += it["failed"]
        reasons += it["reasons"]

    for untraced, it in zip(plain, traced):
        mismatches = count_mismatches(untraced, it)
        if mismatches:
            failed = attempted
            reasons += [f"{m} in one round of one seed" for m in mismatches]

    walls = [it["wall_s"] for it in plain]
    cycle_ms = [ms for it in plain for ms in it["cycle_ms"]]
    cycle_norm_ms = [ms for it in plain for ms in it["cycle_norm_ms"]]
    if trace:
        metrics = {}
        layers = [it["layers"] for it in traced]
        for key in layers[0]:
            values = [layer[key] for layer in layers]
            if key.endswith("_s"):
                metrics[key] = statistics.median(values)
            else:
                metrics[key] = values[0]
                if any(v != values[0] for v in values):
                    failed = attempted
                    reasons.append(f"{key} differs between traced runs of one seed: {values}")
        metrics["trace_overhead_s"] = statistics.median(
            it["wall_s"] for it in traced
        ) - statistics.median(walls)
        spans = WORK / f"spans-{name}.json"
        spans.write_text(json.dumps(traced[-1]["spans"]))
    else:
        metrics = {
            # A set-up is too short to time chunks inside it; the run's host
            # speed corrects the drift between runs, which is what moves it.
            "setup_s": statistics.median(it["setup_s"] for it in setups + plain)
            * statistics.median(it["speed"] for it in plain),
            "wall_norm_s": statistics.median(it["wall_norm_s"] for it in plain),
            "node_steps_per_norm_s": statistics.median(
                it["node_steps"] / it["wall_norm_s"] for it in plain
            ),
            "cycle_p50_norm_ms": quantile(cycle_norm_ms, 50),
            "cycle_p95_norm_ms": quantile(cycle_norm_ms, 95),
            "peak_rss_mb": statistics.median(it["rss_mb"] for it in plain),
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "cycle_samples": len(cycle_ms),
        "wall_samples": [round(w, 4) for w in walls],
        "host_speeds": [round(it["speed"], 4) for it in plain],
        # Wall-clock figures as measured, without the host-speed correction;
        # printed, not bounded, because they drift with the host.
        "raw": {
            "setup_raw_s": statistics.median(it["setup_s"] for it in setups + plain),
            "wall_s": statistics.median(walls),
            "node_steps_per_s": statistics.median(it["node_steps"] / it["wall_s"] for it in plain),
            "cycle_p50_ms": quantile(cycle_ms, 50),
            "cycle_p95_ms": quantile(cycle_ms, 95),
        },
        "machine": machine(),
        "facts": plain[0]["facts"],
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:10],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # Turn a termination request into an exception, so that subprocess.run
    # kills and waits for the running worker on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    design = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in design["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "lisnet" / "cli.py").is_file():
        print(f"no lisnet source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    declared = design["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = record["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        print(f"measured {sorted(metrics)}, BENCHMARK.json declares otherwise", file=sys.stderr)
        return 1
    print(f"# {json.dumps({k: v for k, v in record.items() if k != 'metrics'})}")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        units = {
            "setup_raw_s": "s", "wall_s": "s", "node_steps_per_s": "1/s",
            "cycle_p50_ms": "ms", "cycle_p95_ms": "ms",
        }
        for key, value in record["raw"].items():
            print(f"{key} = {value:.6g} {units[key]} (wall clock, not bounded)")
    failed, attempted = record["failed"], record["attempted"]
    print(f"error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} cycles)")
    for reason in record["reasons"]:
        print(f"  failure: {reason}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
