"""Run every workload of BENCHMARK.json, untraced then traced, in one command.

Run from the repository root:

    python3 perfbench/suite.py [--save LABEL]

Each run is ``perfbench/run.py`` in its own process, exactly as a single
benchmark run, on seed 0 for ``run_seconds`` of BENCHMARK.json, so that
every trajectory point measures the same inputs for the same time. The suite
prints every metric by workload, name and unit.
``--save LABEL`` also writes the runs, with the machine they ran on, to
``perfbench/trajectory/BENCH_<LABEL>.json``: one point of the trajectory
that performance changes cite.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="LABEL")
    args = parser.parse_args()
    design = json.loads(Path("BENCHMARK.json").read_text())
    seconds = design["run_seconds"]
    runs = []
    ok = True
    for trace in (0, 1):
        for workload in design["workloads"]:
            cmd = [sys.executable, *design["command"][1:], "--workload", workload["name"]]
            cmd += ["--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload['name']} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            record = json.loads(lines[0].removeprefix("# "))
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append({"record": record, "result": result})
            print(f"== {workload['name']} (trace {trace}, seed {SEED}, {seconds} s)")
            print("\n".join(lines[1:-1]))
    if args.save:
        path = HERE / "trajectory" / f"BENCH_{args.save}.json"
        path.parent.mkdir(exist_ok=True)
        point = {"label": args.save, "seed": SEED, "seconds": seconds, "runs": runs}
        path.write_text(json.dumps(point, indent=1) + "\n")
        print(f"saved {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
