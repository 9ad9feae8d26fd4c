"""The benchmark's workloads: the ``lisnet`` command line each one drives.

Every workload is an argument vector for ``lisnet.cli.main`` plus what its
output checks expect. The program only ever sees generated inputs: the
built-in six-unit day takes the workload seed through ``--seed``, and the
1,000-unit fleet is written to a YAML scenario from the seed before any run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

DAY = "day"
CYCLE = "cycle"

# The built-in scenario dispatches every 60 s from hour 0 to hour 8.
DAY_INSTANTS = 481
DAY_DEMAND_W = 7000.0
DAY_BAND_W = 150.0

FLEET_N = 1000
CYCLE_AT_HOURS = 4.0
# The sunny-day profile holds 1 kW from hour 3 to hour 5, so a renewable's
# window at hour 4 is [1000 - epsilon, 1000] with the default epsilon of 1 W.
SUNNY_DAY = [[0.0, 0.0], [3.0, 1000.0], [5.0, 1000.0], [8.0, 0.0]]
RES_WINDOW = (999.0, 1000.0)


@dataclass(frozen=True)
class Workload:
    """One workload's command line, without ``--out-dir``, and its checks."""

    name: str
    kind: str  # DAY drives ``run_day``; CYCLE drives the single-cycle path
    argv: tuple[str, ...]
    day_instants: int | None = None  # DAY only: dispatch instants expected


def make_workload(name: str, seed: int, work_dir: Path) -> Workload:
    """Build workload ``name`` for ``seed``; generated inputs go to ``work_dir``."""
    if name == "day":
        return Workload(name, DAY, ("run", "--seed", str(seed)), DAY_INSTANTS)
    if name == "day-trace":
        return Workload(
            name, DAY, ("run", "--seed", str(seed), "--verbose-trace"), DAY_INSTANTS
        )
    if name == "cycle-1k":
        doc = fleet_scenario(seed, FLEET_N)
        path = work_dir / f"cycle-1k-seed{seed}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        argv = ("run", "--config", str(path), "--cycle-only", "--at-hours", str(CYCLE_AT_HOURS))
        return Workload(name, CYCLE, argv)
    raise ValueError(f"unknown workload {name!r}")


def fleet_scenario(seed: int, n: int) -> dict:
    """A seeded n-unit fleet scenario in the ``lisnet run --config`` schema.

    The graph is a random recursive spanning tree (unit i attaches to a
    uniform earlier unit) plus distinct uniform extra edges up to exactly
    n - 1 + n // 2 edges, so every seed gets the same edge count. A tenth of
    the units are renewable on the sunny-day profile; the rest have
    pi_min ~ U(0, 500) W and a span ~ U(50, 2000) W. The demand is the fleet
    floor at the cycle instant plus 60% of the fleet span, circulated at
    unit 1.
    """
    rng = random.Random(seed)
    nodes = list(range(1, n + 1))
    edges = {(rng.randrange(1, i), i) for i in range(2, n + 1)}
    while len(edges) < n - 1 + n // 2:
        a, b = rng.sample(nodes, 2)
        edges.add((min(a, b), max(a, b)))
    renewable = set(rng.sample(nodes, n // 10))
    fleet = []
    floor = span = 0.0
    for uid in nodes:
        if uid in renewable:
            fleet.append({"id": uid, "kind": "res", "profile": SUNNY_DAY})
            lo, hi = RES_WINDOW
        else:
            lo = rng.uniform(0.0, 500.0)
            hi = lo + rng.uniform(50.0, 2000.0)
            fleet.append({"id": uid, "kind": "non_res", "pi_min": lo, "pi_max": hi})
        floor += lo
        span += hi - lo
    return {
        "name": f"fleet-{n}-seed{seed}",
        "seed": seed,
        "rho": 0.02,
        "tau_bar": 3,
        "graph": {"nodes": nodes, "edges": [list(e) for e in sorted(edges)]},
        "delay": {"model": "stochastic"},
        "demand": {"watts": floor + 0.6 * span, "circulation": [1]},
        "fleet": fleet,
    }
