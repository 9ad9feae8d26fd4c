"""Command-line front end: scenario configs, runs, traces, replication suites.

A scenario lives in one YAML document (schema documented in the README and
enforced strictly here: unknown keys are rejected, not ignored). Runs write
three artifacts into the output directory: ``trace.csv`` with one row per
node per checkpoint (per step with ``--verbose-trace``), ``results.json``
with the machine-readable outcome, and ``summary.txt`` for humans. Float
fields are printed with 17 significant digits so a rerun with the same
configuration and seed reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from .apportioning import ApportionProblem, closed_form_oracle
from .errors import ConfigurationError, LisnetError
from .netsim import DelayModel, run_naive_averaging, simulate_averaging
from .netsim import run_cycle  # noqa: F401  timed here by perfbench/iteration.py
from .scenario import (
    DispatchSchedule,
    Infeasible,
    LisUnit,
    PowerProfile,
    bounds_at,  # noqa: F401  traced here by perfbench/tracer.py
    day_instants,
    plan_instant,
    run_day,
    run_instant,
    six_lis_fleet,
)
from .topology import Graph, build_weights
from .topology import diameter  # noqa: F401  traced here by perfbench/tracer.py

TRACE_COLUMNS = (
    "cycle",
    "step",
    "node",
    "r",
    "s",
    "ratio",
    "z",
    "y",
    "theta",
    "frozen",
    "pi_star",
    "delivered_power",
)
TRACE_HEADER = "# lisnet-trace v1 columns=" + ",".join(TRACE_COLUMNS)

OUT_DIR_ENV = "LISNET_OUT_DIR"

SUITES = ("fig1-misconvergence", "six-lis-day", "oracle-sweep")


# ---------------------------------------------------------------------------
# configuration document


def _require_keys(section: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario, round-trippable to the YAML schema."""

    name: str
    seed: int
    rho: float
    diameter_bound: int | None
    graph: Graph
    delay: DelayModel
    circulation: frozenset[int]
    fleet: tuple[LisUnit, ...]
    dispatch: DispatchSchedule
    start_hours: float | None
    end_hours: float | None
    out_dir: str | None

    def __post_init__(self):
        if not 0 < self.rho < math.inf:
            raise ConfigurationError("rho must be finite and positive")

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ScenarioConfig":
        _require_keys(
            doc,
            {
                "name",
                "seed",
                "rho",
                "tau_bar",
                "diameter",
                "graph",
                "delay",
                "demand",
                "fleet",
                "dispatch",
                "output",
            },
            "scenario",
        )
        for key in ("graph", "demand", "fleet"):
            if key not in doc:
                raise ConfigurationError(f"scenario is missing required section {key!r}")
        tau_bar = int(doc.get("tau_bar", 3))

        gsec = doc["graph"]
        _require_keys(gsec, {"nodes", "edges", "delay_bounds"}, "graph")
        bounds = {}
        for key, cap in (gsec.get("delay_bounds") or {}).items():
            a, b = _parse_edge(key)
            bounds[(a, b)] = int(cap)
        graph = Graph.from_edges(
            [int(i) for i in gsec["nodes"]],
            [(int(a), int(b)) for a, b in gsec["edges"]],
            bounds,
        )

        dsec = doc.get("delay") or {"model": "stochastic"}
        _require_keys(dsec, {"model", "fixed_delays", "probabilities"}, "delay")
        model = dsec.get("model", "stochastic")
        if model == "fixed":
            fixed = {}
            for key, d in (dsec.get("fixed_delays") or {}).items():
                a, b = _parse_edge(key, directed=True)
                fixed[(a, b)] = int(d)
            delay = DelayModel.fixed(fixed, tau_bar=tau_bar)
        elif model == "stochastic":
            if dsec.get("fixed_delays"):
                raise ConfigurationError("fixed_delays requires delay.model: fixed")
            delay = DelayModel.stochastic(tau_bar, dsec.get("probabilities"))
        else:
            raise ConfigurationError(f"unknown delay model {model!r}")

        dem = doc["demand"]
        _require_keys(dem, {"watts", "shape", "circulation"}, "demand")
        if ("watts" in dem) == ("shape" in dem):
            raise ConfigurationError("demand needs exactly one of 'watts' or 'shape'")
        demand: float | PowerProfile
        if "watts" in dem:
            demand = float(dem["watts"])
        else:
            demand = PowerProfile(tuple((float(t), float(w)) for t, w in dem["shape"]))
        circulation = frozenset(int(i) for i in dem.get("circulation", []))
        if not circulation:
            raise ConfigurationError("demand.circulation must name at least one node")
        missing = circulation - set(graph.nodes)
        if missing:
            raise ConfigurationError(
                f"demand.circulation nodes {sorted(missing)} are not in the graph"
            )

        fleet = tuple(_parse_unit(u) for u in doc["fleet"])
        if sorted(u.uid for u in fleet) != sorted(graph.nodes):
            raise ConfigurationError("fleet ids must match graph nodes exactly")

        dis = doc.get("dispatch") or {}
        _require_keys(
            dis,
            {
                "consensus_period",
                "dispatch_period",
                "epsilon",
                "start_hours",
                "end_hours",
            },
            "dispatch",
        )
        dispatch = DispatchSchedule(
            demand=demand,
            consensus_period=float(dis.get("consensus_period", 1.0)),
            dispatch_period=float(dis.get("dispatch_period", 60.0)),
            epsilon=float(dis.get("epsilon", 1.0)),
        )

        osec = doc.get("output") or {}
        _require_keys(osec, {"directory"}, "output")

        return cls(
            name=str(doc.get("name", "scenario")),
            seed=int(doc.get("seed", 0)),
            rho=float(doc.get("rho", 0.02)),
            diameter_bound=int(doc["diameter"]) if "diameter" in doc else None,
            graph=graph,
            delay=delay,
            circulation=circulation,
            fleet=fleet,
            dispatch=dispatch,
            start_hours=float(dis["start_hours"]) if "start_hours" in dis else None,
            end_hours=float(dis["end_hours"]) if "end_hours" in dis else None,
            out_dir=osec.get("directory"),
        )

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "rho": self.rho,
            "tau_bar": self.delay.tau_bar,
        }
        if self.diameter_bound is not None:
            doc["diameter"] = self.diameter_bound
        doc["graph"] = {
            "nodes": list(self.graph.nodes),
            "edges": [list(e) for e in sorted(self.graph.edges)],
        }
        if self.graph.delay_bounds:
            doc["graph"]["delay_bounds"] = {
                f"{a}-{b}": v for (a, b), v in sorted(self.graph.delay_bounds.items())
            }
        dsec: dict[str, Any] = {"model": self.delay.kind}
        if self.delay.kind == "fixed":
            dsec["fixed_delays"] = {
                f"{a}->{b}": v for (a, b), v in sorted((self.delay.fixed_delays or {}).items())
            }
        elif self.delay.probabilities is not None:
            dsec["probabilities"] = list(self.delay.probabilities)
        doc["delay"] = dsec
        dem: dict[str, Any] = {}
        demand = self.dispatch.demand
        if isinstance(demand, PowerProfile):
            dem["shape"] = [list(p) for p in demand.points]
        else:
            dem["watts"] = demand
        dem["circulation"] = sorted(self.circulation)
        doc["demand"] = dem
        doc["fleet"] = [_unit_to_dict(u) for u in self.fleet]
        dis: dict[str, Any] = {
            "consensus_period": self.dispatch.consensus_period,
            "dispatch_period": self.dispatch.dispatch_period,
            "epsilon": self.dispatch.epsilon,
        }
        if self.start_hours is not None:
            dis["start_hours"] = self.start_hours
        if self.end_hours is not None:
            dis["end_hours"] = self.end_hours
        doc["dispatch"] = dis
        if self.out_dir is not None:
            doc["output"] = {"directory": self.out_dir}
        return doc

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        try:
            doc = yaml.safe_load(Path(path).read_text())
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{path}: top level must be a mapping")
        try:
            return cls.from_dict(doc)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(yaml.safe_dump(self.to_dict(), sort_keys=False))


def _parse_edge(key: str, directed: bool = False) -> tuple[int, int]:
    sep = "->" if directed else "-"
    parts = str(key).replace(" ", "").split(sep)
    if len(parts) != 2:
        raise ConfigurationError(f"cannot parse edge {key!r} (expected 'a{sep}b')")
    return int(parts[0]), int(parts[1])


def _parse_unit(doc: Mapping[str, Any]) -> LisUnit:
    _require_keys(
        doc,
        {"id", "kind", "pi_min", "pi_max", "profile", "tracking", "lag_seconds"},
        f"fleet entry {doc.get('id', '?')}",
    )
    kind = doc.get("kind")
    profile = None
    if doc.get("profile") is not None:
        profile = PowerProfile(tuple((float(t), float(w)) for t, w in doc["profile"]))
    return LisUnit(
        uid=int(doc["id"]),
        kind=str(kind),
        pi_min=float(doc["pi_min"]) if "pi_min" in doc else None,
        pi_max=float(doc["pi_max"]) if "pi_max" in doc else None,
        profile=profile,
        tracking=str(doc.get("tracking", "instant")),
        lag_seconds=float(doc["lag_seconds"]) if "lag_seconds" in doc else None,
    )


def _unit_to_dict(u: LisUnit) -> dict[str, Any]:
    doc: dict[str, Any] = {"id": u.uid, "kind": u.kind}
    if u.pi_min is not None:
        doc["pi_min"] = u.pi_min
    if u.pi_max is not None:
        doc["pi_max"] = u.pi_max
    if u.profile is not None:
        doc["profile"] = [list(p) for p in u.profile.points]
    if u.tracking != "instant":
        doc["tracking"] = u.tracking
    if u.lag_seconds is not None:
        doc["lag_seconds"] = u.lag_seconds
    return doc


def default_config() -> ScenarioConfig:
    """The built-in six-unit scenario: 6-cycle, 7 kW demand circulated at unit 2."""
    return ScenarioConfig.from_dict(
        {
            "name": "six-lis-day",
            "seed": 0,
            "rho": 0.02,
            "tau_bar": 3,
            "diameter": 3,
            "graph": {
                "nodes": [1, 2, 3, 4, 5, 6],
                "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]],
            },
            "delay": {"model": "stochastic"},
            "demand": {"watts": 7000.0, "circulation": [2]},
            "fleet": [_unit_to_dict(u) for u in six_lis_fleet()],
            "dispatch": {"consensus_period": 1.0, "dispatch_period": 60.0, "epsilon": 1.0},
        }
    )


# ---------------------------------------------------------------------------
# output writers


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_trace_csv(path: Path, rows: Sequence[Mapping[str, Any]]) -> None:
    lines = [TRACE_HEADER, ",".join(TRACE_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in TRACE_COLUMNS))
    path.write_text("\n".join(lines) + "\n")


def read_trace_csv(path: Path) -> list[dict[str, str]]:
    """Strict reader for the trace format; rejects anything off-schema."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# lisnet-trace v1"):
        raise ConfigurationError(f"{path}: missing trace header")
    if lines[1].split(",") != list(TRACE_COLUMNS):
        raise ConfigurationError(f"{path}: unexpected column set")
    rows = []
    for ln, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise ConfigurationError(f"{path}:{ln}: wrong cell count")
        rows.append(dict(zip(TRACE_COLUMNS, cells)))
    return rows


def write_results_json(path: Path, payload: Mapping[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_out_dir(flag: str | None, config: ScenarioConfig) -> Path:
    target = flag or config.out_dir or os.environ.get(OUT_DIR_ENV) or "lisnet-out"
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# run command


def _assemble_day_rows(day) -> list[dict[str, Any]]:
    rows = []
    for row in day.trace_rows:
        rec = day.records[row["cycle"]]
        out = dict(row)
        if row.get("frozen"):
            out["pi_star"] = rec.commands.get(row["node"])
            out["delivered_power"] = rec.delivered.get(row["node"])
        rows.append(out)
    return rows


def cmd_run(args: argparse.Namespace) -> int:
    config = (
        ScenarioConfig.load(args.config) if args.config else default_config()
    )
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.rho is not None:
        config = replace(config, rho=args.rho)
    if args.tau_bar is not None or args.delay_model is not None:
        tau_bar = config.delay.tau_bar if args.tau_bar is None else args.tau_bar
        if (args.delay_model or config.delay.kind) == "stochastic":
            delay = DelayModel.stochastic(tau_bar)
        else:
            delay = DelayModel.fixed(dict(config.delay.fixed_delays or {}), tau_bar)
        config = replace(config, delay=delay)
    if args.demand is not None:
        config = replace(config, dispatch=replace(config.dispatch, demand=args.demand))
    if args.dispatch_period is not None:
        config = replace(
            config, dispatch=replace(config.dispatch, dispatch_period=args.dispatch_period)
        )

    if args.check_feasibility:
        return _check_feasibility(config, args)

    out_dir = _resolve_out_dir(args.out_dir, config)
    record = "steps" if args.verbose_trace else "checkpoints"

    if args.cycle_only:
        return _run_single_cycle(config, args, out_dir, record)
    return _run_full_day(config, out_dir, record)


def _check_feasibility(config: ScenarioConfig, args: argparse.Namespace) -> int:
    if args.cycle_only:
        instants = [args.at_hours]
    else:
        instants = day_instants(
            config.fleet, config.dispatch, config.start_hours, config.end_hours
        )
    plans = [
        plan_instant(config.fleet, config.graph, config.dispatch, t, config.circulation)
        for t in instants
    ]
    bad = [plan for plan in plans if isinstance(plan, Infeasible)]
    for plan in bad:
        print(f"infeasible at t={plan.t_hours:g} h: {plan.reason}")
    if bad:
        print(f"feasibility check failed at {len(bad)} of {len(instants)} instants")
        return 1
    print(f"feasible at all {len(instants)} instants")
    return 0


def _run_single_cycle(config, args, out_dir: Path, record: str) -> int:
    t = args.at_hours
    plan = plan_instant(config.fleet, config.graph, config.dispatch, t, config.circulation)
    if isinstance(plan, Infeasible):
        print(f"infeasible at t={t:g} h: {plan.reason}", file=sys.stderr)
        return 1
    result = run_instant(
        plan.graph,
        plan.problem,
        config.delay,
        config.rho,
        diameter_bound=config.diameter_bound,
        seed=config.seed,
        record=record,
    )
    oracle = closed_form_oracle(plan.problem)
    rows = []
    for row in result.trace_rows:
        out = {"cycle": 0, **row}
        if row.get("frozen"):
            out["pi_star"] = result.commands[row["node"]]
            out["delivered_power"] = result.commands[row["node"]]
        rows.append(out)
    write_trace_csv(out_dir / "trace.csv", rows)
    summary = [
        f"scenario: {config.name} (single cycle at t={t:g} h, seed {config.seed})",
        f"demand: {plan.demand:g} W, threshold rho={config.rho:g}",
        f"terminated at checkpoint theta={result.theta} after {result.steps} iterations",
        f"total command: {result.commands.total:.3f} W "
        f"(deviation {result.commands.total - plan.demand:+.3f} W)",
        f"worst node gap to closed form: "
        f"{max(abs(result.commands[i] - oracle[i]) for i in plan.participants):.6f} W",
        f"max conservation error: {result.max_conservation_error:.3e}",
    ]
    write_results_json(
        out_dir / "results.json",
        {
            "scenario": config.to_dict(),
            "mode": "cycle",
            "at_hours": t,
            "theta": result.theta,
            "iterations": result.steps,
            "commands": {str(i): result.commands[i] for i in plan.participants},
            "oracle": {str(i): oracle[i] for i in plan.participants},
            "total_command": result.commands.total,
            "demand": plan.demand,
            "max_conservation_error": result.max_conservation_error,
        },
    )
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def _run_config_day(config: ScenarioConfig, record: str = "none"):
    return run_day(
        list(config.fleet),
        config.graph,
        config.dispatch,
        config.delay,
        config.rho,
        demand_nodes=config.circulation,
        seed=config.seed,
        start_hours=config.start_hours,
        end_hours=config.end_hours,
        diameter_bound=config.diameter_bound,
        record=record,
    )


def _run_full_day(config: ScenarioConfig, out_dir: Path, record: str) -> int:
    day = _run_config_day(config, record)
    write_trace_csv(out_dir / "trace.csv", _assemble_day_rows(day))
    feasible = [r for r in day.records if r.feasible]
    deviations = [abs(r.total_delivered - r.demand) for r in feasible]
    per_cycle = [
        {
            "index": r.index,
            "t_hours": r.t_hours,
            "feasible": r.feasible,
            "theta": r.theta,
            "iterations": r.iterations,
            "budget_exceeded": r.budget_exceeded,
            "total_command": r.total_command,
            "total_delivered": r.total_delivered,
            "demand": r.demand,
        }
        for r in day.records
    ]
    write_results_json(
        out_dir / "results.json",
        {
            "scenario": config.to_dict(),
            "mode": "day",
            "cycles": len(day.records),
            "infeasible_cycles": day.infeasible_count,
            "budget_exceeded_cycles": day.budget_exceeded_count,
            "max_total_deviation": max(deviations) if deviations else None,
            "max_conservation_error": day.max_conservation_error,
            "per_cycle": per_cycle,
        },
    )
    summary = [
        f"scenario: {config.name} (full day, seed {config.seed})",
        f"dispatch instants: {len(day.records)} "
        f"({day.infeasible_count} infeasible, commands held; "
        f"{day.budget_exceeded_count} over the dispatch budget)",
        f"worst |total - demand| over feasible instants: "
        f"{max(deviations):.3f} W" if deviations else "no feasible instants",
        f"max conservation error: {day.max_conservation_error:.3e}",
    ]
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


# ---------------------------------------------------------------------------
# replication suites


def _suite_report(name: str, checks: list[tuple[str, bool, str]]) -> tuple[bool, list[str]]:
    lines = [f"suite: {name}"]
    passed = True
    for label, ok, detail in checks:
        passed &= ok
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    lines.append(f"suite {name}: {'PASS' if passed else 'FAIL'}")
    return passed, lines


def replicate_fig1(seed: int = 0) -> tuple[bool, list[str]]:
    """Five-node averaging: delay-aware consensus is exact, naive reads drift."""
    graph = Graph.cycle(5)
    weights = build_weights(graph)
    initial = {1: 100.0, 2: 200.0, 3: 300.0, 4: 600.0, 5: 800.0}
    ones = {i: 1.0 for i in graph.nodes}
    target = sum(initial.values()) / len(initial)
    checks = []
    for label, model in (
        ("fixed delays", DelayModel.fixed_random(graph, 3, seed)),
        ("stochastic delays", DelayModel.stochastic(3)),
    ):
        sim = simulate_averaging(graph, weights, initial, ones, model, seed=seed)
        sim.run(600)
        worst = max(abs(mu - target) for mu in sim.ratios().values())
        checks.append(
            (
                f"ratio consensus, {label}",
                worst <= 1e-6,
                f"worst |ratio - {target:g}| = {worst:.3e}",
            )
        )
    naive_errors = []
    for s in range(seed, seed + 5):
        final = run_naive_averaging(
            graph, initial, DelayModel.stochastic(3), steps=400, seed=s
        )
        naive_errors.append(max(abs(v - target) / target for v in final.values()))
    worst_naive = max(naive_errors)
    checks.append(
        (
            "naive baseline misconverges",
            worst_naive > 0.01,
            f"worst relative error over 5 realizations = {worst_naive:.2%}",
        )
    )
    return _suite_report("fig1-misconvergence", checks)


def replicate_six_lis_day(seed: int = 0) -> tuple[bool, list[str]]:
    """Full-day dispatch of the six-unit fleet against the 7 kW demand band."""
    day = _run_config_day(replace(default_config(), seed=seed))
    feasible = [r for r in day.records if r.feasible]
    worst = max(abs(r.total_delivered - r.demand) for r in feasible)
    thetas = sorted(r.theta for r in feasible)
    median_theta = thetas[len(thetas) // 2]
    checks = [
        (
            "aggregate tracks demand",
            worst <= 150.0,
            f"worst |total - 7000| = {worst:.2f} W over {len(feasible)} instants",
        ),
        (
            "every instant dispatched",
            day.infeasible_count == 0,
            f"{day.infeasible_count} infeasible instants, "
            f"{day.budget_exceeded_count} over the dispatch budget",
        ),
        (
            "cycles terminate promptly",
            median_theta <= 3 and thetas[-1] <= 100,
            f"median checkpoints {median_theta}, worst {thetas[-1]}",
        ),
    ]
    return _suite_report("six-lis-day", checks)


def replicate_oracle_sweep(seed: int = 0, count: int = 200) -> tuple[bool, list[str]]:
    """Random feasible problems: the distributed answer matches the closed form."""
    rng = random.Random(seed)
    rho = 0.02
    worst_node = 0.0
    worst_total = 0.0
    failures = 0
    for case in range(count):
        n = rng.randint(2, 8)
        graph = Graph.random_connected(rng, n)
        tau_bar = rng.randint(0, 3)
        if case % 2 == 0:
            model = DelayModel.fixed_random(graph, tau_bar, rng.randrange(10**6))
        else:
            model = DelayModel.stochastic(tau_bar)
        bounds = {}
        for i in graph.nodes:
            lo = rng.uniform(0.0, 500.0)
            bounds[i] = (lo, lo + rng.uniform(50.0, 2000.0))
        total_min = sum(b[0] for b in bounds.values())
        total_max = sum(b[1] for b in bounds.values())
        rho_d = rng.uniform(total_min, total_max)
        picks = rng.randint(1, n)
        demand_set = frozenset(rng.sample(sorted(graph.nodes), picks))
        problem = ApportionProblem(rho_d, bounds, demand_set)
        result = run_instant(graph, problem, model, rho, seed=rng.randrange(10**6))
        oracle = closed_form_oracle(problem)
        node_ok = True
        for i in graph.nodes:
            err = abs(result.commands[i] - oracle[i])
            budget = rho * problem.span(i)
            worst_node = max(worst_node, err / budget)
            node_ok &= err <= budget
        total_err = abs(result.commands.total - rho_d)
        total_budget = rho * problem.total_span
        worst_total = max(worst_total, total_err / total_budget)
        if not (node_ok and total_err <= total_budget):
            failures += 1
    checks = [
        (
            "per-node commands within budget",
            failures == 0 and worst_node <= 1.0,
            f"worst node error = {worst_node:.3f} of budget over {count} instances",
        ),
        (
            "aggregate demand within budget",
            worst_total <= 1.0,
            f"worst aggregate error = {worst_total:.3f} of budget",
        ),
    ]
    return _suite_report("oracle-sweep", checks)


def cmd_replicate(args: argparse.Namespace) -> int:
    if args.suite == "fig1-misconvergence":
        passed, lines = replicate_fig1(args.seed or 0)
    elif args.suite == "six-lis-day":
        passed, lines = replicate_six_lis_day(args.seed or 0)
    else:
        passed, lines = replicate_oracle_sweep(args.seed or 0, args.count)
    print("\n".join(lines))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lisnet",
        description="Delay-tolerant consensus apportioning: run scenarios and "
        "replication suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario configuration")
    run.add_argument("--config", help="scenario YAML (defaults to the built-in six-unit day)")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--rho", type=float, help="override the stopping threshold")
    run.add_argument("--tau-bar", type=int, dest="tau_bar", help="override the delay bound")
    run.add_argument(
        "--delay-model",
        choices=["fixed", "stochastic"],
        dest="delay_model",
        help="override the delay model kind",
    )
    run.add_argument(
        "--dispatch-period",
        type=float,
        dest="dispatch_period",
        help="override the dispatch period in seconds",
    )
    run.add_argument("--demand", type=float, help="override the demand in watts")
    run.add_argument(
        "--cycle-only",
        action="store_true",
        dest="cycle_only",
        help="run a single consensus cycle instead of the full day",
    )
    run.add_argument(
        "--at-hours",
        type=float,
        dest="at_hours",
        default=0.0,
        help="instant for --cycle-only and --check-feasibility (default 0)",
    )
    run.add_argument(
        "--check-feasibility",
        action="store_true",
        dest="check_feasibility",
        help="only verify demand feasibility, run nothing",
    )
    run.add_argument(
        "--verbose-trace",
        action="store_true",
        dest="verbose_trace",
        help="one trace row per node per iteration instead of per checkpoint",
    )
    run.add_argument("--out-dir", dest="out_dir", help=f"output directory (or ${OUT_DIR_ENV})")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("replicate", help="run a built-in validation suite")
    rep.add_argument("suite", choices=SUITES)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--count", type=int, default=200, help="instances for oracle-sweep")
    rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LisnetError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
