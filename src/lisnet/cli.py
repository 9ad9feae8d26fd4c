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
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .apportioning import ApportionProblem, closed_form_oracle, ordered_sum
from .errors import ConfigurationError, InvariantError, LisnetError
from .netsim import DelayModel, collector_paused, run_naive_averaging, simulate_averaging
from .netsim import run_cycle  # noqa: F401  timed here by perfbench/iteration.py
from .scenario import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    TRACK_INSTANT,
    Infeasible,
    LisUnit,
    PowerProfile,
    Scenario,
    bounds_at,  # noqa: F401  traced here by perfbench/tracer.py
    day_instants,
    instant_index,
    instant_rows,
    plan_instant,
    run_day,
    run_instant,
    solve_instant,
)
from .topology import Edge, Graph, build_weights, edge_key
from .topology import diameter  # noqa: F401  traced here by perfbench/tracer.py

OUT_DIR_ENV = "LISNET_OUT_DIR"

SUITES = ("fig1-misconvergence", "six-lis-day", "oracle-sweep")
# the ``run`` flags that replace a key of the scenario document, by argparse
# dest: the key's section (None at the top level), the key, the flag's options
OVERRIDES: dict[str, tuple[str | None, str, dict[str, Any]]] = {
    "seed": (None, "seed", {"type": int, "help": "override the scenario seed"}),
    "rho": (None, "rho", {"type": float, "help": "override the stopping threshold"}),
    "tau_bar": (None, "tau_bar", {"type": int, "help": "override the delay bound"}),
    "delay_model": ("delay", "model", {
        "choices": ["fixed", "stochastic"], "help": "override the delay model kind",
    }),
    "dispatch_period": ("dispatch", "dispatch_period", {
        "type": float, "help": "override the dispatch period in seconds",
    }),
    "demand": ("demand", "watts", {"type": float, "help": "override the demand in watts"}),
}


# ---------------------------------------------------------------------------
# configuration document
#
# Each section with scalar keys is a table of (key, attribute, reader,
# default) rows, and the table alone says which keys the section allows,
# how each is read, which must be present and what ``to_dict`` writes. The
# attribute is a dotted path from the object the section is written from.
# A key that is missing or null is absent: it takes its default, and a
# REQUIRED one is an error. Any other value goes through the reader.

Field = tuple[str, str, Callable[[Any, str], Any], Any]
REQUIRED = object()


def _as_int(value: Any, what: str) -> int:
    """An integer field: an int or an integral float, never truncated; not a bool or a string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"{what} must be an integer, got {value!r}")


def _as_float(value: Any, what: str) -> float:
    """A number field, not a bool or a string; finiteness is left to the object that takes it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigurationError(f"{what} must be a number, got {value!r}") from exc


def _of_type(types: type | tuple[type, ...], noun: str) -> Callable[[Any, str], Any]:
    """A reader that passes a value of ``types`` through unchanged."""

    def reader(value: Any, what: str) -> Any:
        if not isinstance(value, types):
            raise ConfigurationError(f"{what} must be {noun}, got {value!r}")
        return value

    return reader


_as_str = _of_type(str, "a string")
_as_mapping = _of_type(dict, "a mapping")
_as_list = _of_type((list, tuple), "a list")


def _pairs(value: Any, what: str) -> Sequence[Any]:
    """A list of two-element lists: edges and profile points."""
    items = _as_list(value, what)
    for item in items:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ConfigurationError(f"{what} entries must be pairs, got {item!r}")
    return items


def _distinct(items: Sequence[Any], what: str, key: Callable[[Any], Any] = lambda x: x) -> None:
    """Reject the first of ``items`` whose ``key`` an earlier item already had."""
    seen = set()
    for item in items:
        if key(item) in seen:
            raise ConfigurationError(f"{what} {item!r} is listed twice")
        seen.add(key(item))


def _as_profile(value: Any, what: str) -> PowerProfile:
    points = _pairs(value, what)
    return PowerProfile(tuple((_as_float(t, what), _as_float(w, what)) for t, w in points))


def _links(value: Any, name: str, graph: Graph, directed: bool = False) -> dict[Edge, int]:
    """The ``delay_bounds`` or ``fixed_delays`` mapping: an integer per graph edge or link."""
    sep = "->" if directed else "-"
    links = {}
    for key, v in _as_mapping(value, name).items():
        parts = str(key).replace(" ", "").split(sep)
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ConfigurationError(f"cannot parse edge {key!r} (expected 'a{sep}b')")
        link = int(parts[0]), int(parts[1])
        # a cap or a delay applies only on a graph edge, so any other key is an error
        if edge_key(*link) not in graph.edges:
            raise ConfigurationError(f"{name} key {key!r} is not a graph edge")
        if link in links:
            raise ConfigurationError(f"{name} key {key!r} names {link} again")
        links[link] = _as_int(v, f"{name} value on {key}")
    return links


_TOP = (
    ("name", "name", _as_str, "scenario"),
    ("seed", "seed", _as_int, 0),
    ("rho", "rho", _as_float, 0.02),
    ("tau_bar", "delay.tau_bar", _as_int, 3),
    ("diameter", "diameter_bound", _as_int, None),
)
_DELAY = (("model", "delay.kind", _as_str, "stochastic"),)
_DISPATCH = (
    ("consensus_period", "consensus_period", _as_float, 1.0),
    ("dispatch_period", "dispatch_period", _as_float, 60.0),
    ("epsilon", "epsilon", _as_float, 1.0),
    ("start_hours", "start_hours", _as_float, None),
    ("end_hours", "end_hours", _as_float, None),
)
_OUTPUT = (("directory", "out_dir", _as_str, None),)
_FLEET_ENTRY = (
    ("id", "uid", _as_int, REQUIRED),
    ("kind", "kind", _as_str, REQUIRED),
    ("pi_min", "pi_min", _as_float, None),
    ("pi_max", "pi_max", _as_float, None),
    ("profile", "profile", _as_profile, None),
    ("tracking", "tracking", _as_str, TRACK_INSTANT),
    ("lag_seconds", "lag_seconds", _as_float, None),
)


def _section(
    value: Any, where: str, fields: Sequence[Field], others: Sequence[str] = ()
) -> dict[str, Any]:
    """Read one mapping: its fields by attribute, its present ``others`` raw by key."""
    section = _as_mapping(value, where)
    allowed = {key for key, *_ in fields}.union(others)
    unknown = section.keys() - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown, key=str)} in {where}; allowed: {sorted(allowed)}"
        )
    values = {key: section[key] for key in others if section.get(key) is not None}
    for key, attribute, reader, default in fields:
        if (raw := section.get(key)) is not None:
            values[attribute] = reader(raw, f"{where} {key}")
        elif default is REQUIRED:
            raise ConfigurationError(f"{where} is missing required key {key!r}")
        else:
            values[attribute] = default
    return values


def _write(fields: Sequence[Field], obj: Any, omit_defaults: bool = False) -> dict[str, Any]:
    """``obj``'s fields in document form, leaving out None and, if asked, defaults."""
    doc = {}
    for key, attribute, _, default in fields:
        value = attrgetter(attribute)(obj)
        if isinstance(value, PowerProfile):
            value = [list(p) for p in value.points]
        if value is not None and not (omit_defaults and value == default):
            doc[key] = value
    return doc


@dataclass(frozen=True)
class ScenarioConfig(Scenario):
    """A scenario with its name and output directory, round-trippable to the YAML schema."""

    name: str
    out_dir: str | None

    @classmethod
    def from_dict(cls, doc: Any) -> "ScenarioConfig":
        top = _section(
            doc, "scenario", _TOP, ("graph", "delay", "demand", "fleet", "dispatch", "output")
        )
        gsec = _section(top.get("graph"), "graph", (), ("nodes", "edges", "delay_bounds"))
        nodes = [_as_int(i, "node id") for i in _as_list(gsec.get("nodes"), "graph nodes")]
        edges = [
            (_as_int(a, "edge end"), _as_int(b, "edge end"))
            for a, b in _pairs(gsec.get("edges"), "graph edges")
        ]
        # either direction names the same undirected edge
        _distinct(edges, "graph edge", lambda edge: edge_key(*edge))
        graph = Graph.from_edges(nodes, edges)
        bounds = _links(gsec.get("delay_bounds", {}), "delay_bounds", graph)

        # which model takes fixed delays or probabilities is DelayModel's rule
        dsec = _section(top.get("delay", {}), "delay", _DELAY, ("fixed_delays", "probabilities"))
        fixed = probs = None
        if "fixed_delays" in dsec:
            fixed = _links(dsec["fixed_delays"], "fixed_delays", graph, directed=True)
        if "probabilities" in dsec:
            # checked, not converted: an int stays an int in results.json
            probs = tuple(_as_list(dsec["probabilities"], "probabilities"))
            for p in probs:
                if isinstance(p, bool) or not isinstance(p, (int, float)):
                    raise ConfigurationError(f"delay probabilities must be numbers: {p!r}")
        delay = DelayModel(dsec["delay.kind"], top["delay.tau_bar"], fixed, probs, bounds)

        dem = _section(top.get("demand"), "demand", (), ("watts", "shape", "circulation"))
        if ("watts" in dem) == ("shape" in dem):
            raise ConfigurationError("demand needs exactly one of 'watts' or 'shape'")
        demand: float | PowerProfile
        if "watts" in dem:
            demand = _as_float(dem["watts"], "demand watts")
        else:
            demand = _as_profile(dem["shape"], "demand shape")
        circulation = [
            _as_int(i, "node id") for i in _as_list(dem.get("circulation", []), "circulation")
        ]
        _distinct(circulation, "circulation node")
        fleet = tuple(
            LisUnit(**_section(entry, f"fleet[{index}]", _FLEET_ENTRY))
            for index, entry in enumerate(_as_list(top.get("fleet"), "fleet"))
        )

        return cls(
            fleet=fleet, graph=graph, demand=demand, delay=delay, rho=top["rho"],
            seed=top["seed"], circulation=frozenset(circulation),
            diameter_bound=top["diameter_bound"], name=top["name"],
            **_section(top.get("dispatch", {}), "dispatch", _DISPATCH),
            **_section(top.get("output", {}), "output", _OUTPUT),
        )

    def to_dict(self) -> dict[str, Any]:
        doc = _write(_TOP, self)
        doc["graph"] = {
            "nodes": list(self.graph.nodes),
            "edges": [list(e) for e in sorted(self.graph.edges)],
        }
        if self.delay.bounds:
            doc["graph"]["delay_bounds"] = {
                f"{a}-{b}": v for (a, b), v in sorted(self.delay.bounds.items())
            }
        doc["delay"] = _write(_DELAY, self)
        if self.delay.kind == "fixed":
            doc["delay"]["fixed_delays"] = {
                f"{a}->{b}": v for (a, b), v in sorted((self.delay.fixed_delays or {}).items())
            }
        elif self.delay.probabilities is not None:
            doc["delay"]["probabilities"] = list(self.delay.probabilities)
        demand = self.demand
        if isinstance(demand, PowerProfile):
            doc["demand"] = {"shape": [list(p) for p in demand.points]}
        else:
            doc["demand"] = {"watts": demand}
        doc["demand"]["circulation"] = sorted(self.circulation)
        doc["fleet"] = [_write(_FLEET_ENTRY, u, omit_defaults=True) for u in self.fleet]
        doc["dispatch"] = _write(_DISPATCH, self)
        if self.out_dir is not None:
            doc["output"] = _write(_OUTPUT, self)
        return doc

    # PyYAML is imported only here and in ``dump``: a run of the built-in
    # scenario never reads or writes YAML
    @classmethod
    def load(cls, path: str | Path) -> "ScenarioConfig":
        import yaml

        class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # libyaml when built with it
            def construct_mapping(self, node, deep=False):
                # a key written twice is an error; one merged in by << may be written again
                written = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
                mapping = super().construct_mapping(node, deep)
                if len(mapping) == len(node.value):  # no key repeated, merged or not
                    return mapping
                seen = set()
                for key_node in written:
                    key = self.construct_object(key_node)  # cached: built by super()
                    if key in seen:
                        line = key_node.start_mark.line + 1
                        raise ConfigurationError(f"duplicate key {key!r} on line {line}")
                    seen.add(key)
                return mapping

        try:
            doc = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=Loader)
            return cls.from_dict(doc)
        except (OSError, UnicodeDecodeError, yaml.YAMLError, ConfigurationError) as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc

    def dump(self, path: str | Path) -> None:
        import yaml

        Path(path).write_text(yaml.safe_dump(self.to_dict(), sort_keys=False))


def default_config() -> ScenarioConfig:
    """The built-in six-unit scenario: 6-cycle, 7 kW demand circulated at unit 2.

    Its seed, rho, tau_bar, delay model and dispatch timing are the table defaults.
    """
    return ScenarioConfig.from_dict(
        {
            "name": "six-lis-day",
            "diameter": 3,
            "graph": {
                "nodes": [1, 2, 3, 4, 5, 6],
                "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6]],
            },
            "demand": {"watts": 7000.0, "circulation": [2]},
            "fleet": [
                {"id": 1, "kind": "non_res", "pi_min": 0.0, "pi_max": 1500.0},
                # sunny: a ramp to 1 kW over three hours, two held, down by hour eight
                {"id": 2, "kind": "res", "profile": [[0, 0], [3, 1000], [5, 1000], [8, 0]]},
                {"id": 3, "kind": "non_res", "pi_min": 0.0, "pi_max": 1000.0},
                {"id": 4, "kind": "non_res", "pi_min": 0.0, "pi_max": 1200.0},
                {"id": 5, "kind": "non_res", "pi_min": 0.0, "pi_max": 1500.0},
                {"id": 6, "kind": "non_res", "pi_min": 0.0, "pi_max": 2000.0},
            ],
        }
    )


# ---------------------------------------------------------------------------
# output writers


def write_trace_csv(path: Path, chunks: Sequence[bytes]) -> None:
    """Write the trace file: its header, then ``chunks`` as built by ``instant_rows``.

    Every node runs the stopping machine, so ``z``, ``y`` and ``theta`` are
    never empty; without ``--verbose-trace`` the lines are the cycles'
    checkpoint rows.
    """
    with open(path, "wb") as out:
        out.write(f"{TRACE_HEADER}\n{','.join(TRACE_COLUMNS)}\n".encode())
        out.writelines(chunks)


def write_results_json(path: Path, payload: Mapping[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_outputs(out_dir: Path, chunks: Sequence[bytes], results: dict, summary: list) -> int:
    """Write ``trace.csv``, ``results.json`` and ``summary.txt``, then print the summary."""
    try:
        write_trace_csv(out_dir / "trace.csv", chunks)
        write_results_json(out_dir / "results.json", results)
        (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write to output directory {out_dir}: {exc}") from exc
    print("\n".join(summary))
    return 0


def _resolve_out_dir(flag: str | None, config: ScenarioConfig) -> Path:
    # the flag, else the document: an empty one is an error, an empty variable unset
    source, target = "--out-dir", flag
    if target is None:
        source, target = "output: directory", config.out_dir
    if target == "":
        raise ConfigurationError(f"{source} is empty")
    target = target or os.environ.get(OUT_DIR_ENV) or "lisnet-out"
    path = Path(target)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot use output directory {target}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# run command


def cmd_run(args: argparse.Namespace) -> int:
    if args.at_hours is not None:
        if not args.cycle_only:
            raise ConfigurationError("--at-hours needs --cycle-only")
        if not math.isfinite(args.at_hours):
            raise ConfigurationError(f"--at-hours must be finite, got {args.at_hours}")
    config = ScenarioConfig.load(args.config) if args.config else default_config()
    if any(getattr(args, dest) is not None for dest in OVERRIDES):
        config = ScenarioConfig.from_dict(_override(config.to_dict(), args))
    # the whole day, or the --cycle-only instant (by default the day's first)
    instants = day_instants(config)
    index = None
    if args.cycle_only:
        index = 0 if args.at_hours is None else instant_index(config, args.at_hours)
        instants = islice(instants, index, index + 1)

    if args.check_feasibility:
        return _check_feasibility(config, instants)

    out_dir = _resolve_out_dir(args.out_dir, config)
    if index is not None:
        return _run_single_cycle(config, index, *next(instants), out_dir, args.verbose_trace)
    return _run_full_day(config, out_dir, args.verbose_trace)


def _override(doc: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    """``doc`` with each ``OVERRIDES`` flag that is given in place of its key.

    The document is then read like a file, so a flag is checked exactly as
    its key is. Switching ``--delay-model`` drops the other model's
    ``fixed_delays`` or ``probabilities``, and ``--demand`` replaces a
    demand ``shape``.
    """
    for dest, (section, key, _) in OVERRIDES.items():
        if (value := getattr(args, dest)) is not None:
            (doc if section is None else doc[section])[key] = value
    if args.delay_model is not None:
        doc["delay"].pop("probabilities" if args.delay_model == "fixed" else "fixed_delays", None)
    if args.demand is not None:
        doc["demand"].pop("shape", None)
    return doc


def _check_feasibility(config: ScenarioConfig, instants: Iterable[tuple[float, int]]) -> int:
    plans = [plan_instant(config, t) for t, _ in instants]
    bad = [plan for plan in plans if isinstance(plan, Infeasible)]
    for plan in bad:
        print(f"infeasible at t={plan.t_hours:g} h: {plan.reason}")
    if bad:
        print(f"feasibility check failed at {len(bad)} of {len(plans)} instants")
        return 1
    print(f"feasible at all {len(plans)} instants")
    return 0


def _run_single_cycle(
    config: ScenarioConfig, index: int, t: float, cycle_seed: int, out_dir: Path,
    record_steps: bool,
) -> int:
    plan, result = solve_instant(config, t, cycle_seed, record_steps=record_steps)
    if result is None:
        print(f"infeasible at t={t:g} h: {plan.reason}", file=sys.stderr)
        return 1
    oracle = closed_form_oracle(plan.problem)
    commands = result.commands.commands
    summary = [
        f"scenario: {config.name} (single cycle at t={t:g} h, "
        f"instant {index} of the seed-{config.seed} day)",
        f"demand: {plan.demand:g} W, threshold rho={config.rho:g}",
        f"terminated at checkpoint theta={result.theta} after {result.steps} iterations",
        f"total command: {result.commands.total:.3f} W "
        f"(deviation {result.commands.total - plan.demand:+.3f} W)",
        f"worst node gap to closed form: "
        f"{max(abs(result.commands[i] - oracle[i]) for i in plan.participants):.6f} W",
        f"max conservation error: {result.max_conservation_error:.3e}",
    ]
    results = {
        "scenario": config.to_dict(),
        "mode": "cycle",
        "index": index,
        "at_hours": t,
        "theta": result.theta,
        "iterations": result.steps,
        "commands": {str(i): result.commands[i] for i in plan.participants},
        "oracle": {str(i): oracle[i] for i in plan.participants},
        "total_command": result.commands.total,
        "demand": plan.demand,
        "max_conservation_error": result.max_conservation_error,
    }
    # a lone cycle has no earlier delivered power for a lag unit to track from
    tracking = {u.uid: u.tracking for u in config.fleet}
    delivered = {i: c if tracking[i] == TRACK_INSTANT else None for i, c in commands.items()}
    chunks = [instant_rows(index, result.trace_rows, commands, delivered)]
    return _write_outputs(out_dir, chunks, results, summary)


def _run_full_day(config: ScenarioConfig, out_dir: Path, record_steps: bool) -> int:
    day = run_day(config, record_steps=record_steps)
    worst = day.max_total_deviation
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
    results = {
        "scenario": config.to_dict(),
        "mode": "day",
        "cycles": len(day.records),
        "infeasible_cycles": day.infeasible_count,
        "budget_exceeded_cycles": day.budget_exceeded_count,
        "max_total_deviation": worst,
        "max_conservation_error": day.max_conservation_error,
        "per_cycle": per_cycle,
    }
    summary = [
        f"scenario: {config.name} (full day, seed {config.seed})",
        f"dispatch instants: {len(day.records)} "
        f"({day.infeasible_count} infeasible, commands held; "
        f"{day.budget_exceeded_count} over the dispatch budget)",
        f"worst |total - demand| over feasible instants: "
        f"{worst:.3f} W" if worst is not None else "no feasible instants",
        f"max conservation error: {day.max_conservation_error:.3e}",
    ]
    return _write_outputs(out_dir, day.trace_chunks, results, summary)


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
    day = run_day(replace(default_config(), seed=seed))
    feasible = [r for r in day.records if r.feasible]
    worst = day.max_total_deviation
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
    """Random feasible problems: every cycle passes ``run_cycle``'s checks."""
    if count < 1:
        raise ConfigurationError(f"oracle-sweep needs at least 1 instance, got {count}")
    rng = random.Random(seed)
    failures = []
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
        total_min = ordered_sum(b[0] for b in bounds.values())
        total_max = ordered_sum(b[1] for b in bounds.values())
        rho_d = rng.uniform(total_min, total_max)
        picks = rng.randint(1, n)
        demand_set = frozenset(rng.sample(sorted(graph.nodes), picks))
        problem = ApportionProblem(rho_d, bounds, demand_set)
        try:
            run_instant(graph, problem, model, 0.02, seed=rng.randrange(10**6))
        except InvariantError as exc:
            failures.append(f"instance {case}: {exc}")
    detail = f"{len(failures)} of {count} instances failed"
    if failures:
        detail += f"; first at {failures[0]}"
    checks = [("cycles pass run_cycle's checks", not failures, detail)]
    return _suite_report("oracle-sweep", checks)


def cmd_replicate(args: argparse.Namespace) -> int:
    if args.count is not None and args.suite != "oracle-sweep":
        raise ConfigurationError(f"--count applies to oracle-sweep only, not {args.suite}")
    if args.suite == "fig1-misconvergence":
        passed, lines = replicate_fig1(args.seed)
    elif args.suite == "six-lis-day":
        passed, lines = replicate_six_lis_day(args.seed)
    else:
        count = 200 if args.count is None else args.count
        passed, lines = replicate_oracle_sweep(args.seed, count)
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
    for dest, (_, _, options) in OVERRIDES.items():
        run.add_argument("--" + dest.replace("_", "-"), **options)
    run.add_argument(
        "--cycle-only",
        action="store_true",
        help="run a single consensus cycle instead of the full day",
    )
    run.add_argument(
        "--at-hours",
        type=float,
        help="the day's dispatch instant, in hours, for --cycle-only, also when "
        "checked with --check-feasibility (default: the day's first instant)",
    )
    run.add_argument(
        "--check-feasibility",
        action="store_true",
        help="only verify demand feasibility, run nothing",
    )
    run.add_argument(
        "--verbose-trace",
        action="store_true",
        help="one trace row per node per iteration instead of per checkpoint",
    )
    run.add_argument("--out-dir", help=f"output directory (or ${OUT_DIR_ENV})")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("replicate", help="run a built-in validation suite")
    rep.add_argument("suite", choices=SUITES)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--count", type=int, help="instances for oracle-sweep (default 200)")
    rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # loading, planning, the cycles and the writers run without collections;
        # the little cyclic garbage they leave waits for the collector's next run
        with collector_paused():
            return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LisnetError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
