"""Outside-in tracing of lisnet's modules, with no edit to the program.

Each target is a function or method that the program calls, patched in
the namespace where the program looks it up: a module-level name that a
caller imported (``lisnet.scenario.run_cycle``) or a class attribute
(``Simulation.step``). Every wrapped call is a span with a parent, the
innermost traced call enclosing it. Calls made once per message or per node
step (about a million on the 1,000-unit cycle) are aggregated in memory as
count, total time and self time; cycles, steps and days are also kept as
full spans. A span's self time is its duration minus the durations of its
traced children.

Installing fails loudly when a target no longer exists, and ``check_hit``
fails when a target the workload must reach was never called, so that a
refactor cannot silently zero a layer.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

from workloads import CYCLE, DAY

BOTH = (DAY, CYCLE)

# (span name, owner as "module" or "module:Class", attribute, workload kinds
# that must call it). One span name may cover several lookups of one function.
TARGETS = (
    ("cli.config_load", "lisnet.cli:ScenarioConfig", "load", (CYCLE,)),
    ("cli.config_load", "lisnet.cli", "default_config", (DAY,)),
    ("cli.trace_write", "lisnet.cli", "write_trace_csv", BOTH),
    ("cli.results_write", "lisnet.cli", "write_results_json", BOTH),
    ("scenario.run_day", "lisnet.cli", "run_day", (DAY,)),
    ("scenario.bounds_at", "lisnet.scenario", "bounds_at", (DAY,)),
    ("scenario.bounds_at", "lisnet.cli", "bounds_at", (CYCLE,)),
    ("netsim.run_cycle", "lisnet.scenario", "run_cycle", (DAY,)),
    ("netsim.run_cycle", "lisnet.cli", "run_cycle", (CYCLE,)),
    ("topology.build_weights", "lisnet.scenario", "build_weights", (DAY,)),
    ("topology.build_weights", "lisnet.cli", "build_weights", (CYCLE,)),
    ("topology.diameter", "lisnet.scenario", "diameter", (DAY,)),
    ("topology.diameter", "lisnet.cli", "diameter", (CYCLE,)),
    ("apportioning.closed_form_oracle", "lisnet.cli", "closed_form_oracle", (CYCLE,)),
    ("apportioning.init_states", "lisnet.netsim", "init_states", BOTH),
    ("apportioning.reference_command", "lisnet.netsim", "reference_command", BOTH),
    ("netsim.step", "lisnet.netsim:Simulation", "step", BOTH),
    ("netsim.audit", "lisnet.netsim:Simulation", "audit", BOTH),
    ("netsim.delay_draw", "lisnet.netsim:DelayModel", "delay_for", BOTH),
    ("netsim.post", "lisnet.netsim:Mailbox", "post", BOTH),
    ("netsim.due", "lisnet.netsim:Mailbox", "due", BOTH),
    ("netsim.age_check", "lisnet.netsim:Mailbox", "oldest_age", BOTH),
    ("termination.emit", "lisnet.termination:NodeMachine", "emit", BOTH),
    ("termination.advance", "lisnet.termination:NodeMachine", "advance", BOTH),
    ("consensus.emit", "lisnet.termination", "emit", BOTH),
    ("consensus.absorb", "lisnet.termination", "absorb", BOTH),
    ("termination.epoch_update", "lisnet.termination", "epoch_update", BOTH),
    ("termination.checkpoint", "lisnet.termination", "checkpoint", BOTH),
)

# Spans kept one by one, besides their aggregate.
FULL_SPANS = {"scenario.run_day", "netsim.run_cycle", "netsim.step"}
# Called inside NodeMachine.advance; counted without a clock read, so their
# time stays in the advance span's self time.
COUNT_ONLY = {"termination.epoch_update", "termination.checkpoint"}


class TargetMissing(RuntimeError):
    """A traced target is gone from the program."""


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError as exc:
        raise TargetMissing(f"{module} no longer exists") from exc
    if cls:
        if not hasattr(obj, cls):
            raise TargetMissing(f"{module}.{cls} no longer exists")
        obj = getattr(obj, cls)
    return obj


def patch(owner: str, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)``; return an undo."""
    obj = resolve(owner)
    raw = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
    if raw is None or not callable(getattr(obj, attr)):
        raise TargetMissing(f"{owner.replace(':', '.')}.{attr} no longer exists")
    if isinstance(raw, classmethod):
        setattr(obj, attr, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(obj, attr, make_wrapper(raw))
    return lambda: setattr(obj, attr, raw)


class Tracer:
    """Spans and counts for one traced workload run."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.extra: dict[str, float] = {}
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack = [[0.0]]  # child time of each open span, root first
        self._open_full = [-1]
        self._undo = []

    def install(self) -> None:
        try:
            for name, owner, attr, _ in TARGETS:
                self._undo.append(patch(owner, attr, lambda fn, n=name: self._wrap(n, fn)))
        except TargetMissing:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def check_hit(self, kind: str) -> None:
        """Fail when a target this workload kind must reach was never called."""
        for name, owner, attr, kinds in TARGETS:
            if kind in kinds and self.stats[name][0] == 0:
                raise TargetMissing(
                    f"{owner.replace(':', '.')}.{attr} ({name}) was never called; "
                    "the program no longer reaches it there"
                )

    def _add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.extra[key] = max(self.extra.get(key, value), value)

    def _hook(self, name: str):
        if name == "consensus.emit":
            return lambda args, out: self._add("envelopes", len(out))
        if name == "netsim.due":
            return lambda args, out: self._add("delivered", len(out))
        if name == "netsim.step":
            return lambda args, out: self._add("node_steps", len(args[0].machines))
        if name == "cli.trace_write":
            return lambda args, out: (
                self._add("trace_rows", len(args[1])),
                self._add("trace_bytes", os.path.getsize(args[0])),
            )
        if name == "netsim.run_cycle":
            return lambda args, out: (
                self._max("theta_max", out.theta),
                self._max("max_conservation_error", out.max_conservation_error),
            )
        if name == "scenario.run_day":
            return lambda args, out: (
                self._add("instants", len(out.records)),
                self._add("infeasible", out.infeasible_count),
                self._add("overruns", out.budget_exceeded_count),
            )
        return None

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        hook = self._hook(name)
        spans = self.spans if name in FULL_SPANS else None
        open_full = self._open_full

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if spans is not None:
                index = len(spans)
                span = [name, 0.0, 0.0, open_full[-1]]
                spans.append(span)
                open_full.append(index)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, out)
                return out
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if spans is not None:
                    open_full.pop()
                    span[1] = t0
                    span[2] = t1

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of this traced run, by name."""
        calls = {n: s[0] for n, s in self.stats.items()}
        total = {n: s[1] for n, s in self.stats.items()}
        own = {n: s[2] for n, s in self.stats.items()}
        x = self.extra.get
        posted = calls["netsim.post"]
        return {
            "topology.diameter_s": total["topology.diameter"],
            "topology.build_weights_s": total["topology.build_weights"],
            "consensus.emit_s": total["consensus.emit"],
            "consensus.absorb_s": total["consensus.absorb"],
            "consensus.envelopes": x("envelopes", 0),
            "termination.emit_self_s": own["termination.emit"],
            "termination.advance_self_s": own["termination.advance"],
            "termination.epoch_merges": calls["termination.epoch_update"],
            "termination.checkpoints": calls["termination.checkpoint"],
            "termination.theta_max": x("theta_max", 0),
            "netsim.steps": calls["netsim.step"],
            "netsim.node_steps": x("node_steps", 0),
            "netsim.step_self_s": own["netsim.step"],
            "netsim.delay_draws": calls["netsim.delay_draw"],
            "netsim.delay_draw_s": total["netsim.delay_draw"],
            "netsim.post_s": total["netsim.post"],
            "netsim.due_s": total["netsim.due"],
            "netsim.messages_posted": posted,
            "netsim.messages_delivered": x("delivered", 0),
            "netsim.delivered_ratio": x("delivered", 0) / posted if posted else 0.0,
            "netsim.audits": calls["netsim.audit"],
            "netsim.audit_s": total["netsim.audit"],
            "netsim.age_check_s": total["netsim.age_check"],
            "netsim.max_conservation_error": x("max_conservation_error", 0.0),
            "netsim.run_cycle_self_s": own["netsim.run_cycle"],
            "apportioning.self_s": own["apportioning.init_states"]
            + own["apportioning.reference_command"]
            + own["apportioning.closed_form_oracle"],
            "scenario.plan_self_s": own["scenario.run_day"] + own["scenario.bounds_at"],
            "scenario.instants": x("instants", 0),
            "scenario.infeasible": x("infeasible", 0),
            "scenario.overruns": x("overruns", 0),
            "cli.config_load_s": total["cli.config_load"],
            "cli.trace_write_s": total["cli.trace_write"],
            "cli.trace_rows": x("trace_rows", 0),
            "cli.trace_bytes": x("trace_bytes", 0),
            "cli.results_write_s": total["cli.results_write"],
        }

    def cycles(self) -> int:
        return self.stats["netsim.run_cycle"][0]
