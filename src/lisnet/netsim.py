"""Deterministic lockstep network simulator with bounded message delays.

Rounds are integer-indexed. In each round every active node first posts its
weighted shares to the delay channel, then consumes exactly the shares that
come due this round; epoch merges and checkpoint decisions happen inside
the node machines. The simulator itself never creates or destroys mass,
which is what lets the conservation audit demand equality up to accumulated
rounding and nothing more.

All randomness flows from a single seeded generator and every iteration
order is sorted, so a given (configuration, seed) pair reproduces the same
run bit for bit.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .apportioning import (
    ApportionProblem,
    ReferenceCommand,
    init_states,
    reference_command,
)
from .consensus import ConsensusState, Envelope, global_extremes_oracle
from .errors import ConfigurationError, InvariantError, NonTerminationError
from .termination import CheckpointEvent, CheckpointSchedule, NodeMachine
from .topology import Graph, WeightMatrix

CONSERVATION_TOL = 1e-9

FIXED = "fixed"
STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class DelayModel:
    """Per-message delay assignment, either fixed per directed edge or sampled.

    Fixed mode reads ``fixed_delays[(src, dst)]`` (missing entries mean no
    delay). Stochastic mode draws each message's delay independently and
    uniformly from {0, ..., tau_bar}, or from ``probabilities`` over the
    same support when given.
    """

    kind: str
    tau_bar: int
    fixed_delays: Mapping[tuple[int, int], int] | None = None
    probabilities: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in (FIXED, STOCHASTIC):
            raise ConfigurationError(f"unknown delay model kind {self.kind!r}")
        if self.tau_bar < 0:
            raise ConfigurationError("delay bound must be non-negative")
        if self.kind == FIXED:
            for edge, d in (self.fixed_delays or {}).items():
                if not 0 <= d <= self.tau_bar:
                    raise ConfigurationError(
                        f"fixed delay {d} on {edge} outside [0, {self.tau_bar}]"
                    )
        if self.probabilities is not None:
            if self.kind != STOCHASTIC:
                raise ConfigurationError("delay probabilities need the stochastic model")
            if len(self.probabilities) != self.tau_bar + 1:
                raise ConfigurationError(
                    f"need {self.tau_bar + 1} delay probabilities, "
                    f"got {len(self.probabilities)}"
                )
            probs = self.probabilities
            if not (all(0 <= p < math.inf for p in probs) and sum(probs) > 0):
                raise ConfigurationError("delay probabilities must be finite and non-negative")

    @classmethod
    def fixed(
        cls, delays: Mapping[tuple[int, int], int], tau_bar: int | None = None
    ) -> "DelayModel":
        bound = max(delays.values(), default=0) if tau_bar is None else tau_bar
        return cls(kind=FIXED, tau_bar=bound, fixed_delays=dict(delays))

    @classmethod
    def fixed_random(cls, graph: Graph, tau_bar: int, seed: int) -> "DelayModel":
        """Each direction of each edge gets its own constant delay <= tau_bar."""
        rng = random.Random(seed)
        delays = {}
        for a, b in sorted(graph.edges):
            delays[(a, b)] = rng.randint(0, tau_bar)
            delays[(b, a)] = rng.randint(0, tau_bar)
        return cls(kind=FIXED, tau_bar=tau_bar, fixed_delays=delays)

    @classmethod
    def stochastic(
        cls, tau_bar: int, probabilities: Sequence[float] | None = None
    ) -> "DelayModel":
        probs = None if probabilities is None else tuple(probabilities)
        return cls(kind=STOCHASTIC, tau_bar=tau_bar, probabilities=probs)

    @classmethod
    def zero(cls) -> "DelayModel":
        return cls(kind=FIXED, tau_bar=0, fixed_delays={})

    def delay_for(
        self, rng: random.Random, src: int, dst: int, cap: int | None = None
    ) -> int:
        if self.kind == FIXED:
            d = (self.fixed_delays or {}).get((src, dst), 0)
        elif self.probabilities is not None:
            d = rng.choices(range(self.tau_bar + 1), weights=self.probabilities)[0]
        else:
            d = rng.randint(0, self.tau_bar)
        if cap is not None and d > cap:
            d = cap
        return d


class Mailbox:
    """Envelopes awaiting delivery, keyed by delivery round.

    Posting order is preserved within a round, so delivery is deterministic
    given a deterministic posting sequence.
    """

    def __init__(self):
        self._pending: dict[int, list[Envelope]] = {}
        self.posted = 0
        self.delivered = 0

    def post(self, env: Envelope, deliver_step: int) -> None:
        self._pending.setdefault(deliver_step, []).append(env)
        self.posted += 1

    def due(self, step: int) -> list[Envelope]:
        """Remove and return everything due at ``step``; each envelope once."""
        out = self._pending.pop(step, [])
        self.delivered += len(out)
        return out

    def pending_count(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def pending_mass(self) -> tuple[float, float]:
        mass_r = 0.0
        mass_s = 0.0
        for batch in self._pending.values():
            for env in batch:
                mass_r += env.payload_r
                mass_s += env.payload_s
        return mass_r, mass_s

    def oldest_age(self, now: int) -> int:
        """Rounds the longest-pending envelope has been in flight."""
        age = 0
        for step, batch in self._pending.items():
            for env in batch:
                age = max(age, now - env.send_step)
        return age


@dataclass(frozen=True)
class AuditReport:
    """Global bookkeeping snapshot taken between rounds."""

    step: int
    node_mass_r: float
    inflight_mass_r: float
    node_mass_s: float
    inflight_mass_s: float
    window_max: float
    window_min: float
    max_gap: float


RECORD_NONE = "none"
RECORD_CHECKPOINTS = "checkpoints"
RECORD_STEPS = "steps"


class Simulation:
    """Drives a set of node machines in lockstep rounds over a delay channel."""

    def __init__(
        self,
        graph: Graph,
        weights: WeightMatrix,
        machines: Mapping[int, NodeMachine],
        delay_model: DelayModel,
        *,
        seed: int = 0,
        record: str = RECORD_NONE,
    ):
        if set(machines) != set(graph.nodes):
            raise ConfigurationError("machines must cover exactly the graph's nodes")
        if record not in (RECORD_NONE, RECORD_CHECKPOINTS, RECORD_STEPS):
            raise ConfigurationError(f"unknown record mode {record!r}")
        self.graph = graph
        self.weights = weights
        self.machines = dict(sorted(machines.items()))
        self.delay_model = delay_model
        self.rng = random.Random(seed)
        self.mailbox = Mailbox()
        self.step_index = 0
        self.record = record
        self._caps = {}
        for a, b in graph.edges:
            cap = graph.delay_bounds.get((a, b) if a < b else (b, a))
            cap = delay_model.tau_bar if cap is None else min(cap, delay_model.tau_bar)
            self._caps[(a, b)] = cap
            self._caps[(b, a)] = cap
        for edge, d in (delay_model.fixed_delays or {}).items():
            if edge in self._caps and d > self._caps[edge]:
                raise ConfigurationError(
                    f"fixed delay {d} on {edge} exceeds the edge bound {self._caps[edge]}"
                )
        depth = delay_model.tau_bar + 1
        self._window = {
            i: deque([(m.state.r, m.state.s)], maxlen=depth)
            for i, m in self.machines.items()
        }
        self._target_r = sum(m.state.r for m in self.machines.values())
        self._target_s = sum(m.state.s for m in self.machines.values())
        self.max_conservation_error = 0.0
        self.audits: list[AuditReport] = [self.audit()]
        self.checkpoint_events: list[CheckpointEvent] = []
        self.trace_rows: list[dict] = []
        if record == RECORD_STEPS:
            self._record_step_rows()

    def ratios(self) -> dict[int, float]:
        return {i: m.state.ratio() for i, m in self.machines.items()}

    @property
    def all_frozen(self) -> bool:
        return all(m.frozen for m in self.machines.values())

    def audit(self) -> AuditReport:
        node_r = sum(m.state.r for m in self.machines.values())
        node_s = sum(m.state.s for m in self.machines.values())
        flight_r, flight_s = self.mailbox.pending_mass()
        hi, lo = global_extremes_oracle(self._window)
        return AuditReport(
            step=self.step_index,
            node_mass_r=node_r,
            inflight_mass_r=flight_r,
            node_mass_s=node_s,
            inflight_mass_s=flight_s,
            window_max=hi,
            window_min=lo,
            max_gap=hi - lo,
        )

    def _check_conservation(self, report: AuditReport) -> None:
        for total, target in (
            (report.node_mass_r + report.inflight_mass_r, self._target_r),
            (report.node_mass_s + report.inflight_mass_s, self._target_s),
        ):
            rel = abs(total - target) / max(1.0, abs(target))
            if rel > self.max_conservation_error:
                self.max_conservation_error = rel
            if rel > CONSERVATION_TOL:
                raise InvariantError(
                    f"mass leak at step {report.step}: total {total} vs "
                    f"initial {target} (relative {rel:.3e})"
                )

    def _record_step_rows(self) -> None:
        for i, m in self.machines.items():
            term = m.term
            self.trace_rows.append(
                {
                    "step": self.step_index,
                    "node": i,
                    "r": m.state.r,
                    "s": m.state.s,
                    "ratio": m.state.ratio(),
                    "z": term.z if term else None,
                    "y": term.y if term else None,
                    "theta": term.theta if term else None,
                    "frozen": m.frozen,
                }
            )

    def step(self) -> None:
        """One lockstep round: emit everywhere, deliver, absorb everywhere."""
        k = self.step_index
        for i, machine in self.machines.items():
            for env in machine.emit():
                delay = self.delay_model.delay_for(
                    self.rng, env.src, env.dst, cap=self._caps.get((env.src, env.dst))
                )
                self.mailbox.post(env, k + delay)
        inboxes: dict[int, list[Envelope]] = {}
        for env in self.mailbox.due(k):
            inboxes.setdefault(env.dst, []).append(env)
        for i, machine in self.machines.items():
            event = machine.advance(inboxes.get(i, []))
            if event is not None:
                self.checkpoint_events.append(event)
                if self.record == RECORD_CHECKPOINTS:
                    self.trace_rows.append(
                        {
                            "step": event.step,
                            "node": event.node,
                            "r": machine.state.r,
                            "s": machine.state.s,
                            "ratio": event.ratio,
                            "z": event.z,
                            "y": event.y,
                            "theta": event.theta,
                            "frozen": event.frozen,
                        }
                    )
        self.step_index += 1
        for i, machine in self.machines.items():
            self._window[i].append((machine.state.r, machine.state.s))
        if self.mailbox.oldest_age(self.step_index) > self.delay_model.tau_bar:
            raise InvariantError("an envelope outlived the delay bound")
        report = self.audit()
        self.audits.append(report)
        self._check_conservation(report)
        if self.record == RECORD_STEPS:
            self._record_step_rows()

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def run_until_frozen(self, max_steps: int) -> None:
        while not self.all_frozen:
            if self.step_index >= max_steps:
                raise NonTerminationError(
                    f"no termination within {max_steps} steps "
                    f"(step {self.step_index})"
                )
            self.step()


@dataclass
class CycleResult:
    """Outcome of one full consensus-and-terminate cycle."""

    commands: ReferenceCommand
    theta: int
    steps: int
    r_star: dict[int, float]
    s_star: dict[int, float]
    checkpoint_events: list[CheckpointEvent]
    audits: list[AuditReport]
    trace_rows: list[dict]
    max_conservation_error: float


def simulate_averaging(
    graph: Graph,
    weights: WeightMatrix,
    r0: Mapping[int, float],
    s0: Mapping[int, float],
    delay_model: DelayModel,
    *,
    seed: int = 0,
    record: str = RECORD_NONE,
) -> Simulation:
    """Plain ratio consensus with no stopping logic; caller decides how long."""
    machines = {
        i: NodeMachine(
            ConsensusState(node=i, r=r0[i], s=s0[i]),
            weights,
            graph.neighbors(i),
        )
        for i in graph.nodes
    }
    return Simulation(graph, weights, machines, delay_model, seed=seed, record=record)


def run_cycle(
    graph: Graph,
    weights: WeightMatrix,
    problem: ApportionProblem,
    delay_model: DelayModel,
    schedule: CheckpointSchedule,
    rho: float,
    *,
    seed: int = 0,
    max_steps: int | None = None,
    record: str = RECORD_NONE,
) -> CycleResult:
    """Run one dispatch cycle to unanimous freeze and read off the commands."""
    if set(problem.bounds) != set(graph.nodes):
        raise ConfigurationError("problem nodes must match the graph's nodes")
    if rho is None or not rho > 0.0:
        raise ConfigurationError("a terminating cycle needs a positive threshold")
    states = init_states(problem)
    machines = {
        i: NodeMachine(states[i], weights, graph.neighbors(i), schedule, rho)
        for i in graph.nodes
    }
    sim = Simulation(graph, weights, machines, delay_model, seed=seed, record=record)
    ceiling = 1000 * schedule.checkpoint_len if max_steps is None else max_steps
    sim.run_until_frozen(ceiling)
    thetas = {m.term.theta for m in machines.values()}
    if len(thetas) != 1:
        raise InvariantError(f"nodes froze at different checkpoints: {sorted(thetas)}")
    commands = ReferenceCommand(
        {
            i: reference_command(problem, m.term.r_star, m.term.s_star, i)
            for i, m in machines.items()
        }
    )
    return CycleResult(
        commands=commands,
        theta=thetas.pop(),
        steps=sim.step_index,
        r_star={i: m.term.r_star for i, m in machines.items()},
        s_star={i: m.term.s_star for i, m in machines.items()},
        checkpoint_events=sim.checkpoint_events,
        audits=sim.audits,
        trace_rows=sim.trace_rows,
        max_conservation_error=sim.max_conservation_error,
    )


def run_naive_averaging(
    graph: Graph,
    initial: Mapping[int, float],
    delay_model: DelayModel,
    steps: int,
    *,
    seed: int = 0,
) -> dict[int, float]:
    """Delay-oblivious averaging baseline: misconverges when delays bite.

    Every round each node broadcasts its raw value and then averages its own
    value with the latest value it has heard from each neighbor, weighting
    everything 1/(degree + 1). Until a neighbor is first heard from, the
    node substitutes its own value. With no delays on a regular graph this
    is exact averaging; with delays it has no conservation property and
    settles wherever the stale-read dynamics take it.
    """
    rng = random.Random(seed)
    x = {i: float(initial[i]) for i in graph.nodes}
    last = {i: {j: x[i] for j in graph.neighbors(i)} for i in graph.nodes}
    pending: dict[int, list[tuple[int, int, float]]] = {}
    for k in range(steps):
        for i in graph.nodes:
            for j in graph.neighbors(i):
                d = delay_model.delay_for(rng, i, j)
                pending.setdefault(k + d, []).append((i, j, x[i]))
        for src, dst, value in pending.pop(k, []):
            last[dst][src] = value
        x = {
            i: (x[i] + sum(last[i].values())) / (graph.degree(i) + 1)
            for i in graph.nodes
        }
    return x
