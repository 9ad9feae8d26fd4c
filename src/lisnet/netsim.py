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

import gc
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

from .apportioning import (
    ApportionProblem,
    ReferenceCommand,
    closed_form_oracle,
    frozen_fraction,
    init_states,
    ordered_sum,
    reference_command,
)
from .errors import ConfigurationError, InvariantError, NonTerminationError
from .termination import CheckpointSchedule, NodeMachine
from .topology import Graph, diameter, edge_key

CONSERVATION_TOL = 1e-9

FIXED = "fixed"
STOCHASTIC = "stochastic"
# With at most this many delays still to draw, one getrandbits call per delay
# is cheaper than more bulk passes: each pass costs several calls whatever its
# size, and randint rejects about half of its words at tau_bar = 3, so a
# dozen delays (a six-node cycle's step) would take about five passes.
BULK_MIN = 16


@contextmanager
def collector_paused() -> Iterator[None]:
    """Hold off Python's cyclic garbage collector for the ``with`` body.

    Everything the hot loop makes (envelope tuples, inbox dicts and lists,
    trace rows) is freed by reference counting, so the collector's
    rescans of it find nothing and only cost time. The collector is turned
    back on afterwards, also when the body raises, only if it was on: a
    nested pause, or a caller that had turned it off, keeps its state.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class DelayModel:
    """Per-message delay assignment, either fixed per directed edge or sampled.

    Fixed mode reads ``fixed_delays[(src, dst)]`` (missing entries mean no
    delay) and draws nothing. Stochastic mode draws each message's delay
    independently and uniformly from {0, ..., tau_bar}, or from
    ``probabilities`` over the same support when given. Each mode rejects
    the other's field.

    ``bounds`` caps the delay on an undirected edge, in both directions. A
    key may name the edge either way round; the field holds the caps keyed
    by normalized edge. A drawn delay above its link's cap is lowered to
    the cap, and a fixed delay above it is an error.

    :meth:`delay_for` returns a whole step's delays in one call. It is the
    per-message stream exactly: the same values, in order, and the same
    generator state afterwards as one ``rng.randint(0, tau_bar)`` (or one
    ``rng.choices(..., cum_weights=...)``) per message.
    """

    kind: str
    tau_bar: int
    fixed_delays: Mapping[tuple[int, int], int] | None = None
    probabilities: tuple[float, ...] | None = None
    bounds: Mapping[tuple[int, int], int] | None = None

    def __post_init__(self):
        if self.kind not in (FIXED, STOCHASTIC):
            raise ConfigurationError(f"unknown delay model kind {self.kind!r}")
        if self.tau_bar < 0:
            raise ConfigurationError("delay bound must be non-negative")
        bounds = {}
        # the caps below tau_bar, _caps[(src, dst)]; the others cannot bind,
        # so a model without such caps returns its draws as they are
        caps = {}
        for (a, b), cap in (self.bounds or {}).items():
            edge = edge_key(a, b)
            if edge in bounds:
                raise ConfigurationError(f"edge {edge} has two delay bounds")
            if cap < 0:
                raise ConfigurationError(f"negative delay bound on edge {edge}")
            bounds[edge] = cap
            if cap < self.tau_bar:
                caps[(a, b)] = caps[(b, a)] = cap
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "_caps", caps)
        if self.kind == STOCHASTIC and self.fixed_delays is not None:
            raise ConfigurationError("fixed delays need the fixed model")
        if self.kind == FIXED:
            for link, d in (self.fixed_delays or {}).items():
                if not 0 <= d <= self.tau_bar:
                    raise ConfigurationError(
                        f"fixed delay {d} on {link} outside [0, {self.tau_bar}]"
                    )
                if d > caps.get(link, d):
                    raise ConfigurationError(
                        f"fixed delay {d} on {link} exceeds the edge bound {caps[link]}"
                    )
        if self.probabilities is not None:
            if self.kind != STOCHASTIC:
                raise ConfigurationError("delay probabilities need the stochastic model")
            if len(self.probabilities) != self.tau_bar + 1:
                raise ConfigurationError(
                    f"need {self.tau_bar + 1} delay probabilities, "
                    f"got {len(self.probabilities)}"
                )
            if not all(0 <= p < math.inf for p in self.probabilities):
                raise ConfigurationError("delay probabilities must be finite and non-negative")
            # accumulated once, as rng.choices(weights=...) would on every draw
            cum_weights = tuple(accumulate(self.probabilities))
            try:
                total = float(cum_weights[-1])
            except OverflowError:
                total = math.inf
            if not 0.0 < total < math.inf:
                raise ConfigurationError(
                    "delay probabilities must have a positive, finite total"
                )
            object.__setattr__(self, "_cum_weights", cum_weights)
        uniform = self.kind == STOCHASTIC and self.probabilities is None
        bits = (self.tau_bar + 1).bit_length() if uniform else 0
        object.__setattr__(self, "_bits", bits)
        # for bits <= 8, getrandbits(bits) is the top byte of one 32-bit word
        # shifted right by 8 - bits; this maps that byte to the delay, or to
        # 0xFF where randint rejects the value and draws again
        table = None
        if 0 < bits <= 8:
            values = [b >> (8 - bits) for b in range(256)]
            table = bytes(v if v <= self.tau_bar else 0xFF for v in values)
        object.__setattr__(self, "_table", table)

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

    def delay_for(self, rng: random.Random, links: Sequence[tuple]) -> Sequence[int]:
        """One delay per link, in order; each link starts ``(src, dst)``.

        Links are a step's envelopes in posting order, or any tuples that
        start with source and destination. The fixed model looks them up;
        the stochastic models draw ``len(links)`` delays from ``rng`` and
        lower each to its link's cap.
        """
        if self.kind == FIXED:
            # checked against the caps once, in __post_init__
            fixed = self.fixed_delays or {}
            return [fixed.get((link[0], link[1]), 0) for link in links]
        count = len(links)
        bits = self._bits
        tau_bar = self.tau_bar
        if not bits:
            delays = rng.choices(range(tau_bar + 1), cum_weights=self._cum_weights, k=count)
        else:
            getrandbits = rng.getrandbits
            table = self._table
            need = count
            if table is None:
                delays = []
            else:
                # getrandbits(32 * need) holds the words of need getrandbits(bits)
                # calls, lowest first. A pass draws one word per delay still
                # missing, all of which the per-message loop draws too, so the
                # generator ends where that loop leaves it
                delays = bytearray()
                while need > BULK_MIN:
                    words = getrandbits(32 * need).to_bytes(4 * need, "little")
                    delays += words[3::4].translate(table).replace(b"\xff", b"")
                    need = count - len(delays)
            # randint's own rejection loop: the last few delays, or all of
            # them when tau_bar >= 255
            for _ in range(need):
                d = getrandbits(bits)
                while d > tau_bar:
                    d = getrandbits(bits)
                delays.append(d)
        caps = self._caps
        if caps:
            delays = [min(d, caps.get((link[0], link[1]), d)) for link, d in zip(links, delays)]
        return delays


class Mailbox:
    """Envelope tuples awaiting delivery, keyed by delivery round.

    An envelope is a tuple ``(src, dst, send_step, payload_r, payload_s,
    payload_z, payload_y)``, as ``termination.emit`` builds it. Posting order
    is preserved within a round, so delivery is deterministic given a
    deterministic posting sequence. Envelopes must be posted in
    non-decreasing send step, as the simulator does, so that the first
    envelope of each round is its oldest (see :meth:`oldest_age`).
    """

    def __init__(self):
        self._pending: dict[int, list[tuple]] = {}

    def post(self, env: tuple, deliver_step: int) -> None:
        try:
            self._pending[deliver_step].append(env)
        except KeyError:
            self._pending[deliver_step] = [env]

    def due(self, step: int) -> list[tuple]:
        """Remove and return everything due at ``step``; each envelope once."""
        return self._pending.pop(step, [])

    def pending_mass(self) -> tuple[float, float]:
        """Summed round by round, each in posting order (the audit's fixed order)."""
        mass_r = 0.0
        mass_s = 0.0
        for batch in self._pending.values():
            for _, _, _, r, s, _, _ in batch:
                mass_r += r
                mass_s += s
        return mass_r, mass_s

    def oldest_age(self, now: int) -> int:
        """Rounds the longest-pending envelope has been in flight.

        Reads only the first envelope of each pending round, which is the
        round's oldest because posting is in non-decreasing send step.
        """
        oldest = now
        for batch in self._pending.values():
            sent = batch[0][2]
            if sent < oldest:
                oldest = sent
        return max(0, now - oldest)


class Simulation:
    """Drives one node machine per graph node in lockstep rounds over a delay channel.

    ``weights`` maps each node to its share weight and ``states`` to its
    initial consensus states ``(r0, s0)``.
    The simulator builds every node's ``NodeMachine`` on ``schedule`` with
    stopping threshold ``rho`` (the default 0 never freezes).
    ``trace_rows`` hold a row per node at each checkpoint, or with
    ``record_steps`` every node's state after every step.
    """

    def __init__(
        self,
        graph: Graph,
        weights: Mapping[int, float],
        states: Mapping[int, tuple[float, float]],
        delay_model: DelayModel,
        schedule: CheckpointSchedule,
        rho: float = 0.0,
        *,
        seed: int = 0,
        record_steps: bool = False,
    ):
        if set(states) != set(graph.nodes):
            raise ConfigurationError("states must be keyed by exactly the graph's nodes")
        self.machines = {
            i: NodeMachine(i, *states[i], weights[i], graph.neighbors(i), schedule, rho)
            for i in sorted(graph.nodes)
        }
        # the step's iteration order, built once
        self._machines = list(self.machines.values())
        self._nodes = list(self.machines)
        self.delay_model = delay_model
        self.rng = random.Random(seed)
        self.mailbox = Mailbox()
        self.step_index = 0
        self._record_steps = record_steps
        # conserved totals, summed in node order like every audit after them
        self._target_r = ordered_sum(m.r for m in self._machines)
        self._target_s = ordered_sum(m.s for m in self._machines)
        self._scale_r = max(1.0, abs(self._target_r))
        self._scale_s = max(1.0, abs(self._target_s))
        self.max_conservation_error = 0.0
        self.audit()
        # machines frozen so far, counted at their checkpoints
        self._frozen = 0
        # (step, node, r, s, ratio, z, y, theta, frozen) tuples, see CycleResult
        self.trace_rows: list[tuple] = []
        if record_steps:
            self._record_step_rows()

    def ratios(self) -> dict[int, float]:
        return {i: m.ratio() for i, m in self.machines.items()}

    def audit(self) -> None:
        """Enforce mass conservation over held and in-flight mass.

        Node mass is summed in node order and in-flight mass round by round,
        each round in posting order: plain sequential float additions, so
        the totals do not depend on how the interpreter's ``sum()`` rounds.
        Raises ``InvariantError`` when r or s mass (held plus in flight)
        drifts from its initial total by more than ``CONSERVATION_TOL``
        relative. Runs at construction and after every step; only the
        running ``max_conservation_error`` is kept.
        """
        k = self.step_index
        node_r = 0.0
        node_s = 0.0
        for m in self._machines:
            node_r += m.r
            node_s += m.s
        flight_r, flight_s = self.mailbox.pending_mass()
        total_r = node_r + flight_r
        total_s = node_s + flight_s
        rel_r = abs(total_r - self._target_r) / self._scale_r
        rel_s = abs(total_s - self._target_s) / self._scale_s
        if rel_r > self.max_conservation_error:
            self.max_conservation_error = rel_r
        if rel_s > self.max_conservation_error:
            self.max_conservation_error = rel_s
        if rel_r > CONSERVATION_TOL or rel_s > CONSERVATION_TOL:
            if rel_r > CONSERVATION_TOL:
                total, target, rel = total_r, self._target_r, rel_r
            else:
                total, target, rel = total_s, self._target_s, rel_s
            raise InvariantError(
                f"mass leak at step {k}: total {total} vs "
                f"initial {target} (relative {rel:.3e})"
            )

    def _record_step_rows(self) -> None:
        k = self.step_index
        append = self.trace_rows.append
        for i, m in self.machines.items():
            append((k, i, m.r, m.s, m.ratio(), m.z, m.y, m.theta, m.frozen))

    def step(self) -> None:
        """One lockstep round: emit everywhere, deliver, absorb everywhere."""
        k = self.step_index
        machines = self._machines
        mailbox = self.mailbox
        post = mailbox.post
        envelopes: list[tuple] = []
        for machine in machines:
            envelopes += machine.emit()
        delays = self.delay_model.delay_for(self.rng, envelopes)
        for env, d in zip(envelopes, delays):
            post(env, k + d)
        inboxes: dict[int, list[tuple]] = {}
        inbox_of = inboxes.get
        for env in mailbox.due(k):
            dst = env[1]
            inbox = inbox_of(dst)
            if inbox is None:
                inboxes[dst] = [env]
            else:
                inbox.append(env)
        rows = None if self._record_steps else self.trace_rows
        frozen = self._frozen
        for i, machine in zip(self._nodes, machines):
            tested = machine.advance(inbox_of(i, ()))
            if tested is not None:
                if rows is not None:
                    r, s = machine.r, machine.s
                    rows.append((machine.k, i, r, s, r / s, *tested, machine.frozen))
                if machine.frozen:
                    frozen += 1
        self._frozen = frozen
        self.step_index = k = k + 1
        if mailbox.oldest_age(k) > self.delay_model.tau_bar:
            raise InvariantError("an envelope outlived the delay bound")
        self.audit()
        if self._record_steps:
            self._record_step_rows()

    def run(self, steps: int) -> None:
        with collector_paused():
            for _ in range(steps):
                self.step()

    def run_until_frozen(self, max_steps: int) -> None:
        n = len(self.machines)
        with collector_paused():
            while self._frozen != n:
                if self.step_index >= max_steps:
                    raise NonTerminationError(
                        f"no termination within {max_steps} steps "
                        f"(step {self.step_index})"
                    )
                self.step()


@dataclass
class CycleResult:
    """Outcome of one full consensus-and-terminate cycle.

    ``trace_rows`` holds one ``(step, node, r, s, ratio, z, y, theta,
    frozen)`` tuple per recorded node state: the ``scenario.TRACE_COLUMNS``
    order without the leading ``cycle`` and the frozen-only ``pi_star`` and
    ``delivered_power``: a node's state and tested z, y, theta at each
    checkpoint, or with ``record_steps`` after every step. Every node runs
    the stopping machine, so no cell is None.
    """

    commands: ReferenceCommand
    theta: int
    steps: int
    trace_rows: list[tuple]
    max_conservation_error: float


def simulate_averaging(
    graph: Graph,
    weights: Mapping[int, float],
    r0: Mapping[int, float],
    s0: Mapping[int, float],
    delay_model: DelayModel,
    *,
    seed: int = 0,
) -> Simulation:
    """Ratio consensus that never stops; the caller decides how long.

    Every node runs the stopping machine with ``rho`` 0 on the graph's own
    schedule: the extremes propagate and reseed at each checkpoint, and no
    node freezes.
    """
    schedule = CheckpointSchedule(max(1, diameter(graph)), delay_model.tau_bar)
    states = {i: (r0[i], s0[i]) for i in graph.nodes}
    return Simulation(graph, weights, states, delay_model, schedule, seed=seed)


def run_cycle(
    graph: Graph,
    weights: Mapping[int, float],
    problem: ApportionProblem,
    delay_model: DelayModel,
    schedule: CheckpointSchedule,
    rho: float,
    *,
    seed: int = 0,
    record_steps: bool = False,
) -> CycleResult:
    """Run one dispatch cycle to unanimous freeze, read off the commands and check them."""
    if not rho > 0.0:
        raise ConfigurationError("a terminating cycle needs a positive threshold")
    sim = Simulation(
        graph, weights, init_states(problem), delay_model, schedule, rho,
        seed=seed, record_steps=record_steps,
    )
    machines = sim.machines
    # all froze at one theta: after a split freeze, a frozen node raises
    # ProtocolError on live traffic within tau_bar < checkpoint_len steps
    sim.run_until_frozen(1000 * schedule.checkpoint_len)
    # a frozen machine never absorbs again: its state is its snapshot r*, s*
    commands = ReferenceCommand(
        {i: reference_command(problem, m.r, m.s, i) for i, m in machines.items()}
    )
    # the answer is audited like the mass: a fraction within rho of the
    # closed form's puts the command within rho * span of it, and by the
    # triangle inequality the node bounds bound the total up to rounding (on
    # oracle-sweep's 1,600 instances, seeds 0-7, no total failed alone)
    q_star = problem.fraction
    for i, m in machines.items():
        gap = abs(frozen_fraction(m.r, m.s, i) - q_star)
        if gap > rho:
            raise InvariantError(
                f"node {i}: command {commands[i]!r} is {gap / rho:.3f} rho spans "
                f"from the closed form {closed_form_oracle(problem)[i]!r}"
            )
    return CycleResult(
        commands=commands,
        theta=next(iter(machines.values())).theta,
        steps=sim.step_index,
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
    links = [(i, j) for i in graph.nodes for j in graph.neighbors(i)]
    pending: dict[int, list[tuple[int, int, float]]] = {}
    for k in range(steps):
        for (i, j), d in zip(links, delay_model.delay_for(rng, links)):
            pending.setdefault(k + d, []).append((i, j, x[i]))
        for src, dst, value in pending.pop(k, []):
            last[dst][src] = value
        x = {
            i: (x[i] + ordered_sum(last[i].values())) / (graph.degree(i) + 1)
            for i in graph.nodes
        }
    return x
