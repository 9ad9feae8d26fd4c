"""Distributed finite-time stopping for ratio consensus under delays.

Each node tracks a running maximum ``z`` and minimum ``y`` of the node
quotients, seeded from its own quotient. The extremes ride piggyback on the
ordinary consensus envelopes, so they experience the same per-link delays.
Merging happens only at epoch boundaries spaced one step wider than the
worst link delay: a value emitted at the start of an epoch is then
guaranteed to arrive before the epoch closes, so one epoch propagates the
extremes one hop, and a diameter's worth of epochs propagates them
everywhere. At every checkpoint (a diameter's worth of epochs plus a flush
allowance) each node compares its gap z - y against the stopping threshold:
below threshold it freezes its numerator and denominator and goes silent,
otherwise both extremes reseed from the node's current quotient and the
next round of epochs begins.

Because every node evaluates the same propagated extremes on the same
schedule, the freeze decision is unanimous: all nodes stop at the same
checkpoint with no extra signalling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .consensus import ConsensusState, Envelope, absorb, emit
from .errors import ConfigurationError, ProtocolError
from .topology import WeightMatrix


@dataclass(frozen=True)
class CheckpointSchedule:
    """Epoch and checkpoint spacing derived from the two global bounds.

    ``diameter`` must upper-bound the true hop diameter and ``tau_bar`` the
    worst per-link delay in iteration units. An isolated node still needs a
    schedule, so the diameter floor is 1.
    """

    diameter: int
    tau_bar: int

    def __post_init__(self):
        if self.diameter < 1:
            raise ConfigurationError("schedule diameter must be at least 1")
        if self.tau_bar < 0:
            raise ConfigurationError("delay bound must be non-negative")

    @property
    def epoch_len(self) -> int:
        return 1 + self.tau_bar

    @property
    def checkpoint_len(self) -> int:
        return self.diameter * (1 + self.tau_bar) + self.tau_bar

    def is_epoch_boundary(self, step: int) -> bool:
        return step > 0 and step % self.epoch_len == 0

    def is_checkpoint(self, step: int) -> bool:
        return step > 0 and step % self.checkpoint_len == 0

    def send_period(self, send_step: int) -> int:
        """Which checkpoint period a value emitted at ``send_step`` belongs to.

        Extremes reseed at every checkpoint, so values from earlier periods
        are stale and must not leak into the current merge window.
        """
        return send_step // self.checkpoint_len + 1


@dataclass(slots=True)
class TerminationState:
    """Running extremes, schedule counters, and the frozen snapshot."""

    z: float
    y: float
    l: int = 1
    theta: int = 1
    frozen: bool = False
    r_star: float | None = None
    s_star: float | None = None


def epoch_update(
    term: TerminationState,
    neighbor_z: Sequence[float],
    neighbor_y: Sequence[float],
) -> TerminationState:
    """Merge neighbor extremes collected over the closing epoch.

    Call only at an epoch boundary; the caller is responsible for feeding
    values that were emitted during the previous epoch window.
    """
    if term.frozen:
        raise ProtocolError("epoch update on a frozen node")
    return replace(
        term,
        z=max(term.z, *neighbor_z) if neighbor_z else term.z,
        y=min(term.y, *neighbor_y) if neighbor_y else term.y,
        l=term.l + 1,
    )


def checkpoint(
    term: TerminationState,
    current_r: float,
    current_s: float,
    rho: float | None,
) -> TerminationState:
    """Freeze below threshold, otherwise reseed both extremes and continue.

    ``rho`` of None never freezes (probe mode for diagnostics and tests).
    Call only at a checkpoint boundary.
    """
    if term.frozen:
        raise ProtocolError("checkpoint on a frozen node")
    if rho is not None and term.z - term.y < rho:
        return replace(term, frozen=True, r_star=current_r, s_star=current_s)
    q = current_r / current_s
    return replace(term, z=q, y=q, theta=term.theta + 1)


@dataclass(frozen=True)
class CheckpointEvent:
    """What a node saw and decided at one checkpoint instant."""

    step: int
    node: int
    theta: int
    z: float
    y: float
    gap: float
    frozen: bool
    ratio: float


class NodeMachine:
    """One node's full protocol loop: consensus plus stopping bookkeeping.

    The machine is driven in lockstep rounds by a simulator: every round it
    first emits the weighted shares of its current state, then absorbs the
    envelopes due this round. Pass ``schedule=None`` to run plain ratio
    consensus with no stopping logic at all.
    """

    def __init__(
        self,
        state: ConsensusState,
        weights: WeightMatrix,
        neighbors: Iterable[int],
        schedule: CheckpointSchedule | None = None,
        rho: float | None = None,
    ):
        if rho is not None and not rho > 0.0:
            raise ConfigurationError("stopping threshold must be positive")
        self.state = state
        self.weights = weights
        self.neighbors = tuple(sorted(neighbors))
        self.schedule = schedule
        self.rho = rho
        self.term: TerminationState | None = None
        if schedule is not None:
            q = state.ratio()
            self.term = TerminationState(z=q, y=q)
        self._buf_z = -math.inf
        self._buf_y = math.inf

    @property
    def node(self) -> int:
        return self.state.node

    @property
    def frozen(self) -> bool:
        return self.term is not None and self.term.frozen

    def emit(self) -> list[Envelope]:
        """Shares of the current state; a frozen node emits nothing."""
        if self.frozen:
            return []
        if self.term is None:
            return emit(self.state, self.weights, self.neighbors)
        return emit(
            self.state, self.weights, self.neighbors, z=self.term.z, y=self.term.y
        )

    def advance(self, inbox: Sequence[Envelope]) -> CheckpointEvent | None:
        """Absorb the envelopes due this round and roll one step forward.

        Runs the epoch merge and the checkpoint decision when the new step
        index lands on their boundaries. Returns the checkpoint event when
        one fired.
        """
        if self.frozen:
            if inbox:
                raise ProtocolError(f"frozen node {self.node} received traffic")
            return None
        if self.term is not None and self.schedule is not None:
            for env in inbox:
                if self.schedule.send_period(env.send_step) == self.term.theta:
                    if env.payload_z > self._buf_z:
                        self._buf_z = env.payload_z
                    if env.payload_y < self._buf_y:
                        self._buf_y = env.payload_y
        self.state = absorb(self.state, inbox, self.weights)
        if self.term is None or self.schedule is None:
            return None
        step = self.state.k
        if self.schedule.is_epoch_boundary(step):
            nz = [] if self._buf_z == -math.inf else [self._buf_z]
            ny = [] if self._buf_y == math.inf else [self._buf_y]
            self.term = epoch_update(self.term, nz, ny)
            self._buf_z = -math.inf
            self._buf_y = math.inf
        if self.schedule.is_checkpoint(step):
            tested_theta = self.term.theta
            gap = self.term.z - self.term.y
            event = CheckpointEvent(
                step=step,
                node=self.node,
                theta=tested_theta,
                z=self.term.z,
                y=self.term.y,
                gap=gap,
                frozen=False,
                ratio=self.state.ratio(),
            )
            self.term = checkpoint(self.term, self.state.r, self.state.s, self.rho)
            if self.term.frozen:
                event = replace(event, frozen=True)
            else:
                self._buf_z = -math.inf
                self._buf_y = math.inf
            return event
        return None

