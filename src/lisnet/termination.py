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

Every simulated node runs this one machine, ``NodeMachine``: the node's
``ConsensusState`` together with its extremes ``z`` and ``y``, its
checkpoint index ``theta`` and its ``frozen`` flag. Plain ratio
consensus (the Fig. 1 averaging demo) is the same machine with ``rho`` 0:
z never falls below y, so no node ever freezes, and the extremes still
propagate and reseed at every checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .consensus import ConsensusState, absorb, emit
from .errors import ConfigurationError, ProtocolError


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


def epoch_update(term: NodeMachine, z: float, y: float) -> None:
    """Merge the largest ``z`` and smallest ``y`` heard over the closing epoch.

    Raises ``term.z`` to a larger ``z`` and lowers ``term.y`` to a smaller
    ``y``, in place; an epoch that heard nothing passes -inf and inf. Call
    only at an epoch boundary, with values emitted during the previous
    epoch window.
    """
    if term.frozen:
        raise ProtocolError("epoch update on a frozen node")
    if z > term.z:
        term.z = z
    if y < term.y:
        term.y = y


def checkpoint(term: NodeMachine, current_r: float, current_s: float, rho: float) -> None:
    """Freeze below threshold, otherwise reseed both extremes and continue.

    Updates ``term`` in place: a freeze keeps the tested extremes and
    ``theta``, a reseed overwrites them, so read what was tested before the
    call. ``rho`` of 0 never freezes, since z >= y. Call only at a
    checkpoint boundary.
    """
    if term.frozen:
        raise ProtocolError("checkpoint on a frozen node")
    if term.z - term.y < rho:
        term.frozen = True
        return
    term.z = term.y = current_r / current_s
    term.theta += 1


class CheckpointEvent(NamedTuple):
    """What a node held and decided at one checkpoint instant.

    The fields are the checkpoint trace row: ``scenario.TRACE_COLUMNS`` order
    without the leading ``cycle`` and the frozen-only ``pi_star`` and
    ``delivered_power``. ``r``, ``s`` and ``ratio`` are the node's state
    after the step's absorb; ``z``, ``y`` and ``theta`` are the extremes
    and the checkpoint index it tested; ``frozen`` is the decision.
    """

    step: int
    node: int
    r: float
    s: float
    ratio: float
    z: float
    y: float
    theta: int
    frozen: bool


class NodeMachine(ConsensusState):
    """One node's full protocol loop: consensus plus stopping bookkeeping.

    The machine is driven in lockstep rounds by a simulator: every round it
    first emits the weighted shares of its current state, then absorbs the
    envelopes due this round. Every node runs the stopping rule on
    ``schedule``; with ``rho`` 0 it propagates and reseeds the extremes but
    never freezes.

    The machine is the node's only state: the consensus states ``r``, ``s``
    and ``k``, copied from ``state`` so the caller's object is never
    changed, and beside them the running extremes ``z`` and ``y``, the
    checkpoint index ``theta`` and ``frozen``. A frozen node never absorbs
    again, so its ``r`` and ``s`` are its frozen snapshot r*, s*.
    """

    __slots__ = (
        "z", "y", "theta", "frozen", "rho", "_neighbors", "_weight", "_epoch_len",
        "_checkpoint_len", "_buf_z", "_buf_y",
    )

    def __init__(
        self,
        state: ConsensusState,
        weight: float,
        neighbors: Iterable[int],
        schedule: CheckpointSchedule,
        rho: float = 0.0,
    ):
        if not rho >= 0.0:
            raise ConfigurationError(f"stopping threshold must be non-negative, got {rho}")
        ConsensusState.__init__(self, state.node, state.r, state.s, state.k)
        self.rho = rho
        self.z = self.y = self.ratio()
        self.theta = 1
        self.frozen = False
        # neighbors and schedule lengths are resolved once; advance runs per step
        self._neighbors = sorted(neighbors)
        self._weight = weight
        self._epoch_len = schedule.epoch_len
        self._checkpoint_len = schedule.checkpoint_len
        self._buf_z = -math.inf
        self._buf_y = math.inf

    def emit(self) -> list[tuple]:
        """Envelope tuples of the current state; a frozen node emits nothing."""
        if self.frozen:
            return []
        return emit(self, self._neighbors, self._weight, self.z, self.y)

    def advance(self, inbox: Sequence[tuple]) -> CheckpointEvent | None:
        """Absorb the envelopes due this round and roll one step forward.

        Runs the epoch merge when the new step index is a multiple of the
        epoch length and the checkpoint decision when it is a multiple of
        the checkpoint length. Extremes reseed at every checkpoint, so only
        those sent in the current checkpoint period (send step // checkpoint
        length == theta - 1) are merged; older ones are stale. Returns the
        checkpoint event when one fired.
        """
        if self.frozen:
            if inbox:
                raise ProtocolError(f"frozen node {self.node} received traffic")
            return None
        period_len = self._checkpoint_len
        # sent >= since is the test sent // period_len == theta - 1: every
        # envelope due now was sent at or before the current step, which is
        # below theta * period_len, as the checkpoint there bumps theta
        buf_z, buf_y = absorb(
            self, inbox, self._weight, (self.theta - 1) * period_len,
            self._buf_z, self._buf_y,
        )
        step = self.k
        if step % self._epoch_len == 0:
            # an empty buffer's -inf and inf never win a comparison
            epoch_update(self, buf_z, buf_y)
            buf_z = -math.inf
            buf_y = math.inf
        # not nested under the epoch test: checkpoint_len is a multiple of
        # epoch_len only when tau_bar is 0
        if step % period_len:
            self._buf_z = buf_z
            self._buf_y = buf_y
            return None
        # the extremes reseed (or the node freezes and never reads them again)
        self._buf_z = -math.inf
        self._buf_y = math.inf
        z, y, theta = self.z, self.y, self.theta
        checkpoint(self, self.r, self.s, self.rho)
        return CheckpointEvent(
            step, self.node, self.r, self.s, self.ratio(), z, y, theta, self.frozen,
        )
