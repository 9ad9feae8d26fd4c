"""One node's protocol loop: ratio consensus with distributed finite-time stopping.

Every node carries a numerator state ``r`` and a denominator state ``s``
through the same linear iteration. A sender splits its state into weighted
shares before transmission, so a share that spends any number of rounds in
flight still deposits exactly the mass it left with; total mass (held plus
in flight) is conserved. With column-stochastic weights on a connected
graph, every node's quotient r/s converges to the ratio of the initial
sums, and that limit does not depend on the delay realization.

Each node also tracks a running maximum ``z`` and minimum ``y`` of the node
quotients, seeded from its own quotient. The extremes ride piggyback on the
consensus envelopes, so they experience the same per-link delays. Merging
happens only at epoch boundaries spaced one step wider than the worst link
delay: a value emitted at the start of an epoch is then guaranteed to
arrive before the epoch closes, so one epoch propagates the extremes one
hop, and a diameter's worth of epochs propagates them everywhere. At every
checkpoint (a diameter's worth of epochs plus a flush allowance) each node
compares its gap z - y against the stopping threshold: below threshold it
freezes r and s and goes silent, otherwise both extremes reseed from the
node's current quotient and the next round of epochs begins. Every node
evaluates the same propagated extremes on the same schedule, so all nodes
freeze at the same checkpoint with no extra signalling.

``NodeMachine`` is the whole node, and each protocol step takes it alone.
Plain ratio consensus (the Fig. 1 averaging demo) is the same machine with
``rho`` 0: z never falls below y, so no node ever freezes, and the extremes
still propagate and reseed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigurationError, InvariantError, ProtocolError


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


def emit(machine: NodeMachine) -> list[tuple]:
    """Weighted shares of ``machine``'s state for every out-neighbor, as envelope tuples.

    An envelope is ``(src, dst, send_step, payload_r, payload_s, payload_z,
    payload_y)``: the sender-weighted shares of r and s at ``send_step``,
    and the sender's running extremes ``z`` and ``y``, which ride on the
    same links and delays for the stopping rule.

    Each share to the node's neighbors, in sending order, carries the node's
    share weight (see :func:`topology.build_weights`) times its state. The
    share kept locally has the same weight; :func:`absorb` applies it, so
    emit stays a pure read.
    """
    node, k, z, y = machine.node, machine.k, machine.z, machine.y
    weight = machine._weight
    share_r = weight * machine.r
    share_s = weight * machine.s
    # a loop, not a comprehension: on 3.11 a comprehension runs in a frame
    # of its own, which costs more than the few shares of a node
    out = []
    append = out.append
    for j in machine._neighbors:
        append((node, j, k, share_r, share_s, z, y))
    return out


def absorb(machine: NodeMachine, delivered: Iterable[tuple]) -> None:
    """Fold the shares due this round into the retained share; advance ``k``.

    ``delivered`` must hold exactly the envelopes due at this node this
    round; shares not yet arrived simply contribute nothing, which is what
    keeps conservation exact through the start-up transient.

    Updates ``machine``'s ``r``, ``s`` and ``k`` in place, and in the same
    pass folds into its epoch buffers the largest ``payload_z`` and the
    smallest ``payload_y`` of the envelopes sent in the current checkpoint
    period. A rejected round (a misaddressed envelope, a non-finite or
    non-positive result) raises before ``machine`` is touched.
    """
    node = machine.node
    weight = machine._weight
    r = weight * machine.r
    s = weight * machine.s
    # sent >= since is sent // checkpoint_len == theta - 1: nothing due now
    # was sent at or past theta * checkpoint_len, where theta is bumped
    since = (machine.theta - 1) * machine._checkpoint_len
    z = machine._buf_z
    y = machine._buf_y
    for _, dst, sent, share_r, share_s, share_z, share_y in delivered:
        if dst != node:
            raise ProtocolError(f"node {node} received an envelope addressed to {dst}")
        r += share_r
        s += share_s
        if sent >= since:
            if share_z > z:
                z = share_z
            if share_y < y:
                y = share_y
    if not (math.isfinite(r) and math.isfinite(s)):
        raise InvariantError(f"node {node}: non-finite state at k={machine.k + 1}")
    if s <= 0.0:
        raise InvariantError(
            f"node {node}: denominator state {s} not positive at k={machine.k + 1}"
        )
    machine.r = r
    machine.s = s
    machine.k += 1
    machine._buf_z, machine._buf_y = z, y


def epoch_update(machine: NodeMachine) -> None:
    """Merge the extremes buffered over the closing epoch, then empty the buffers.

    Raises ``machine.z`` to a larger buffered z and lowers ``machine.y`` to a
    smaller buffered y; an empty buffer's -inf and inf never win. Call only
    at an epoch boundary.
    """
    if machine.frozen:
        raise ProtocolError("epoch update on a frozen node")
    if machine._buf_z > machine.z:
        machine.z = machine._buf_z
    if machine._buf_y < machine.y:
        machine.y = machine._buf_y
    machine._buf_z, machine._buf_y = -math.inf, math.inf


def checkpoint(machine: NodeMachine) -> None:
    """Empty the epoch buffers, then freeze below ``machine.rho`` or reseed.

    A freeze keeps the tested extremes and ``theta``; a reseed overwrites
    them from the node's quotient, so read what was tested before the call.
    ``rho`` of 0 never freezes, since z >= y. Call only at a checkpoint
    boundary.
    """
    if machine.frozen:
        raise ProtocolError("checkpoint on a frozen node")
    machine._buf_z, machine._buf_y = -math.inf, math.inf
    if machine.z - machine.y < machine.rho:
        machine.frozen = True
        return
    machine.z = machine.y = machine.r / machine.s
    machine.theta += 1


class NodeMachine:
    """One node's full protocol loop: consensus plus stopping bookkeeping.

    The machine is driven in lockstep rounds by a simulator: every round it
    first emits the weighted shares of its current state, then absorbs the
    envelopes due this round. Every node runs the stopping rule on
    ``schedule``; with ``rho`` 0 it propagates and reseeds the extremes but
    never freezes.

    The machine is the node's only state: the consensus states ``r`` and
    ``s`` at iteration ``k`` (0 when built), and beside them the running
    extremes ``z`` and ``y``, the checkpoint index ``theta``, ``frozen``, and
    the epoch buffers ``_buf_z`` and ``_buf_y`` that absorb fills. A frozen
    node never absorbs again, so its ``r`` and ``s`` are its frozen
    snapshot r*, s*.
    """

    __slots__ = (
        "node", "r", "s", "k", "z", "y", "theta", "frozen", "rho", "_neighbors", "_weight",
        "_epoch_len", "_checkpoint_len", "_buf_z", "_buf_y",
    )

    def __init__(
        self,
        node: int,
        r: float,
        s: float,
        weight: float,
        neighbors: Iterable[int],
        schedule: CheckpointSchedule,
        rho: float = 0.0,
    ):
        if not rho >= 0.0:
            raise ConfigurationError(f"stopping threshold must be non-negative, got {rho}")
        self.node = node
        self.r = r
        self.s = s
        self.k = 0
        self.rho = rho
        self.z = self.y = self.ratio()
        self.theta = 1
        self.frozen = False
        # neighbors and schedule lengths are resolved once, not on every step
        self._neighbors = sorted(neighbors)
        self._weight = weight
        self._epoch_len = schedule.epoch_len
        self._checkpoint_len = schedule.checkpoint_len
        self._buf_z = -math.inf
        self._buf_y = math.inf

    def ratio(self) -> float:
        if self.s == 0.0:
            raise InvariantError(f"node {self.node}: denominator state is zero at k={self.k}")
        return self.r / self.s

    def emit(self) -> list[tuple]:
        """Envelope tuples of the current state; a frozen node emits nothing."""
        if self.frozen:
            return []
        return emit(self)

    def advance(self, inbox: Sequence[tuple]) -> tuple[float, float, int] | None:
        """Absorb the envelopes due this round and roll one step forward.

        Runs the epoch merge when the new step index is a multiple of the
        epoch length and the checkpoint decision when it is a multiple of
        the checkpoint length. Extremes reseed at every checkpoint, so only
        those sent in the current checkpoint period (send step // checkpoint
        length == theta - 1) are merged; older ones are stale. When a
        checkpoint fired, returns the ``(z, y, theta)`` it tested.
        """
        if self.frozen:
            if inbox:
                raise ProtocolError(f"frozen node {self.node} received traffic")
            return None
        absorb(self, inbox)
        step = self.k
        if step % self._epoch_len == 0:
            epoch_update(self)
        # not nested under the epoch test: checkpoint_len is a multiple of
        # epoch_len only when tau_bar is 0
        if step % self._checkpoint_len:
            return None
        tested = self.z, self.y, self.theta
        checkpoint(self)
        return tested
