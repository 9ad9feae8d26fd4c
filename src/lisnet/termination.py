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

``NodeMachine`` is the whole node. Plain ratio consensus (the Fig. 1
averaging demo) is the same machine with ``rho`` 0: z never falls below y,
so no node ever freezes, and the extremes still propagate and reseed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

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


def emit(
    machine: NodeMachine, neighbors: Iterable[int], weight: float, z: float, y: float
) -> list[tuple]:
    """Weighted shares of ``machine``'s state for every out-neighbor, as envelope tuples.

    An envelope is ``(src, dst, send_step, payload_r, payload_s, payload_z,
    payload_y)``: the sender-weighted shares of r and s at ``send_step``,
    and the sender's running extremes ``z`` and ``y``, which ride on the
    same links and delays for the stopping rule.

    ``weight`` is the node's share weight (see :func:`topology.build_weights`):
    each share to ``neighbors``, in sending order, carries it times the
    state. The share kept locally has the same weight; :func:`absorb`
    applies it, so emit stays a pure read.
    """
    node, k = machine.node, machine.k
    share_r = weight * machine.r
    share_s = weight * machine.s
    # a loop, not a comprehension: on 3.11 a comprehension runs in a frame
    # of its own, which costs more than the few shares of a node
    out = []
    append = out.append
    for j in neighbors:
        append((node, j, k, share_r, share_s, z, y))
    return out


def absorb(
    machine: NodeMachine,
    delivered: Iterable[tuple],
    self_weight: float,
    since: int,
    z: float,
    y: float,
) -> tuple[float, float]:
    """Fold the shares due this round into the retained share; advance ``k``.

    ``self_weight`` is the node's share weight. ``delivered`` must hold
    exactly the envelopes due at this node this round; shares not yet
    arrived simply contribute nothing, which is what keeps conservation
    exact through the start-up transient.

    Updates ``machine``'s ``r``, ``s`` and ``k`` in place. In the same pass,
    returns the largest ``payload_z`` and the smallest ``payload_y`` among
    ``z``, ``y`` and the envelopes sent at or after step ``since``. A
    rejected round (a misaddressed envelope, a non-finite or non-positive
    result) raises before ``machine`` is touched.
    """
    node = machine.node
    r = self_weight * machine.r
    s = self_weight * machine.s
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
    return z, y


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


class NodeMachine:
    """One node's full protocol loop: consensus plus stopping bookkeeping.

    The machine is driven in lockstep rounds by a simulator: every round it
    first emits the weighted shares of its current state, then absorbs the
    envelopes due this round. Every node runs the stopping rule on
    ``schedule``; with ``rho`` 0 it propagates and reseeds the extremes but
    never freezes.

    The machine is the node's only state: the consensus states ``r`` and
    ``s`` at iteration ``k`` (0 when built), and beside them the running
    extremes ``z`` and ``y``, the checkpoint index ``theta`` and ``frozen``.
    A frozen node never absorbs again, so its ``r`` and ``s`` are its
    frozen snapshot r*, s*.
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
        # neighbors and schedule lengths are resolved once; advance runs per step
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
