"""Ratio consensus under bounded delays, with sender-side weighting.

Every node carries a numerator state ``r`` and a denominator state ``s``
through the same linear iteration. A sender splits its state into weighted
shares before transmission, so a share that spends any number of rounds in
flight still deposits exactly the mass it left with; total mass (held plus
in flight) is conserved. With column-stochastic weights on a connected
graph, every node's quotient r/s converges to the ratio of the initial
sums, and that limit does not depend on the delay realization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InvariantError, ProtocolError


@dataclass(slots=True)
class ConsensusState:
    """One node's consensus states at iteration ``k``."""

    node: int
    r: float
    s: float
    k: int = 0

    def ratio(self) -> float:
        if self.s == 0.0:
            raise InvariantError(f"node {self.node}: denominator state is zero at k={self.k}")
        return self.r / self.s


def emit(
    state: ConsensusState,
    neighbors: Iterable[int],
    weight: float,
    z: float = 0.0,
    y: float = 0.0,
) -> list[tuple]:
    """Weighted shares of ``state`` for every out-neighbor, as envelope tuples.

    ``state`` is the node's machine, a ``termination.NodeMachine``. An
    envelope is ``(src, dst, send_step, payload_r, payload_s, payload_z,
    payload_y)``: the sender-weighted shares of r and s at ``send_step``,
    and the sender's running extremes ``z`` and ``y``, which ride on the
    same links and delays for the stopping rule.

    ``weight`` is the node's share weight (see :func:`topology.build_weights`):
    each share to ``neighbors``, in sending order, carries it times the
    state. The share kept locally has the same weight; :func:`absorb`
    applies it, so emit stays a pure read.
    """
    node, k = state.node, state.k
    share_r = weight * state.r
    share_s = weight * state.s
    # a loop, not a comprehension: on 3.11 a comprehension runs in a frame
    # of its own, which costs more than the few shares of a node
    out = []
    append = out.append
    for j in neighbors:
        append((node, j, k, share_r, share_s, z, y))
    return out


def absorb(
    state: ConsensusState,
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

    Updates ``state``, the node's machine, in place. In the same pass,
    returns the largest ``payload_z`` and the smallest ``payload_y`` among
    ``z``, ``y`` and the envelopes sent at or after step ``since``. A
    rejected round (a misaddressed envelope, a non-finite or non-positive
    result) raises before ``state`` is touched.
    """
    node = state.node
    r = self_weight * state.r
    s = self_weight * state.s
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
        raise InvariantError(f"node {node}: non-finite state at k={state.k + 1}")
    if s <= 0.0:
        raise InvariantError(
            f"node {node}: denominator state {s} not positive at k={state.k + 1}"
        )
    state.r = r
    state.s = s
    state.k += 1
    return z, y
