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
from typing import Iterable, Mapping, Sequence

from .errors import InvariantError, ProtocolError
from .topology import WeightMatrix


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


@dataclass(slots=True)
class Envelope:
    """One weighted share in flight from ``src`` to ``dst``.

    ``payload_r``/``payload_s`` are the sender-weighted shares of the
    consensus states at ``send_step``; ``payload_z``/``payload_y`` piggyback
    the sender's running extremes so the stopping logic rides on the same
    links, and the same delays, as the consensus traffic.
    """

    src: int
    dst: int
    send_step: int
    payload_r: float
    payload_s: float
    payload_z: float = 0.0
    payload_y: float = 0.0


def emit(
    state: ConsensusState,
    weights: WeightMatrix,
    neighbors: Iterable[int],
    *,
    z: float = 0.0,
    y: float = 0.0,
) -> list[Envelope]:
    """Weighted shares of ``state`` for every out-neighbor.

    The share retained locally is the diagonal weight times the state; it is
    applied by :func:`absorb`, not here, so emit stays a pure read.
    """
    out = []
    for j in neighbors:
        w = weights.weight(j, state.node)
        out.append(
            Envelope(
                src=state.node,
                dst=j,
                send_step=state.k,
                payload_r=w * state.r,
                payload_s=w * state.s,
                payload_z=z,
                payload_y=y,
            )
        )
    return out


def absorb(
    state: ConsensusState,
    delivered: Iterable[Envelope],
    weights: WeightMatrix,
) -> ConsensusState:
    """Fold the shares due this round into the retained share; advance ``k``.

    ``delivered`` must hold exactly the envelopes due at this node this
    round; shares not yet arrived simply contribute nothing, which is what
    keeps conservation exact through the start-up transient.
    """
    p_self = weights.self_weight(state.node)
    r = p_self * state.r
    s = p_self * state.s
    for env in delivered:
        if env.dst != state.node:
            raise ProtocolError(
                f"node {state.node} received an envelope addressed to {env.dst}"
            )
        r += env.payload_r
        s += env.payload_s
    if not (math.isfinite(r) and math.isfinite(s)):
        raise InvariantError(f"node {state.node}: non-finite state at k={state.k + 1}")
    if s <= 0.0:
        raise InvariantError(
            f"node {state.node}: denominator state {s} not positive at k={state.k + 1}"
        )
    return ConsensusState(node=state.node, r=r, s=s, k=state.k + 1)


def global_extremes_oracle(
    windows: Mapping[int, Sequence[tuple[float, float]]],
) -> tuple[float, float]:
    """Exact max and min of r/s over all nodes across a recent-history window.

    ``windows`` maps node id to its latest (r, s) pairs, oldest first, at
    most the delay bound plus one entries deep. Entries with a zero
    denominator are skipped. This is an omniscient simulator-side quantity;
    nodes themselves only ever approximate it through the stopping protocol.
    """
    hi = -math.inf
    lo = math.inf
    for pairs in windows.values():
        for r, s in pairs:
            if s == 0.0:
                continue
            mu = r / s
            if mu > hi:
                hi = mu
            if mu < lo:
                lo = mu
    if hi < lo:
        raise InvariantError("window holds no usable ratio samples")
    return hi, lo
