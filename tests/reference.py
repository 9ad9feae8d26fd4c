"""Reference models that the simulator's fast paths are tested against.

Each is the plain, obviously correct computation that a faster
implementation in ``lisnet`` must reproduce exactly.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from lisnet.errors import InvariantError


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


def oldest_age_scan(pending: Mapping[int, Sequence[tuple]], now: int) -> int:
    """Rounds the longest-pending envelope has been in flight, over every envelope."""
    sent = [env[2] for batch in pending.values() for env in batch]
    return max(0, now - min(sent, default=now))


def pending_count_scan(pending: Mapping[int, Sequence[tuple]]) -> int:
    """Envelopes still awaiting delivery, counted over every pending round."""
    return sum(len(batch) for batch in pending.values())


def all_pairs_diameter(adjacency: Mapping[int, Sequence[int]]) -> int:
    """Longest shortest-path hop count, by one breadth-first search per node."""
    best = 0
    for src in adjacency:
        dist = {src: 0}
        frontier = [src]
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        best = max(best, max(dist.values()))
    return best
