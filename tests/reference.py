"""Reference models that the simulator's fast paths are tested against.

Each is the plain, obviously correct computation that a faster
implementation in ``lisnet`` must reproduce exactly. Four test helpers
that the program itself never calls live here too: ``Envelope``, which
builds an envelope tuple by field name, ``read_trace_csv``, a strict reader
for the trace file, ``path_graph`` and ``cyclic_garbage``.
"""

from __future__ import annotations

import gc
import math
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from lisnet.scenario import TRACE_COLUMNS
from lisnet.errors import ConfigurationError, InvariantError
from lisnet.topology import Graph


class Envelope(NamedTuple):
    """One weighted share in flight from ``src`` to ``dst``.

    The simulator moves envelopes as plain 7-tuples in this field order
    (see ``consensus.emit``); this class builds one by name.
    ``payload_r``/``payload_s`` are the sender-weighted shares of the
    consensus states at ``send_step``; ``payload_z``/``payload_y``
    piggyback the sender's running extremes.
    """

    src: int
    dst: int
    send_step: int
    payload_r: float
    payload_s: float
    payload_z: float = 0.0
    payload_y: float = 0.0


def path_graph(n: int) -> Graph:
    """Nodes 1..n joined in a line."""
    return Graph.from_edges(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def read_trace_csv(path: Path) -> list[dict[str, str]]:
    """Strict reader for the trace format; rejects anything off-schema."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# lisnet-trace v1"):
        raise ConfigurationError(f"{path}: missing trace header")
    if lines[1].split(",") != list(TRACE_COLUMNS):
        raise ConfigurationError(f"{path}: unexpected column set")
    rows = []
    for ln, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise ConfigurationError(f"{path}:{ln}: wrong cell count")
        rows.append(dict(zip(TRACE_COLUMNS, cells)))
    return rows


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


def period_extremes_scan(
    delivered: Sequence[tuple], period_len: int, theta: int, z: float, y: float
) -> tuple[float, float]:
    """Largest z and smallest y of ``z``, ``y`` and period ``theta``'s envelopes.

    An envelope is in checkpoint period ``theta`` when its send step divided
    by ``period_len`` is ``theta - 1``.
    """
    current = [env for env in delivered if env[2] // period_len == theta - 1]
    return max([z] + [env[5] for env in current]), min([y] + [env[6] for env in current])


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


def cyclic_garbage(run: Callable[[], object]) -> int:
    """How many unreachable objects in reference cycles ``run()`` leaves.

    Counted with the collector off from a clean start, so nothing is
    collected before the count; the collector's state is restored after.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()
