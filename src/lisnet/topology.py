"""Communication graphs and distributed weight selection.

Each node weighs every share it sends, and the one it keeps, by one number
from its local degree alone, 1/(deg + 1), which makes the weights column
stochastic without any global coordination.
The diameter computation is a simulator-side convenience; deployed nodes
are expected to be configured with a known upper bound instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError

Edge = tuple[int, int]


def edge_key(a: int, b: int) -> Edge:
    """Normalize an undirected edge to (low, high) order."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph.

    ``nodes`` is an ordered tuple of distinct ids and ``edges`` a frozenset
    of normalized pairs.
    """

    nodes: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self):
        if not self.nodes:
            raise ConfigurationError("graph needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ConfigurationError("duplicate node ids")
        known = set(self.nodes)
        for a, b in self.edges:
            if a == b:
                raise ConfigurationError(f"self-edge on node {a}")
            if a not in known or b not in known:
                raise ConfigurationError(f"edge ({a}, {b}) references an unknown node")
            if (a, b) != edge_key(a, b):
                raise ConfigurationError(f"edge ({a}, {b}) is not normalized")
        adj: dict[int, list[int]] = {i: [] for i in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", {i: tuple(sorted(v)) for i, v in adj.items()})
        # connectivity is decided once here, for the planner, the weights and
        # the diameter alike
        seen = {self.nodes[0]}
        frontier = [self.nodes[0]]
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        object.__setattr__(self, "_connected", len(seen) == len(self.nodes))

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(tuple(sorted(nodes)), frozenset(edge_key(a, b) for a, b in edges))

    @classmethod
    def random_connected(cls, rng: random.Random, n: int) -> "Graph":
        """Nodes 1..n: a random recursive spanning tree plus up to n - 1 extra edges."""
        edges = {(rng.randrange(1, i), i) for i in range(2, n + 1)}
        for _ in range(rng.randrange(0, n)):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.add(edge_key(a, b))
        return cls.from_edges(range(1, n + 1), edges)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        """Nodes 1..n in a ring; two nodes share one edge, and a lone node has none."""
        ids = range(1, n + 1)
        return cls.from_edges(ids, [(i, i % n + 1) for i in ids if n > 1])

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def is_connected(self) -> bool:
        return self._connected

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Subgraph on ``keep``."""
        kept = set(keep)
        missing = kept - set(self.nodes)
        if missing:
            raise ConfigurationError(f"cannot induce on unknown nodes {sorted(missing)}")
        edges = frozenset(e for e in self.edges if e[0] in kept and e[1] in kept)
        return Graph(tuple(sorted(kept)), edges)


def build_weights(g: Graph) -> dict[int, float]:
    """Each node's share weight: j sends deg(j) shares and keeps one, all 1/(deg(j) + 1).

    The weight matrix is thus column stochastic, with a strictly positive
    diagonal, and primitive whenever the graph is connected.
    """
    if not g.is_connected():
        raise ConfigurationError("weight selection requires a connected graph")
    return {j: 1.0 / (g.degree(j) + 1) for j in g.nodes}


def diameter(g: Graph) -> int:
    """Longest shortest-path hop count over all node pairs.

    Exact, by bounding diameters (Takes & Kosters, CIKM 2011): each
    breadth-first search from a node v with eccentricity e bounds every
    other node w's eccentricity to [max(d(v, w), e - d(v, w)), e + d(v, w)]
    and the diameter to [e, 2e]. A node leaves the candidates once its
    eccentricity is known or can neither raise the lower bound nor, as a
    centre, lower the upper one; searches alternate between the candidate
    with the largest upper bound and the one with the smallest lower bound.
    """
    if not g.is_connected():
        raise ConfigurationError("diameter is undefined for a disconnected graph")
    index = {v: k for k, v in enumerate(g.nodes)}
    adj = [[index[v] for v in g.neighbors(u)] for u in g.nodes]
    n = len(adj)
    ecc_lo = [0] * n
    ecc_hi = [n] * n
    lo, hi = 0, n
    candidates = list(range(n))
    periphery = True
    while candidates and lo < hi:
        src = candidates[0]
        if periphery:
            for w in candidates:
                if ecc_hi[w] > ecc_hi[src] or (
                    ecc_hi[w] == ecc_hi[src] and len(adj[w]) > len(adj[src])
                ):
                    src = w
        else:
            for w in candidates:
                if ecc_lo[w] < ecc_lo[src] or (
                    ecc_lo[w] == ecc_lo[src] and len(adj[w]) > len(adj[src])
                ):
                    src = w
        periphery = not periphery
        dist = [-1] * n
        dist[src] = 0
        frontier = [src]
        for u in frontier:
            du = dist[u] + 1
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = du
                    frontier.append(v)
        ecc = dist[frontier[-1]]  # breadth-first: the last is farthest
        if ecc > lo:
            lo = ecc
        if 2 * ecc < hi:
            hi = 2 * ecc
        kept = []
        for w in candidates:
            d = dist[w]
            w_lo = ecc_lo[w]
            if d > w_lo:
                w_lo = ecc_lo[w] = d
            if ecc - d > w_lo:
                w_lo = ecc_lo[w] = ecc - d
            w_hi = ecc_hi[w]
            if ecc + d < w_hi:
                w_hi = ecc_hi[w] = ecc + d
            if w_lo < w_hi and (w_hi > lo or 2 * w_lo < hi):
                kept.append(w)
        candidates = kept
    return lo
