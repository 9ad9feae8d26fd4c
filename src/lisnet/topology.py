"""Communication graphs and distributed weight selection.

Each node chooses the weights for its own outgoing shares from its local
degree alone (one equal share per neighbor plus one kept for itself), which
makes the weight matrix column stochastic without any global coordination.
The diameter computation is a simulator-side convenience; deployed nodes
are expected to be configured with a known upper bound instead.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import ConfigurationError

Edge = tuple[int, int]


def edge_key(a: int, b: int) -> Edge:
    """Normalize an undirected edge to (low, high) order."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Graph:
    """Undirected communication graph with optional per-edge delay caps.

    ``nodes`` is an ordered tuple of distinct ids, ``edges`` a frozenset of
    normalized pairs. Edges absent from ``delay_bounds`` fall back to the
    run-wide delay bound.
    """

    nodes: tuple[int, ...]
    edges: frozenset[Edge]
    delay_bounds: Mapping[Edge, int] = field(default_factory=dict)

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
        for e, bound in self.delay_bounds.items():
            if edge_key(*e) not in self.edges:
                raise ConfigurationError(f"delay bound given for non-edge {e}")
            if bound < 0:
                raise ConfigurationError(f"negative delay bound on edge {e}")
        adj: dict[int, list[int]] = {i: [] for i in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        object.__setattr__(self, "_adj", {i: tuple(sorted(v)) for i, v in adj.items()})

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[int],
        edges: Iterable[tuple[int, int]],
        delay_bounds: Mapping[tuple[int, int], int] | None = None,
    ) -> "Graph":
        norm = frozenset(edge_key(a, b) for a, b in edges)
        bounds = {edge_key(a, b): v for (a, b), v in (delay_bounds or {}).items()}
        return cls(tuple(sorted(set(nodes))), norm, bounds)

    @classmethod
    def random_connected(cls, rng: random.Random, n: int) -> "Graph":
        """Nodes 1..n: a random recursive spanning tree plus up to n - 1 extra edges."""
        edges = {(rng.randrange(1, i), i) for i in range(2, n + 1)}
        for _ in range(rng.randrange(0, n)):
            a, b = rng.sample(range(1, n + 1), 2)
            edges.add(edge_key(a, b))
        return cls.from_edges(range(1, n + 1), edges)

    @classmethod
    def cycle(cls, n: int, first: int = 1) -> "Graph":
        ids = list(range(first, first + n))
        if n == 1:
            return cls.from_edges(ids, [])
        if n == 2:
            return cls.from_edges(ids, [(ids[0], ids[1])])
        return cls.from_edges(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])

    @classmethod
    def path(cls, n: int, first: int = 1) -> "Graph":
        ids = list(range(first, first + n))
        return cls.from_edges(ids, [(ids[i], ids[i + 1]) for i in range(n - 1)])

    @classmethod
    def complete(cls, n: int, first: int = 1) -> "Graph":
        ids = list(range(first, first + n))
        return cls.from_edges(ids, [(a, b) for a in ids for b in ids if a < b])

    @classmethod
    def star(cls, leaves: int, center: int = 1) -> "Graph":
        ids = list(range(center, center + leaves + 1))
        return cls.from_edges(ids, [(center, i) for i in ids if i != center])

    @property
    def n(self) -> int:
        return len(self.nodes)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def is_connected(self) -> bool:
        seen = {self.nodes[0]}
        frontier = deque(seen)
        while frontier:
            for j in self._adj[frontier.popleft()]:
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == len(self.nodes)

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Subgraph on ``keep``, retaining matching delay bounds."""
        kept = set(keep)
        missing = kept - set(self.nodes)
        if missing:
            raise ConfigurationError(f"cannot induce on unknown nodes {sorted(missing)}")
        edges = {e for e in self.edges if e[0] in kept and e[1] in kept}
        bounds = {e: v for e, v in self.delay_bounds.items() if e in edges}
        return Graph(tuple(sorted(kept)), frozenset(edges), bounds)


@dataclass(frozen=True)
class WeightMatrix:
    """Sparse weight matrix; ``entries[(i, j)]`` weighs node j's share at node i."""

    entries: Mapping[Edge, float]

    def weight(self, i: int, j: int) -> float:
        return self.entries.get((i, j), 0.0)

    def self_weight(self, i: int) -> float:
        return self.entries.get((i, i), 0.0)


def build_weights(g: Graph) -> WeightMatrix:
    """Equal-split weights: every share leaving node j weighs 1/(deg(j) + 1).

    Column stochastic by construction, with a strictly positive diagonal,
    so the matrix is primitive whenever the graph is connected.
    """
    if not g.is_connected():
        raise ConfigurationError("weight selection requires a connected graph")
    entries: dict[Edge, float] = {}
    for j in g.nodes:
        share = 1.0 / (g.degree(j) + 1)
        entries[(j, j)] = share
        for i in g.neighbors(j):
            entries[(i, j)] = share
    return WeightMatrix(entries)


def diameter(g: Graph) -> int:
    """Longest shortest-path hop count over all node pairs."""
    if not g.is_connected():
        raise ConfigurationError("diameter is undefined for a disconnected graph")
    best = 0
    for src in g.nodes:
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        best = max(best, max(dist.values()))
    return best
