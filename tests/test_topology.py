import random

import pytest

from lisnet.errors import ConfigurationError
from lisnet.topology import Graph, build_weights, diameter


def brute_force_diameter(g: Graph) -> int:
    # Floyd-Warshall, independent of the BFS in the library
    nodes = list(g.nodes)
    big = 10**6
    dist = {(a, b): 0 if a == b else big for a in nodes for b in nodes}
    for a, b in g.edges:
        dist[(a, b)] = dist[(b, a)] = 1
    for m in nodes:
        for a in nodes:
            for b in nodes:
                via = dist[(a, m)] + dist[(m, b)]
                if via < dist[(a, b)]:
                    dist[(a, b)] = via
    return max(dist.values())


def column(w, j: int) -> dict[int, float]:
    """Entries of column j: the weights node j puts on its outgoing shares."""
    return {i: value for (i, jj), value in w.entries.items() if jj == j}


class TestGraph:
    def test_neighbors_sorted(self):
        g = Graph.cycle(6)
        assert g.neighbors(1) == (2, 6)
        assert g.degree(4) == 2

    def test_rejects_self_edge(self):
        with pytest.raises(ConfigurationError):
            Graph.from_edges([1, 2], [(1, 1)])

    def test_rejects_unknown_node_edge(self):
        with pytest.raises(ConfigurationError):
            Graph.from_edges([1, 2], [(1, 3)])

    def test_rejects_bound_on_missing_edge(self):
        with pytest.raises(ConfigurationError):
            Graph.from_edges([1, 2, 3], [(1, 2)], {(2, 3): 1})

    def test_connectivity(self):
        assert Graph.cycle(5).is_connected()
        assert not Graph.from_edges([1, 2, 3], [(1, 2)]).is_connected()

    def test_induced_subgraph(self):
        g = Graph.cycle(6)
        sub = g.induced([1, 3, 4, 5, 6])
        assert sub.edges == frozenset({(3, 4), (4, 5), (5, 6), (1, 6)})
        assert sub.is_connected()


class TestBuildWeights:
    def test_six_cycle_all_thirds(self):
        w = build_weights(Graph.cycle(6))
        expected = 1.0 / 3.0
        for (i, j), value in w.entries.items():
            assert value == expected, (i, j)

    def test_single_node_self_weight_one(self):
        w = build_weights(Graph.from_edges([1], []))
        assert w.self_weight(1) == 1.0

    def test_star_center_column(self):
        g = Graph.star(5)
        w = build_weights(g)
        center = column(w, 1)
        assert len(center) == 6
        assert all(v == pytest.approx(1 / 6, abs=0) for v in center.values())

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError):
            build_weights(Graph.from_edges([1, 2, 3], [(1, 2)]))

    def test_columns_sum_to_one_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(40):
            g = Graph.random_connected(rng, rng.randint(1, 12))
            w = build_weights(g)
            for j in g.nodes:
                assert abs(sum(column(w, j).values()) - 1.0) <= 1e-12

    def test_column_depends_only_on_local_degree(self):
        # adding an edge far from node 1 leaves column 1 untouched
        g1 = Graph.from_edges(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        g2 = Graph.from_edges(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        w1, w2 = build_weights(g1), build_weights(g2)
        assert column(w1, 1) == column(w2, 1)
        assert column(w1, 2) == column(w2, 2)


class TestDiameter:
    def test_six_cycle(self):
        assert diameter(Graph.cycle(6)) == 3

    def test_complete_four(self):
        assert diameter(Graph.complete(4)) == 1

    def test_path_five(self):
        assert diameter(Graph.path(5)) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError):
            diameter(Graph.from_edges([1, 2, 3], [(2, 3)]))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(30):
            g = Graph.random_connected(rng, rng.randint(2, 12))
            assert diameter(g) == brute_force_diameter(g)
