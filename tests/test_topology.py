import random

import pytest

from lisnet.errors import ConfigurationError
from lisnet.netsim import STOCHASTIC, DelayModel
from lisnet.topology import Graph, build_weights, diameter
from reference import all_pairs_diameter, path_graph


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


def complete_graph(n: int) -> Graph:
    ids = range(1, n + 1)
    return Graph.from_edges(ids, [(a, b) for a in ids for b in ids if a < b])


def star_graph(leaves: int) -> Graph:
    """Node 1 joined to each of nodes 2 .. leaves + 1."""
    return Graph.from_edges(range(1, leaves + 2), [(1, i) for i in range(2, leaves + 2)])


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

    def test_rejects_duplicate_node(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Graph.from_edges([1, 2, 1], [(1, 2)])

    def test_from_edges_normalizes_bound_keys_and_rejects_an_edge_bounded_twice(self):
        # the graph keeps edges only; the per-edge caps over it live in the delay model
        g = Graph.from_edges([1, 2], [(2, 1)])
        assert g.edges == frozenset({(1, 2)})
        assert DelayModel(STOCHASTIC, 2, bounds={(2, 1): 0}).bounds == {(1, 2): 0}
        with pytest.raises(ConfigurationError, match="two delay bounds"):
            DelayModel(STOCHASTIC, 2, bounds={(1, 2): 2, (2, 1): 0})

    def test_rejects_an_edge_that_is_not_normalized(self):
        # from_edges normalizes; the constructor takes edges as they are
        with pytest.raises(ConfigurationError, match=r"edge \(2, 1\) is not normalized"):
            Graph((1, 2), frozenset({(2, 1)}))

    def test_connectivity(self):
        assert Graph.cycle(5).is_connected()
        assert not Graph.from_edges([1, 2, 3], [(1, 2)]).is_connected()

    def test_induced_subgraph(self):
        g = Graph.cycle(6)
        sub = g.induced([1, 3, 4, 5, 6])
        assert sub.edges == frozenset({(3, 4), (4, 5), (5, 6), (1, 6)})
        assert sub.is_connected()

    def test_induced_on_unknown_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match=r"unknown nodes \[7, 9\]"):
            Graph.cycle(6).induced([1, 9, 7])


class TestBuildWeights:
    def test_six_cycle_all_thirds(self):
        w = build_weights(Graph.cycle(6))
        assert w == {j: 1.0 / 3.0 for j in range(1, 7)}

    def test_single_node_self_weight_one(self):
        w = build_weights(Graph.from_edges([1], []))
        assert w == {1: 1.0}

    def test_star_center_column(self):
        # the centre sends five shares and keeps one, all of weight 1/6
        g = star_graph(5)
        w = build_weights(g)
        assert g.degree(1) + 1 == 6
        assert w[1] == pytest.approx(1 / 6, abs=0)
        assert all(w[leaf] == 0.5 for leaf in range(2, 7))

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError):
            build_weights(Graph.from_edges([1, 2, 3], [(1, 2)]))

    def test_columns_sum_to_one_on_random_graphs(self):
        # node j's column: deg(j) shares sent and one kept, each of weight w[j]
        rng = random.Random(7)
        for _ in range(40):
            g = Graph.random_connected(rng, rng.randint(1, 12))
            w = build_weights(g)
            assert set(w) == set(g.nodes)
            for j in g.nodes:
                assert abs(sum([w[j]] * (g.degree(j) + 1)) - 1.0) <= 1e-12

    def test_column_depends_only_on_local_degree(self):
        # adding an edge far from node 1 leaves nodes 1 and 2 untouched
        g1 = Graph.from_edges(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        g2 = Graph.from_edges(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        w1, w2 = build_weights(g1), build_weights(g2)
        assert w1[1] == w2[1]
        assert w1[2] == w2[2]
        assert w1[4] != w2[4]


class TestDiameter:
    def test_six_cycle(self):
        assert diameter(Graph.cycle(6)) == 3

    def test_complete_four(self):
        assert diameter(complete_graph(4)) == 1

    def test_path_five(self):
        assert diameter(path_graph(5)) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(ConfigurationError):
            diameter(Graph.from_edges([1, 2, 3], [(2, 3)]))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(30):
            g = Graph.random_connected(rng, rng.randint(2, 12))
            assert diameter(g) == brute_force_diameter(g)

    def test_matches_all_pairs_bfs(self):
        rng = random.Random(2011)
        graphs = [Graph.random_connected(rng, rng.randint(1, 80)) for _ in range(400)]
        for n in range(1, 12):
            graphs += [path_graph(n), Graph.cycle(n), complete_graph(n), star_graph(n - 1)]
        # sparse random graphs: long paths with a few chords, where pruning bites
        for _ in range(50):
            n = rng.randint(20, 300)
            edges = [(i, i + 1) for i in range(1, n)]
            edges += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 5))]
            graphs.append(Graph.from_edges(range(1, n + 1), edges))
        for g in graphs:
            assert diameter(g) == all_pairs_diameter({u: g.neighbors(u) for u in g.nodes})
