"""Tests for repro.net.paths — including networkx and reference-Yen oracles."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError
from repro.net.graph import DiGraph
from repro.net.paths import Path, dijkstra, k_shortest_paths, shortest_path
from repro.net.topologies import random_wan

from tests.oracles import paths as reference


def build_graph(edges):
    g = DiGraph()
    for tail, head, weight in edges:
        g.add_edge(tail, head, weight)
    return g


class TestPath:
    def test_properties(self):
        p = Path(("a", "b", "c"), 2.0)
        assert p.source == "a"
        assert p.target == "c"
        assert p.edges == (("a", "b"), ("b", "c"))
        assert len(p) == 2

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            Path(("a",), 0.0)

    def test_revisit_rejected(self):
        with pytest.raises(ValueError, match="revisits"):
            Path(("a", "b", "a"), 1.0)

    def test_equality_ignores_cost(self):
        assert Path(("a", "b"), 1.0) == Path(("a", "b"), 9.0)
        assert hash(Path(("a", "b"), 1.0)) == hash(Path(("a", "b"), 9.0))


class TestDijkstra:
    def test_simple(self):
        g = build_graph([("a", "b", 1), ("b", "c", 1), ("a", "c", 5)])
        dist, _ = dijkstra(g, "a")
        assert dist["c"] == 2

    def test_unreachable_missing_from_dist(self):
        g = build_graph([("a", "b", 1)])
        g.add_node("z")
        dist, _ = dijkstra(g, "a")
        assert "z" not in dist

    def test_shortest_path_reconstruction(self):
        g = build_graph([("a", "b", 1), ("b", "c", 1), ("a", "c", 5)])
        p = shortest_path(g, "a", "c")
        assert p.nodes == ("a", "b", "c")
        assert p.cost == 2

    def test_no_path_raises(self):
        g = build_graph([("a", "b", 1)])
        g.add_node("z")
        with pytest.raises(NoPathError):
            shortest_path(g, "a", "z")

    def test_zero_weight_edges(self):
        g = build_graph([("a", "b", 0), ("b", "c", 0)])
        assert shortest_path(g, "a", "c").cost == 0


class TestKShortestPaths:
    def test_diamond_ordering(self):
        g = build_graph(
            [("s", "u", 1), ("u", "t", 1), ("s", "v", 2), ("v", "t", 2)]
        )
        paths = k_shortest_paths(g, "s", "t", 2)
        assert [p.nodes for p in paths] == [("s", "u", "t"), ("s", "v", "t")]
        assert [p.cost for p in paths] == [2, 4]

    def test_k_larger_than_path_count(self):
        g = build_graph([("s", "t", 1)])
        assert len(k_shortest_paths(g, "s", "t", 10)) == 1

    def test_paths_are_simple_and_unique(self):
        g = build_graph(
            [
                ("s", "a", 1),
                ("a", "t", 1),
                ("s", "b", 1),
                ("b", "t", 1),
                ("a", "b", 0.5),
                ("b", "a", 0.5),
            ]
        )
        paths = k_shortest_paths(g, "s", "t", 10)
        assert len({p.nodes for p in paths}) == len(paths)
        for p in paths:
            assert len(set(p.nodes)) == len(p.nodes)

    def test_invalid_k(self):
        g = build_graph([("s", "t", 1)])
        with pytest.raises(ValueError):
            k_shortest_paths(g, "s", "t", 0)

    def test_no_path(self):
        g = build_graph([("a", "b", 1)])
        g.add_node("z")
        with pytest.raises(NoPathError):
            k_shortest_paths(g, "a", "z", 3)


@st.composite
def random_digraph(draw):
    """A random weighted digraph over 4-8 nodes with a guaranteed ring."""
    n = draw(st.integers(min_value=4, max_value=8))
    nodes = list(range(n))
    edges = {}
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):  # ring for connectivity
        edges[(a, b)] = draw(
            st.floats(min_value=0.1, max_value=10, allow_nan=False)
        )
    extra = draw(st.integers(min_value=0, max_value=n * 2))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b and (a, b) not in edges:
            edges[(a, b)] = draw(
                st.floats(min_value=0.1, max_value=10, allow_nan=False)
            )
    return [(a, b, w) for (a, b), w in edges.items()]


class TestAgainstNetworkx:
    @given(random_digraph())
    @settings(max_examples=40, deadline=None)
    def test_shortest_path_cost_matches_networkx(self, edge_list):
        ours = build_graph(edge_list)
        theirs = nx.DiGraph()
        theirs.add_weighted_edges_from(edge_list)
        cost = shortest_path(ours, 0, 1).cost
        expected = nx.shortest_path_length(theirs, 0, 1, weight="weight")
        assert cost == pytest.approx(expected)

    @given(random_digraph(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_k_shortest_matches_networkx(self, edge_list, k):
        ours = build_graph(edge_list)
        theirs = nx.DiGraph()
        theirs.add_weighted_edges_from(edge_list)
        mine = k_shortest_paths(ours, 0, 1, k)

        def nx_cost(path):
            return sum(
                theirs[a][b]["weight"] for a, b in zip(path[:-1], path[1:])
            )

        expected = []
        for path in nx.shortest_simple_paths(theirs, 0, 1, weight="weight"):
            expected.append(nx_cost(path))
            if len(expected) == k:
                break
        assert len(mine) == len(expected)
        # Cost sequences must match even if equal-cost paths tie-break
        # differently.
        for got, want in zip(mine, expected):
            assert got.cost == pytest.approx(want)


@st.composite
def random_wan_graph(draw):
    """A seeded ``random_wan`` of varied size, chord count and price range."""
    n = draw(st.integers(min_value=3, max_value=9))
    extra = draw(st.integers(min_value=0, max_value=n * (n - 1) // 2 - n))
    low = draw(st.sampled_from([0.0, 1.0, 5.0]))
    # A zero-width range makes every price equal: all ties.
    width = draw(st.sampled_from([0.0, 1.0, 9.0]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_wan(n, extra, price_range=(low, low + width), rng=seed).graph


class TestAgainstReferenceYen:
    @given(random_wan_graph())
    @settings(max_examples=30, deadline=None)
    def test_same_paths_costs_and_order(self, graph):
        for source in graph.nodes:
            for target in graph.nodes:
                if source == target:
                    continue
                for k in range(1, 6):
                    got = k_shortest_paths(graph, source, target, k)
                    want = reference.k_shortest_paths(graph, source, target, k)
                    assert [(p.nodes, p.cost) for p in got] == [
                        (p.nodes, p.cost) for p in want
                    ], (source, target, k)
