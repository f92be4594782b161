"""Tests for repro.net.topology."""

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, NoPathError, TopologyError
from repro.net.paths import k_shortest_paths
from repro.net.topology import Topology


def make_square():
    topo = Topology("square")
    for node in "ABCD":
        topo.add_datacenter(node)
    topo.add_link("A", "B", 1.0)
    topo.add_link("B", "C", 2.0)
    topo.add_link("C", "D", 1.0)
    topo.add_link("D", "A", 2.0)
    return topo


class TestConstruction:
    def test_bidirectional_links_by_default(self):
        topo = make_square()
        assert topo.num_edges == 8
        assert topo.price("A", "B") == topo.price("B", "A") == 1.0

    def test_unidirectional_link(self):
        topo = Topology("uni")
        topo.add_datacenter("A")
        topo.add_datacenter("B")
        topo.add_link("A", "B", 1.0, bidirectional=False)
        assert topo.num_edges == 1
        with pytest.raises(EdgeNotFoundError):
            topo.price("B", "A")

    def test_negative_price_rejected(self):
        topo = Topology("bad")
        with pytest.raises(TopologyError):
            topo.add_link("A", "B", -1.0)

    def test_failed_reverse_direction_leaves_no_half_link(self):
        topo = Topology("half")
        topo.add_link("A", "B", 1.0, capacity=4, bidirectional=False)
        edges, capacities = topo.graph.edges, topo.capacities()
        with pytest.raises(GraphError, match="duplicate edge 'A' -> 'B'"):
            topo.add_link("B", "A", 2.0, capacity=7)
        assert topo.graph.edges == edges
        assert topo.capacities() == capacities
        assert not topo.graph.has_edge("B", "A")
        assert topo.price("A", "B") == 1.0

    def test_region_recording(self):
        topo = Topology("regions")
        topo.add_datacenter("A", "europe")
        topo.add_datacenter("B")
        assert topo.region("A") == "europe"
        assert topo.region("B") is None


class TestCapacities:
    def test_default_capacity_unlimited(self):
        topo = make_square()
        assert topo.capacity("A", "B") is None

    def test_set_capacity(self):
        topo = make_square()
        topo.set_capacity("A", "B", 5)
        assert topo.capacity("A", "B") == 5
        assert topo.capacity("B", "A") is None, "directions are independent"

    def test_uniform_capacity(self):
        topo = make_square()
        topo.set_uniform_capacity(10)
        assert all(c == 10 for c in topo.capacities().values())

    def test_bad_capacity_rejected(self):
        topo = make_square()
        with pytest.raises(TopologyError):
            topo.set_capacity("A", "B", -1)
        with pytest.raises(TopologyError):
            topo.add_link("A", "C", 1.0, capacity=1.5)  # type: ignore[arg-type]

    def test_capacity_on_link_creation(self):
        topo = Topology("cap")
        topo.add_link("A", "B", 1.0, capacity=3)
        assert topo.capacity("A", "B") == 3
        assert topo.capacity("B", "A") == 3


class TestPathsAndValidation:
    def test_candidate_paths_sorted_by_cost(self):
        topo = make_square()
        paths = topo.candidate_paths("A", "C", k=2)
        assert len(paths) == 2
        assert paths[0].cost <= paths[1].cost
        assert {paths[0].nodes, paths[1].nodes} == {
            ("A", "B", "C"),
            ("A", "D", "C"),
        }

    def test_validate_accepts_square(self):
        make_square().validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(TopologyError, match="no data centers"):
            Topology("empty").validate()

    def test_validate_rejects_disconnected(self):
        topo = Topology("disc")
        topo.add_link("A", "B", 1.0)
        topo.add_datacenter("Z")
        with pytest.raises(TopologyError, match="strongly connected"):
            topo.validate()

    def test_copy_independent(self):
        topo = make_square()
        clone = topo.copy()
        clone.set_capacity("A", "B", 1)
        assert topo.capacity("A", "B") is None
        assert clone.num_edges == topo.num_edges


def _nodes_and_costs(paths):
    return [(p.nodes, p.cost) for p in paths]


class TestCandidatePathMemo:
    def test_repeat_calls_enumerate_once(self, yen_calls):
        topo = make_square()
        first = topo.candidate_paths("A", "C", k=2)
        second = topo.candidate_paths("A", "C", k=2)
        assert _nodes_and_costs(first) == _nodes_and_costs(second)
        assert first is not second
        assert yen_calls == [("A", "C", 2)]
        topo.candidate_paths("A", "C", k=3)
        topo.candidate_paths("C", "A", k=2)
        assert len(yen_calls) == 3, "k and direction are part of the key"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda topo: topo.add_link("A", "C", 0.5),
            lambda topo: topo.add_datacenter("E"),
            lambda topo: topo.graph.add_edge("A", "C", 0.5),
            lambda topo: topo.graph.remove_edge("A", "B"),
        ],
        ids=["add_link", "add_datacenter", "graph.add_edge", "graph.remove_edge"],
    )
    def test_structural_changes_invalidate(self, yen_calls, mutate):
        topo = make_square()
        topo.candidate_paths("A", "C", k=3)
        mutate(topo)
        fresh = topo.candidate_paths("A", "C", k=3)
        assert len(yen_calls) == 2
        expected = k_shortest_paths(topo.graph, "A", "C", 3)
        assert _nodes_and_costs(fresh) == _nodes_and_costs(expected)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda topo: topo.set_capacity("A", "B", 2),
            lambda topo: topo.set_uniform_capacity(5),
            lambda topo: topo.add_datacenter("A", "europe"),
        ],
        ids=["set_capacity", "set_uniform_capacity", "existing_datacenter"],
    )
    def test_non_structural_changes_keep_the_memo(self, yen_calls, mutate):
        topo = make_square()
        before = topo.candidate_paths("A", "C", k=3)
        mutate(topo)
        after = topo.candidate_paths("A", "C", k=3)
        assert _nodes_and_costs(after) == _nodes_and_costs(before)
        assert len(yen_calls) == 1

    def test_copy_starts_with_an_empty_memo(self, yen_calls):
        topo = make_square()
        topo.candidate_paths("A", "C", k=2)
        clone = topo.copy()
        clone.graph.add_edge("A", "C", 0.5)
        assert clone.candidate_paths("A", "C", k=2)[0].nodes == ("A", "C")
        assert topo.candidate_paths("A", "C", k=2)[0].nodes != ("A", "C")
        assert len(yen_calls) == 2

    def test_errors_are_never_memoized(self, yen_calls):
        topo = Topology("oneway")
        topo.add_link("A", "B", 1.0, bidirectional=False)
        for _ in range(2):
            with pytest.raises(NoPathError):
                topo.candidate_paths("B", "A")
            with pytest.raises(ValueError):
                topo.candidate_paths("A", "B", k=0)
        assert len(yen_calls) == 4

    def test_mutating_a_result_does_not_reach_the_memo(self):
        topo = make_square()
        paths = topo.candidate_paths("A", "C", k=2)
        expected = _nodes_and_costs(paths)
        paths.pop()
        paths.reverse()
        assert _nodes_and_costs(topo.candidate_paths("A", "C", k=2)) == expected
