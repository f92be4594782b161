"""Tests for repro.core.instance."""

import numpy as np
import pytest

from repro.core.instance import SPMInstance
from repro.exceptions import ScheduleError
from repro.workload.request import RequestSet

from tests.conftest import make_request


class TestBuild:
    def test_paths_enumerated_per_request(self, diamond, diamond_requests):
        inst = SPMInstance.build(diamond, diamond_requests, k_paths=2)
        for req in diamond_requests:
            paths = inst.paths[req.request_id]
            assert 1 <= len(paths) <= 2
            assert paths[0].cost <= paths[-1].cost
            assert paths[0].source == req.source
            assert paths[0].target == req.dest

    def test_dimensions(self, diamond_instance):
        assert diamond_instance.num_requests == 3
        assert diamond_instance.num_edges == 8
        assert diamond_instance.num_slots == 4

    def test_prices_aligned_with_edges(self, diamond_instance):
        topo = diamond_instance.topology
        for idx, key in enumerate(diamond_instance.edges):
            assert diamond_instance.prices[idx] == topo.price(*key)

    def test_path_edges_match_incidence(self, diamond_instance):
        inst = diamond_instance
        for req in inst.requests:
            for j, path in enumerate(inst.paths[req.request_id]):
                for edge_key in path.edges:
                    edge_idx = inst.edge_index[edge_key]
                    assert inst.uses_edge(req.request_id, j, edge_idx)

    def test_missing_paths_rejected(self, diamond, diamond_requests):
        with pytest.raises(ScheduleError, match="no candidate paths"):
            SPMInstance(diamond, diamond_requests, paths={})


class TestRestrict:
    def test_restrict_keeps_subset(self, diamond_instance):
        sub = diamond_instance.restrict([0, 2])
        assert sub.num_requests == 2
        assert sub.requests.request_ids == [0, 2]
        assert sub.topology is diamond_instance.topology

    def test_restrict_preserves_edge_order(self, diamond_instance):
        sub = diamond_instance.restrict([1])
        assert sub.edges == diamond_instance.edges


class TestLoads:
    def test_loads_shape_and_content(self, diamond_instance):
        inst = diamond_instance
        assignment = {0: 0, 1: None, 2: 0}
        loads = inst.loads(assignment)
        assert loads.shape == (inst.num_edges, inst.num_slots)
        req0 = inst.request(0)
        first_edge = inst.path_edges[0][0][0]
        assert loads[first_edge, req0.start] >= req0.rate

    def test_declined_requests_add_nothing(self, diamond_instance):
        loads = diamond_instance.loads({0: None, 1: None, 2: None})
        assert np.all(loads == 0)

    def test_loads_additive_across_requests(self, diamond_instance):
        inst = diamond_instance
        both = inst.loads({0: 0, 1: 0, 2: None})
        only0 = inst.loads({0: 0, 1: None, 2: None})
        only1 = inst.loads({0: None, 1: 0, 2: None})
        assert np.allclose(both, only0 + only1)

    def test_bad_path_lookup(self, diamond_instance):
        with pytest.raises(ScheduleError):
            diamond_instance.path(0, 99)
        with pytest.raises(ScheduleError):
            diamond_instance.path(42, 0)


class TestPathMemo:
    def test_shared_pairs_share_one_enumeration(self, diamond, yen_calls):
        requests = RequestSet(
            [
                make_request(0, start=0, end=0),
                make_request(1, start=1, end=1),
            ],
            num_slots=2,
        )
        inst = SPMInstance.build(diamond, requests, k_paths=2)
        assert len(yen_calls) == 1, "same (src, dst) is enumerated once"
        assert inst.paths[0] is not inst.paths[1], "each request owns its list"
        assert all(a is b for a, b in zip(inst.paths[0], inst.paths[1]))
