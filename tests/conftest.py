"""Shared fixtures: small topologies, workloads and SPM instances."""

from __future__ import annotations

import contextlib

import pytest

import repro.net.topology as topology_module
from repro.core.instance import SPMInstance
from repro.net.topologies import b4, sub_b4
from repro.net.topology import Topology
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.request import Request, RequestSet
from repro.workload.value_models import FlatRateValueModel

from tests.oracles.metis import swap_into_metis
from tests.oracles.reuse import no_reuse


@pytest.fixture
def diamond() -> Topology:
    """Four DCs with two disjoint A->D routes of different price.

    A -> B -> D costs 2 (cheap), A -> C -> D costs 4 (expensive); all links
    bidirectional.
    """
    topo = Topology("diamond")
    for node in ("A", "B", "C", "D"):
        topo.add_datacenter(node)
    topo.add_link("A", "B", 1.0)
    topo.add_link("B", "D", 1.0)
    topo.add_link("A", "C", 2.0)
    topo.add_link("C", "D", 2.0)
    topo.validate()
    return topo


@pytest.fixture
def b4_topology() -> Topology:
    return b4()


@pytest.fixture
def sub_b4_topology() -> Topology:
    return sub_b4()


def make_request(
    request_id: int = 0,
    source: str = "A",
    dest: str = "D",
    start: int = 0,
    end: int = 0,
    rate: float = 0.5,
    value: float = 1.0,
) -> Request:
    """A request with test-friendly defaults on the diamond topology."""
    return Request(
        request_id=request_id,
        source=source,
        dest=dest,
        start=start,
        end=end,
        rate=rate,
        value=value,
    )


@pytest.fixture
def diamond_requests() -> RequestSet:
    """Three overlapping A->D requests within a 4-slot cycle."""
    return RequestSet(
        [
            make_request(0, start=0, end=1, rate=0.6, value=3.0),
            make_request(1, start=1, end=2, rate=0.6, value=2.0),
            make_request(2, start=0, end=3, rate=0.3, value=1.0),
        ],
        num_slots=4,
    )


@pytest.fixture
def diamond_instance(diamond, diamond_requests) -> SPMInstance:
    return SPMInstance.build(diamond, diamond_requests, k_paths=2)


@pytest.fixture
def small_sub_b4_instance(sub_b4_topology) -> SPMInstance:
    """A seeded 25-request instance on SUB-B4 (fast but non-trivial)."""
    workload = generate_workload(
        sub_b4_topology,
        WorkloadConfig(
            num_requests=25,
            num_slots=12,
            max_duration=4,
            value_model=FlatRateValueModel(1.0),
        ),
        rng=7,
    )
    return SPMInstance.build(sub_b4_topology, workload, k_paths=3)


@pytest.fixture
def reference_metis(monkeypatch):
    """Call to make ``Metis`` run the expression-layer MAA and TAA.

    The call also holds :func:`~tests.oracles.reuse.no_reuse` until the
    test ends: the reference alternation never reused a solve or a
    local-search memo.
    """
    with contextlib.ExitStack() as stack:

        def swap() -> None:
            swap_into_metis(monkeypatch)
            stack.enter_context(no_reuse())

        yield swap


@pytest.fixture
def yen_calls(monkeypatch) -> list:
    """Records each Yen enumeration ``Topology.candidate_paths`` runs."""
    calls = []
    enumerate_paths = topology_module.k_shortest_paths

    def counting(graph, source, target, k):
        calls.append((source, target, k))
        return enumerate_paths(graph, source, target, k)

    monkeypatch.setattr(topology_module, "k_shortest_paths", counting)
    return calls
