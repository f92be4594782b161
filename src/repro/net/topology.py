"""The :class:`Topology` model: a WAN graph plus prices and capacities.

A topology couples the directed graph with:

* ``price[edge]`` — the per-unit (10 Gbps) bandwidth price ``u_e``;
* ``capacity[edge]`` — an optional integer capacity ceiling, used by the
  bandwidth-limited problem (BL-SPM) and by Metis' BW Limiter.  ``None``
  means "unlimited" (RL-SPM: the provider may purchase as much as needed).
* ``region[node]`` — optional region label used for pricing and reporting.

:meth:`Topology.candidate_paths` is the one place the runtime enumerates
candidate paths.  It memoizes each ``(source, target, k)`` answer for the
topology's life.  Paths depend only on the graph and its weights (the
prices), so a structural change to the graph (a new node, an added or
removed edge; see :attr:`DiGraph.version`) discards the memo, while
capacity changes keep it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.exceptions import GraphError, TopologyError
from repro.net.graph import DiGraph, Edge
from repro.net.paths import Path, k_shortest_paths

__all__ = ["Topology"]

NodeId = Hashable
EdgeKey = tuple[NodeId, NodeId]


class Topology:
    """An inter-DC WAN: directed graph + per-link prices (+ capacities).

    Edge weights of the underlying graph are the per-unit bandwidth prices,
    so path enumeration naturally orders paths by cost.
    """

    def __init__(
        self,
        name: str,
        *,
        regions: Mapping[NodeId, str] | None = None,
    ) -> None:
        self.name = name
        self.graph = DiGraph()
        self._capacity: dict[EdgeKey, int | None] = {}
        self.regions: dict[NodeId, str] = dict(regions or {})
        self._paths: dict[tuple[NodeId, NodeId, int], tuple[Path, ...]] = {}
        self._paths_version = self.graph.version

    # ----------------------------------------------------------- construction

    def add_datacenter(self, node: NodeId, region: str | None = None) -> None:
        """Add a data center; optionally record its region."""
        self.graph.add_node(node)
        if region is not None:
            self.regions[node] = region

    def add_link(
        self,
        a: NodeId,
        b: NodeId,
        price: float,
        *,
        capacity: int | None = None,
        bidirectional: bool = True,
    ) -> None:
        """Add a link of per-unit price ``price``.

        ``bidirectional=True`` (the default, matching B4's bidirectional
        links) adds both directions with the same price and capacity.
        """
        if not (price >= 0):
            raise TopologyError(f"link price must be >= 0, got {price!r}")
        if capacity is not None and (not isinstance(capacity, int) or capacity < 0):
            raise TopologyError(f"capacity must be a non-negative int, got {capacity!r}")
        # Check both directions before adding either, so a duplicate
        # reverse edge leaves no half-link behind.
        for tail, head in ((a, b), (b, a)) if bidirectional else ((a, b),):
            if self.graph.has_edge(tail, head):
                raise GraphError(f"duplicate edge {tail!r} -> {head!r}")
        self.graph.add_edge(a, b, price)
        self._capacity[(a, b)] = capacity
        if bidirectional:
            self.graph.add_edge(b, a, price)
            self._capacity[(b, a)] = capacity

    # ------------------------------------------------------------- accessors

    @property
    def datacenters(self) -> list[NodeId]:
        return self.graph.nodes

    @property
    def num_datacenters(self) -> int:
        return self.graph.num_nodes

    @property
    def edges(self) -> list[Edge]:
        return self.graph.edges

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def price(self, tail: NodeId, head: NodeId) -> float:
        """Per-unit bandwidth price ``u_e`` of the directed edge."""
        return self.graph.edge(tail, head).weight

    def capacity(self, tail: NodeId, head: NodeId) -> int | None:
        """Capacity ceiling of the directed edge (``None`` = unlimited)."""
        self.graph.edge(tail, head)  # raises if missing
        return self._capacity.get((tail, head))

    def set_capacity(self, tail: NodeId, head: NodeId, capacity: int | None) -> None:
        """Set/replace the capacity ceiling of a directed edge."""
        self.graph.edge(tail, head)
        if capacity is not None and (not isinstance(capacity, int) or capacity < 0):
            raise TopologyError(f"capacity must be a non-negative int, got {capacity!r}")
        self._capacity[(tail, head)] = capacity

    def set_uniform_capacity(self, capacity: int | None) -> None:
        """Set the same capacity on every directed edge (paper Fig. 4c/4d setup)."""
        for edge in self.edges:
            self.set_capacity(edge.tail, edge.head, capacity)

    def capacities(self) -> dict[EdgeKey, int | None]:
        """Snapshot of all directed-edge capacities."""
        return {e.key: self._capacity.get(e.key) for e in self.edges}

    def region(self, node: NodeId) -> str | None:
        self.graph._require_node(node)
        return self.regions.get(node)

    # ------------------------------------------------------------------ paths

    def candidate_paths(
        self, source: NodeId, target: NodeId, k: int = 3
    ) -> list[Path]:
        """Up to ``k`` cheapest simple paths ``source -> target`` (the set P_i).

        Memoized per ``(source, target, k)`` until the graph's structure
        changes; errors are never memoized.  Each call returns a new list.
        """
        if self._paths_version != self.graph.version:
            self._paths.clear()
            self._paths_version = self.graph.version
        key = (source, target, k)
        paths = self._paths.get(key)
        if paths is None:
            paths = self._paths[key] = tuple(
                k_shortest_paths(self.graph, source, target, k)
            )
        return list(paths)

    # ------------------------------------------------------------------ misc

    def validate(self) -> None:
        """Sanity-check structural invariants; raises :class:`TopologyError`."""
        if self.graph.num_nodes == 0:
            raise TopologyError("topology has no data centers")
        if not self.graph.is_strongly_connected():
            raise TopologyError(f"topology {self.name!r} is not strongly connected")
        for edge in self.edges:
            if edge.key not in self._capacity:
                raise TopologyError(f"edge {edge.key!r} has no capacity record")

    def copy(self) -> "Topology":
        topo = Topology(self.name, regions=self.regions)
        for node in self.graph.nodes:
            topo.graph.add_node(node)
        for edge in self.edges:
            topo.graph.add_edge(edge.tail, edge.head, edge.weight)
            topo._capacity[edge.key] = self._capacity.get(edge.key)
        return topo

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, datacenters={self.num_datacenters}, "
            f"directed_edges={self.num_edges})"
        )
