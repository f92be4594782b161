"""A minimal directed graph built from scratch.

The inter-DC WAN model only needs directed edges with float weights and fast
successor iteration, so this module implements exactly that rather than
pulling in a general-purpose graph library for the core data path.
(:mod:`networkx` is used in the test-suite as an independent oracle.)

Edges are identified by their ``(tail, head)`` pair; parallel edges are
rejected because an inter-DC link between two data centers is modeled as a
single directed edge whose *capacity* (not multiplicity) scales.

Every structural change (a new node, an added or removed edge) bumps
:attr:`DiGraph.version`, so derived data such as a topology's candidate
paths can tell when it is stale.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError

__all__ = ["Edge", "DiGraph"]

NodeId = Hashable


@dataclass(frozen=True)
class Edge:
    """A directed edge ``tail -> head`` with a non-negative weight.

    ``weight`` is interpreted by callers — in this library it is the per-unit
    bandwidth price of the link.
    """

    tail: NodeId
    head: NodeId
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise GraphError(f"self-loop edge not allowed: {self.tail!r}")
        if not (self.weight >= 0):  # also rejects NaN
            raise GraphError(f"edge weight must be >= 0, got {self.weight!r}")

    @property
    def key(self) -> tuple[NodeId, NodeId]:
        """The ``(tail, head)`` pair identifying this edge."""
        return (self.tail, self.head)

    def reversed(self) -> "Edge":
        """The opposite-direction edge with the same weight."""
        return Edge(self.head, self.tail, self.weight)


class DiGraph:
    """A simple directed graph with weighted edges and O(1) edge lookup."""

    def __init__(self) -> None:
        self._succ: dict[NodeId, dict[NodeId, Edge]] = {}
        self._pred: dict[NodeId, dict[NodeId, Edge]] = {}
        #: Mutation counter: bumped by every node or edge added or removed.
        self.version = 0

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: NodeId) -> None:
        """Add ``node`` (idempotent)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self.version += 1

    def has_node(self, node: NodeId) -> bool:
        return node in self._succ

    @property
    def nodes(self) -> list[NodeId]:
        """All nodes, in insertion order."""
        return list(self._succ)

    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    # ------------------------------------------------------------------ edges

    def add_edge(self, tail: NodeId, head: NodeId, weight: float = 1.0) -> Edge:
        """Add a directed edge; endpoints are created on demand.

        Raises :class:`GraphError` if the edge already exists.
        """
        edge = Edge(tail, head, weight)
        self.add_node(tail)
        self.add_node(head)
        if head in self._succ[tail]:
            raise GraphError(f"duplicate edge {tail!r} -> {head!r}")
        self._succ[tail][head] = edge
        self._pred[head][tail] = edge
        self.version += 1
        return edge

    def add_bidirectional(
        self, a: NodeId, b: NodeId, weight: float = 1.0
    ) -> tuple[Edge, Edge]:
        """Add the two directed edges of a bidirectional link."""
        return self.add_edge(a, b, weight), self.add_edge(b, a, weight)

    def has_edge(self, tail: NodeId, head: NodeId) -> bool:
        return tail in self._succ and head in self._succ[tail]

    def edge(self, tail: NodeId, head: NodeId) -> Edge:
        """Return the edge ``tail -> head`` or raise :class:`EdgeNotFoundError`."""
        try:
            return self._succ[tail][head]
        except KeyError:
            raise EdgeNotFoundError(f"no edge {tail!r} -> {head!r}") from None

    def remove_edge(self, tail: NodeId, head: NodeId) -> None:
        """Remove the edge ``tail -> head``."""
        if not self.has_edge(tail, head):
            raise EdgeNotFoundError(f"no edge {tail!r} -> {head!r}")
        del self._succ[tail][head]
        del self._pred[head][tail]
        self.version += 1

    @property
    def edges(self) -> list[Edge]:
        """All edges, grouped by tail in insertion order."""
        return [e for nbrs in self._succ.values() for e in nbrs.values()]

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())

    # ------------------------------------------------------------- traversal

    def successors(self, node: NodeId) -> Iterator[Edge]:
        """Iterate over out-edges of ``node``."""
        self._require_node(node)
        return iter(self._succ[node].values())

    def predecessors(self, node: NodeId) -> Iterator[Edge]:
        """Iterate over in-edges of ``node``."""
        self._require_node(node)
        return iter(self._pred[node].values())

    def out_degree(self, node: NodeId) -> int:
        self._require_node(node)
        return len(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        self._require_node(node)
        return len(self._pred[node])

    def _require_node(self, node: NodeId) -> None:
        if node not in self._succ:
            raise NodeNotFoundError(f"unknown node {node!r}")

    # ------------------------------------------------------------------ misc

    def copy(self) -> "DiGraph":
        """A deep-enough copy (nodes and edges; ``Edge`` is immutable)."""
        g = DiGraph()
        for node in self._succ:
            g.add_node(node)
        for edge in self.edges:
            g.add_edge(edge.tail, edge.head, edge.weight)
        return g

    def subgraph_without_edges(
        self, removed: Iterable[tuple[NodeId, NodeId]]
    ) -> "DiGraph":
        """Copy of the graph with the given ``(tail, head)`` edges removed."""
        g = self.copy()
        for tail, head in removed:
            if g.has_edge(tail, head):
                g.remove_edge(tail, head)
        return g

    def is_strongly_connected(self) -> bool:
        """True if every node reaches every other node (and the graph is nonempty)."""
        if not self._succ:
            return False
        nodes = self.nodes
        return (
            len(self._reachable(nodes[0], self._succ)) == self.num_nodes
            and len(self._reachable(nodes[0], self._pred)) == self.num_nodes
        )

    def _reachable(
        self, start: NodeId, adjacency: dict[NodeId, dict[NodeId, Edge]]
    ) -> set[NodeId]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return seen

    def __contains__(self, node: NodeId) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        return f"DiGraph(nodes={self.num_nodes}, edges={self.num_edges})"
