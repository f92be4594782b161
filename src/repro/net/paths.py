"""Shortest-path routines: Dijkstra and Yen's k-shortest simple paths.

The SPM formulation pre-enumerates, for every request, a small set ``P_i``
of candidate simple paths between its source and destination data centers
("there are several routing paths between two data centers", paper §I).
Following the paper's MinCost baseline and the pricing model, path cost is
the sum of per-unit bandwidth prices along the path, so "shortest" here
means *cheapest*.

Both algorithms are implemented from scratch on :class:`~repro.net.graph.DiGraph`.
Yen's spur searches run on the graph itself, skipping the banned nodes and
edges instead of copying a trimmed graph per spur.  The runtime enumerates
candidate paths only through :meth:`repro.net.topology.Topology.candidate_paths`,
which memoizes them per topology.  The test-suite cross-checks both
algorithms against :mod:`networkx` and Yen's against the graph-copying
reference in ``tests/oracles/paths.py``.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Set
from dataclasses import dataclass

from repro.exceptions import NoPathError
from repro.net.graph import DiGraph

__all__ = ["Path", "dijkstra", "shortest_path", "k_shortest_paths"]

NodeId = Hashable


@dataclass(frozen=True)
class Path:
    """A simple directed path, stored as its node sequence.

    ``cost`` is the sum of edge weights along the path.  Paths compare equal
    iff their node sequences are equal; cost is derived data.
    """

    nodes: tuple[NodeId, ...]
    cost: float

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path revisits a node: {self.nodes!r}")

    @property
    def source(self) -> NodeId:
        return self.nodes[0]

    @property
    def target(self) -> NodeId:
        return self.nodes[-1]

    @property
    def edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """The ``(tail, head)`` pairs along the path."""
        return tuple(zip(self.nodes[:-1], self.nodes[1:]))

    def __len__(self) -> int:
        """Number of edges (hops)."""
        return len(self.nodes) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(self.nodes)


def dijkstra(
    graph: DiGraph, source: NodeId
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId]]:
    """Single-source shortest distances and predecessor map from ``source``.

    Returns ``(dist, prev)`` where ``dist[v]`` is the cheapest cost from
    ``source`` to ``v`` (missing if unreachable) and ``prev[v]`` is ``v``'s
    predecessor on one cheapest path.
    """
    graph._require_node(source)
    return _search(graph, source)


def shortest_path(graph: DiGraph, source: NodeId, target: NodeId) -> Path:
    """The cheapest simple path from ``source`` to ``target``.

    Raises :class:`~repro.exceptions.NoPathError` if ``target`` is unreachable.
    """
    graph._require_node(target)
    graph._require_node(source)
    return _cheapest(graph, source, target)


def k_shortest_paths(
    graph: DiGraph, source: NodeId, target: NodeId, k: int
) -> list[Path]:
    """Yen's algorithm: up to ``k`` cheapest *simple* paths, ascending cost.

    Returns fewer than ``k`` paths when the graph does not contain that many
    simple paths.  Raises :class:`NoPathError` when no path exists at all.

    Each spur search runs on ``graph`` itself, skipping the root's interior
    nodes and the edges that would recreate an already-found path; nothing
    is copied.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    best = shortest_path(graph, source, target)
    found: list[Path] = [best]
    # Candidate heap keyed by (cost, nodes) — nodes tuple also deduplicates.
    candidates: list[tuple[float, tuple[NodeId, ...]]] = []
    seen_candidates: set[tuple[NodeId, ...]] = {best.nodes}

    while len(found) < k:
        prev_path = found[-1]
        for spur_idx in range(len(prev_path.nodes) - 1):
            spur_node = prev_path.nodes[spur_idx]
            root_nodes = prev_path.nodes[: spur_idx + 1]

            # Skip edges that would recreate an already-found path sharing
            # this root, and the root's interior nodes.
            removed_edges: set[tuple[NodeId, NodeId]] = set()
            for path in found:
                if path.nodes[: spur_idx + 1] == root_nodes and len(path.nodes) > spur_idx + 1:
                    removed_edges.add((path.nodes[spur_idx], path.nodes[spur_idx + 1]))
            banned_nodes = set(root_nodes[:-1])

            try:
                spur_path = _cheapest(
                    graph, spur_node, target, banned_nodes, removed_edges
                )
            except NoPathError:
                continue

            total_nodes = root_nodes[:-1] + spur_path.nodes
            if total_nodes in seen_candidates:
                continue
            seen_candidates.add(total_nodes)
            root_cost = sum(
                graph.edge(t, h).weight
                for t, h in zip(root_nodes[:-1], root_nodes[1:])
            )
            heapq.heappush(candidates, (root_cost + spur_path.cost, total_nodes))

        if not candidates:
            break
        cost, nodes = heapq.heappop(candidates)
        found.append(Path(nodes, cost))

    return found


def _cheapest(
    graph: DiGraph,
    source: NodeId,
    target: NodeId,
    banned_nodes: Set[NodeId] = frozenset(),
    removed_edges: Set[tuple[NodeId, NodeId]] = frozenset(),
) -> Path:
    """The cheapest ``source -> target`` path avoiding the given nodes/edges."""
    dist, prev = _search(graph, source, target, banned_nodes, removed_edges)
    if target not in dist:
        raise NoPathError(f"no path {source!r} -> {target!r}")
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(prev[nodes[-1]])
    nodes.reverse()
    return Path(tuple(nodes), dist[target])


_NO_TARGET = object()


def _search(
    graph: DiGraph,
    source: NodeId,
    target: NodeId = _NO_TARGET,
    banned_nodes: Set[NodeId] = frozenset(),
    removed_edges: Set[tuple[NodeId, NodeId]] = frozenset(),
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId]]:
    """Dijkstra from ``source`` over ``graph`` minus the banned nodes/edges.

    Successors are relaxed in insertion order and heap ties break on push
    order, so the result equals a search over a copy of ``graph`` with the
    banned nodes and edges deleted.  Stops once ``target`` is settled: its
    distance and predecessor chain are final from then on.
    """
    succ = graph._succ
    dist: dict[NodeId, float] = {source: 0.0}
    prev: dict[NodeId, NodeId] = {}
    visited: set[NodeId] = set()
    counter = 0  # tie-breaker so heapq never compares node ids
    heap: list[tuple[float, int, NodeId]] = [(0.0, counter, source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        if node == target:
            break
        visited.add(node)
        for head, edge in succ[node].items():
            if head in banned_nodes or (node, head) in removed_edges:
                continue
            nd = d + edge.weight
            if nd < dist.get(head, float("inf")):
                dist[head] = nd
                prev[head] = node
                counter += 1
                heapq.heappush(heap, (nd, counter, head))
    return dist, prev
