"""Reference Yen's algorithm: one trimmed graph copy per spur search.

The runtime's :func:`repro.net.paths.k_shortest_paths` runs each spur
search on the original graph, skipping the banned nodes and edges.  This is
the version it replaced, kept verbatim (with its own Dijkstra, so it shares
no search code with the runtime): every spur copies the graph without the
root's interior nodes and the edges that would recreate a found path, then
searches the copy.  The property suite holds the runtime to this oracle's
``(nodes, cost)`` lists, in order.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable

from repro.exceptions import NoPathError
from repro.net.graph import DiGraph
from repro.net.paths import Path

__all__ = ["k_shortest_paths"]

NodeId = Hashable


def _dijkstra(
    graph: DiGraph, source: NodeId
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId]]:
    graph._require_node(source)
    dist: dict[NodeId, float] = {source: 0.0}
    prev: dict[NodeId, NodeId] = {}
    visited: set[NodeId] = set()
    counter = 0
    heap: list[tuple[float, int, NodeId]] = [(0.0, counter, source)]
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for edge in graph.successors(node):
            nd = d + edge.weight
            if nd < dist.get(edge.head, float("inf")):
                dist[edge.head] = nd
                prev[edge.head] = node
                counter += 1
                heapq.heappush(heap, (nd, counter, edge.head))
    return dist, prev


def _shortest_path(graph: DiGraph, source: NodeId, target: NodeId) -> Path:
    graph._require_node(target)
    dist, prev = _dijkstra(graph, source)
    if target not in dist:
        raise NoPathError(f"no path {source!r} -> {target!r}")
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(prev[nodes[-1]])
    nodes.reverse()
    return Path(tuple(nodes), dist[target])


def k_shortest_paths(
    graph: DiGraph, source: NodeId, target: NodeId, k: int
) -> list[Path]:
    """Yen's algorithm: up to ``k`` cheapest *simple* paths, ascending cost."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    best = _shortest_path(graph, source, target)
    found: list[Path] = [best]
    candidates: list[tuple[float, tuple[NodeId, ...]]] = []
    seen_candidates: set[tuple[NodeId, ...]] = {best.nodes}

    while len(found) < k:
        prev_path = found[-1]
        for spur_idx in range(len(prev_path.nodes) - 1):
            spur_node = prev_path.nodes[spur_idx]
            root_nodes = prev_path.nodes[: spur_idx + 1]

            removed_edges: set[tuple[NodeId, NodeId]] = set()
            for path in found:
                if path.nodes[: spur_idx + 1] == root_nodes and len(path.nodes) > spur_idx + 1:
                    removed_edges.add((path.nodes[spur_idx], path.nodes[spur_idx + 1]))
            banned_nodes = set(root_nodes[:-1])

            trimmed = _trimmed_graph(graph, banned_nodes, removed_edges)
            if not trimmed.has_node(spur_node) or not trimmed.has_node(target):
                continue
            try:
                spur_path = _shortest_path(trimmed, spur_node, target)
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
            heapq.heappush(
                candidates,
                (root_cost + spur_path.cost, tuple(total_nodes)),
            )

        if not candidates:
            break
        cost, nodes = heapq.heappop(candidates)
        found.append(Path(nodes, cost))

    return found


def _trimmed_graph(
    graph: DiGraph,
    banned_nodes: set[NodeId],
    removed_edges: set[tuple[NodeId, NodeId]],
) -> DiGraph:
    """Copy of ``graph`` without ``banned_nodes`` and ``removed_edges``."""
    g = DiGraph()
    for node in graph.nodes:
        if node not in banned_nodes:
            g.add_node(node)
    for edge in graph.edges:
        if edge.tail in banned_nodes or edge.head in banned_nodes:
            continue
        if (edge.tail, edge.head) in removed_edges:
            continue
        g.add_edge(edge.tail, edge.head, edge.weight)
    return g
