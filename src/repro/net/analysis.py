"""Topology analytics: where a WAN is fragile, expensive or thin.

Used by the risk example and the reports to explain *why* a schedule or a
failure behaves the way it does:

* :func:`cheapest_path_betweenness` — how many ordered DC pairs route
  their cheapest path over each directed edge; high-betweenness edges are
  the ones whose failure strands the most traffic;
* :func:`path_diversity` — per DC pair, the number of *edge-disjoint*
  candidate paths (greedily extracted), i.e. how much rerouting slack a
  pair has;
* :func:`topology_summary` — node/edge counts, price statistics and the
  hop diameter in one record.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import NoPathError
from repro.net.paths import shortest_path
from repro.net.topology import Topology

__all__ = [
    "cheapest_path_betweenness",
    "path_diversity",
    "TopologySummary",
    "topology_summary",
]

NodeId = Hashable
EdgeKey = tuple


def cheapest_path_betweenness(topology: Topology) -> dict[EdgeKey, int]:
    """Ordered-pair cheapest-path counts per directed edge.

    For every ordered DC pair, the cheapest path is computed and each of
    its edges credited once.  Edges on no cheapest path map to 0.
    """
    counts: dict[EdgeKey, int] = {edge.key: 0 for edge in topology.edges}
    for source in topology.datacenters:
        for dest in topology.datacenters:
            if source == dest:
                continue
            path = shortest_path(topology.graph, source, dest)
            for key in path.edges:
                counts[key] += 1
    return counts


def path_diversity(
    topology: Topology, source: NodeId, dest: NodeId, *, k: int = 6
) -> int:
    """The number of edge-disjoint paths among the ``k`` cheapest.

    Greedy extraction over Yen's enumeration: take the cheapest path, then
    repeatedly the next enumerated path sharing no directed edge with any
    taken one.  A lower bound on the true edge-disjoint path count, which
    is what rerouting slack in practice looks like when candidates are
    capped at ``k``.
    """
    try:
        candidates = topology.candidate_paths(source, dest, k)
    except NoPathError:
        return 0
    used: set[EdgeKey] = set()
    disjoint = 0
    for path in candidates:
        edges = set(path.edges)
        if edges & used:
            continue
        used |= edges
        disjoint += 1
    return disjoint


@dataclass(frozen=True)
class TopologySummary:
    """One-record overview of a WAN."""

    name: str
    num_datacenters: int
    num_links: int
    price_min: float
    price_max: float
    price_mean: float
    hop_diameter: int
    min_pair_diversity: int

    @property
    def price_spread(self) -> float:
        """max/min price ratio — how regionally skewed the WAN's costs are."""
        if self.price_min <= 0:
            return float("inf")
        return self.price_max / self.price_min


def topology_summary(topology: Topology, *, diversity_k: int = 6) -> TopologySummary:
    """Compute a :class:`TopologySummary` for ``topology``."""
    prices = np.array([edge.weight for edge in topology.edges])
    hop_diameter = 0
    min_diversity = None
    for source in topology.datacenters:
        for dest in topology.datacenters:
            if source == dest:
                continue
            path = shortest_path(topology.graph, source, dest)
            hop_diameter = max(hop_diameter, len(path))
            diversity = path_diversity(topology, source, dest, k=diversity_k)
            if min_diversity is None or diversity < min_diversity:
                min_diversity = diversity
    return TopologySummary(
        name=topology.name,
        num_datacenters=topology.num_datacenters,
        num_links=topology.num_edges // 2,
        price_min=float(prices.min()),
        price_max=float(prices.max()),
        price_mean=float(prices.mean()),
        hop_diameter=hop_diameter,
        min_pair_diversity=int(min_diversity or 0),
    )
