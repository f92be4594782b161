"""A concrete SPM instance: topology, requests and candidate paths.

:class:`SPMInstance` pins everything the formulations and algorithms consume:

* the WAN topology with per-edge prices ``u_e``;
* the request set (one billing cycle of ``T`` slots);
* for every request ``i`` the pre-enumerated candidate path set
  ``P_i = {P_{i,1}, ..., P_{i,L_i}}`` (k cheapest simple paths);
* the edge index and the path-edge incidence ``I_{i,j,e}`` in array form.

Candidate paths come from :meth:`Topology.candidate_paths`, which memoizes
them per topology, so instances over the same topology share the
enumeration work.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from repro.exceptions import ScheduleError
from repro.net.paths import Path
from repro.net.topology import Topology
from repro.workload.request import Request, RequestSet

__all__ = ["SPMInstance"]

NodeId = Hashable
EdgeKey = tuple[NodeId, NodeId]


class SPMInstance:
    """An instance of the service-profit-maximization problem."""

    def __init__(
        self,
        topology: Topology,
        requests: RequestSet,
        paths: dict[int, list[Path]],
    ) -> None:
        self.topology = topology
        self.requests = requests
        self.paths = paths
        for req in requests:
            if req.request_id not in paths or not paths[req.request_id]:
                raise ScheduleError(
                    f"request {req.request_id} has no candidate paths"
                )

        #: Directed edges in a fixed order; ``edge_index`` inverts it.
        self.edges: list[EdgeKey] = [e.key for e in topology.edges]
        self.edge_index: dict[EdgeKey, int] = {
            key: idx for idx, key in enumerate(self.edges)
        }
        #: Per-unit prices aligned with ``edges``.
        self.prices: np.ndarray = np.array(
            [topology.price(*key) for key in self.edges]
        )
        #: For request ``i`` and path ``j``: the edge indices along the path.
        self.path_edges: dict[int, list[np.ndarray]] = {
            req_id: [
                np.array([self.edge_index[ek] for ek in path.edges], dtype=int)
                for path in path_list
            ]
            for req_id, path_list in paths.items()
        }
        # The lazily-built array-native compiler (see formulation_compiler()).
        self._fastform = None

    # ----------------------------------------------------------- constructors

    @classmethod
    def build(
        cls,
        topology: Topology,
        requests: RequestSet,
        *,
        k_paths: int = 3,
    ) -> "SPMInstance":
        """Build with up to ``k_paths`` cheapest simple paths per request."""
        paths = {
            req.request_id: topology.candidate_paths(req.source, req.dest, k=k_paths)
            for req in requests
        }
        return cls(topology, requests, paths)

    def restrict(self, request_ids: Iterable[int]) -> "SPMInstance":
        """The same instance over a subset of the requests — zero-copy.

        The restricted instance *shares* the parent's edge order, edge
        index, price vector, per-path edge arrays, and its lazily-built
        array-native compiler (keyed per request id, so a subset view
        stays valid); only the request subset and its path-dict views are
        new.  Metis restricts once per alternation round, so rebuilding
        the incidence arrays here used to dominate the non-solver round
        cost.  Nothing mutates the shared state after construction.
        """
        subset = self.requests.subset(request_ids)
        child = SPMInstance.__new__(SPMInstance)
        child.topology = self.topology
        child.requests = subset
        child.paths = {req.request_id: self.paths[req.request_id] for req in subset}
        child.edges = self.edges
        child.edge_index = self.edge_index
        child.prices = self.prices
        child.path_edges = {
            req.request_id: self.path_edges[req.request_id] for req in subset
        }
        child._fastform = self._fastform
        return child

    def reprice(self, prices: np.ndarray) -> "SPMInstance":
        """The same instance under a different price vector — zero-copy.

        Shares the topology, requests, paths, edge order and per-path edge
        arrays; only ``prices`` is replaced.  The lazily-built compiler is
        *not* shared (it reads the price vector), so the repriced instance
        compiles fresh models against the new prices while the parent's
        caches stay valid.

        This is the decision-steering hook of the Lagrangian decomposition
        (:mod:`repro.decomp`): shard subproblems solve against
        ``u_e + lambda_e`` while all accounting stays on the true ``u_e``.
        """
        prices = np.asarray(prices, dtype=float)
        if prices.shape != self.prices.shape:
            raise ValueError(
                f"prices shaped {prices.shape}, expected {self.prices.shape}"
            )
        child = SPMInstance.__new__(SPMInstance)
        child.topology = self.topology
        child.requests = self.requests
        child.paths = self.paths
        child.edges = self.edges
        child.edge_index = self.edge_index
        child.prices = prices
        child.path_edges = self.path_edges
        child._fastform = None
        return child

    # -------------------------------------------------------------- accessors

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_edges(self) -> int:
        """|E|: number of directed edges."""
        return len(self.edges)

    @property
    def num_slots(self) -> int:
        """T: billing-cycle length in slots."""
        return self.requests.num_slots

    def num_paths(self, request_id: int) -> int:
        """L_i: candidate-path count of request ``request_id``."""
        return len(self.paths[request_id])

    def request(self, request_id: int) -> Request:
        return self.requests[request_id]

    def path(self, request_id: int, path_idx: int) -> Path:
        try:
            return self.paths[request_id][path_idx]
        except (KeyError, IndexError):
            raise ScheduleError(
                f"no path #{path_idx} for request {request_id}"
            ) from None

    def uses_edge(self, request_id: int, path_idx: int, edge_idx: int) -> bool:
        """The incidence indicator ``I_{i,j,e}``."""
        return edge_idx in self.path_edges[request_id][path_idx]

    def formulation_compiler(self):
        """The instance's array-native formulation compiler, cached.

        Precomputes every request's (path, edge, slot) incidence arrays
        once and emits the RL-SPM / BL-SPM / full-SPM compiled models with
        vectorized numpy assembly; the online batch MILP
        (:class:`repro.core.online.IncrementalBatchCompiler`) is a view
        over it.  Restricted instances
        share their parent's compiler (see :meth:`restrict`).  Returns a
        :class:`repro.core.fastform.FormulationCompiler` (imported lazily
        to avoid a module cycle).
        """
        if self._fastform is None:
            from repro.core.fastform import FormulationCompiler

            self._fastform = FormulationCompiler(self)
        return self._fastform

    # ---------------------------------------------------------------- loads

    def loads(self, assignment: dict[int, int | None]) -> np.ndarray:
        """Per-(edge, slot) bandwidth demanded by ``assignment``.

        ``assignment`` maps request id -> chosen path index (or ``None`` for
        declined).  Returns an array of shape ``(num_edges, num_slots)``.

        One ``np.bincount`` scatter-adds every (edge, slot) cell of every
        chosen path, keyed ``edge * T + slot`` in assignment order.
        ``bincount`` adds its weights in input order starting from 0.0, so
        each cell holds the bits of adding the requests' rates one by one
        in that order.
        """
        num_slots = self.num_slots
        edges, starts, spans, rates = [], [], [], []
        for req_id, path_idx in assignment.items():
            if path_idx is None:
                continue
            req = self.requests[req_id]
            edges.append(self.path_edges[req_id][path_idx])
            starts.append(req.start)
            spans.append(req.end - req.start + 1)
            rates.append(req.rate)
        if not edges:
            return np.zeros((self.num_edges, num_slots))
        hops = np.fromiter(map(len, edges), dtype=np.intp, count=len(edges))
        # One entry per (request, edge), expanded to one per covered slot.
        base = np.concatenate(edges) * num_slots + np.repeat(starts, hops)
        width = np.repeat(spans, hops)
        first = np.cumsum(width) - width
        slot = np.arange(int(width.sum())) - np.repeat(first, width)
        keys = np.repeat(base, width) + slot
        weights = np.repeat(np.repeat(rates, hops), width)
        cells = np.bincount(
            keys, weights=weights, minlength=self.num_edges * num_slots
        )
        return cells.reshape(self.num_edges, num_slots)

    def __repr__(self) -> str:
        return (
            f"SPMInstance(topology={self.topology.name!r}, "
            f"K={self.num_requests}, T={self.num_slots}, |E|={self.num_edges})"
        )
