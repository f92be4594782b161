"""Array-native compilation of the SPM formulations.

Every Metis alternation round solves the RL-SPM and BL-SPM relaxations,
the exact baselines solve the full SPM and RL-SPM ILPs, and the online
batch MILP is the full SPM over one admission batch.
:class:`FormulationCompiler` builds all of them: it precomputes each
request's (path, edge, slot) incidence triplets once per instance and then
emits the RL-SPM, BL-SPM and full-SPM compiled models with vectorized
numpy assembly, reusing :func:`repro.lp.fastbuild.compile_coo`.  All of
them share one incidence layout; the serving layer's
:class:`~repro.core.online.IncrementalBatchCompiler` takes the integral
SPM over a batch (:meth:`FormulationCompiler.compile_spm_batch`) and
rewrites its capacity-row right-hand sides and ``c`` bounds.

The build mirrors the symbolic statement of each model (the test-suite's
expression-layer oracle, ``tests/oracles/formulations.py``) in row order
(per-request rows first, capacity rows in first-appearance order), column
order (x columns in request/path order, then c columns in edge order) and
float arithmetic exactly, so both hand HiGHS *bitwise-identical* matrices
— asserted matrix-by-matrix in ``tests/test_core_fastform.py``.

Between Metis rounds the request set only shrinks and the capacities only
tighten, so the compiler additionally caches each assembled structure per
(model kind, active-request tuple): a repeat solve over the same request
set reuses the cached sparse matrix and — for BL-SPM, whose capacities
enter solely through the capacity-row right-hand sides — rewrites only
``row_upper``.  A shrunken request set re-assembles from the precomputed
per-request arrays (a column/row masking of the parent's incidence) rather
than re-running the Python incidence loops.

Solve the compiled models with :func:`repro.lp.solvers.solve_compiled_raw`
and read path weights from the raw column vector via
:attr:`CompiledFormulation.x_offsets`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import ModelError
from repro.lp.fastbuild import compile_coo, with_row_upper
from repro.lp.model import CompiledModel
from repro.lp.warmstart import ResolveSession

__all__ = ["CompiledFormulation", "FormulationCompiler"]

EdgeKey = tuple

#: Assembled structures kept per compiler; Metis revisits at most the
#: current round's request set, so a small window captures every reuse.
_STRUCTURE_CACHE_SIZE = 16


@dataclass(frozen=True)
class CompiledFormulation:
    """A compiled model plus the array maps back to problem entities.

    ``x_offsets`` has one entry per request plus a sentinel: request ``i``
    (in instance order) owns solution columns
    ``x_offsets[i]:x_offsets[i + 1]``, one per candidate path in path
    order.  For RL-SPM and full SPM the integer/continuous ``c`` columns
    for all edges follow the x block, exactly as in the reference build.

    ``cap_edges``/``cap_slots`` give, per capacity row (in row order), the
    directed-edge index and slot it constrains.  ``entry_terms``,
    ``entry_x_cols`` and ``entries_per_x`` expose the flattened incidence
    the rows were assembled from — per incidence entry its capacity-row
    rank and x column, and per x column its entry count (entries of one
    column are contiguous) — which the vectorized TAA estimator build
    reuses instead of re-walking paths.

    ``session`` is the :class:`~repro.lp.warmstart.ResolveSession` owned by
    the underlying cached structure: every formulation compiled from the
    same (kind, integrality, request set) shares one session, so MAA and
    TAA, which solve every relaxation through it, get exact-repeat and
    certified-dual reuse across rounds for free.  Solving through
    :func:`~repro.lp.solvers.solve_compiled_raw` instead gives the same
    bits.  An uncached build
    (:meth:`FormulationCompiler.compile_spm_batch`) has none.
    """

    compiled: CompiledModel
    request_ids: tuple
    x_offsets: np.ndarray
    num_choice_rows: int
    cap_edges: np.ndarray
    cap_slots: np.ndarray
    entry_terms: np.ndarray
    entry_x_cols: np.ndarray
    entries_per_x: np.ndarray
    session: ResolveSession | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_x(self) -> int:
        return int(self.x_offsets[-1])


class FormulationCompiler:
    """Array-native builder for RL-SPM, BL-SPM, full-SPM and batch models.

    Obtain the cached compiler via
    :meth:`repro.core.instance.SPMInstance.formulation_compiler`; restricted
    instances share their parent's compiler (and hence its per-request
    incidence cache), so the θ-round shrink loop never recomputes
    incidence.  Every ``compile_*`` method takes the (possibly restricted)
    instance whose request set defines the model.
    """

    def __init__(self, instance) -> None:
        self.num_slots = int(instance.num_slots)
        self.num_edges = int(instance.num_edges)
        self.prices = np.asarray(instance.prices, dtype=float)
        self._topology = instance.topology
        self._edges = instance.edges
        self._c_upper: np.ndarray | None = None  # SPM ceilings, lazy
        #: rid -> (num_paths, keys, path_cols, rates, path_entry_counts, value)
        self._per_request: dict[int, tuple] = {}
        self._structures: OrderedDict[tuple, CompiledFormulation] = OrderedDict()
        self._ensure_requests(instance)

    # ---------------------------------------------------------- incidence

    def _ensure_requests(self, instance) -> None:
        """Cache the incidence arrays of every request of ``instance``.

        All missing requests are flattened in one batch of array ops: the
        cross product of each path edge with its request's slot window is
        laid out (entry-major, slot-minor) — the same nesting the
        symbolic builders walk, so first-appearance order of
        (edge, slot) keys (and hence cap-row order) matches — and the
        global arrays are then split back per request.
        """
        missing = [
            req
            for req in instance.requests
            if req.request_id not in self._per_request
        ]
        if not missing:
            return
        num_slots = self.num_slots
        per_path = [
            (req, edges)
            for req in missing
            for edges in instance.path_edges[req.request_id]
        ]
        path_sizes = np.array([edges.size for _, edges in per_path], dtype=np.int64)
        slots_per_path = np.array(
            [req.end - req.start + 1 for req, _ in per_path], dtype=np.int64
        )
        # Per path: its local index within its request, and per (path, edge)
        # entry: the edge index, request start and slot count.
        paths_per_req = np.array(
            [len(instance.path_edges[req.request_id]) for req in missing],
            dtype=np.int64,
        )
        path_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(paths_per_req)]
        )
        local_path = np.arange(path_starts[-1], dtype=np.int64) - np.repeat(
            path_starts[:-1], paths_per_req
        )
        entry_edge = (
            np.concatenate([edges for _, edges in per_path]).astype(np.int64)
            if per_path
            else np.zeros(0, dtype=np.int64)
        )
        entry_path = np.repeat(local_path, path_sizes)
        entry_slots = np.repeat(slots_per_path, path_sizes)
        entry_start = np.repeat(
            np.array([req.start for req, _ in per_path], dtype=np.int64),
            path_sizes,
        )
        # Expand each entry into its slot window.
        block_starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(entry_slots)]
        )
        within = np.arange(block_starts[-1], dtype=np.int64) - np.repeat(
            block_starts[:-1], entry_slots
        )
        keys_all = (
            np.repeat(entry_edge, entry_slots) * num_slots
            + np.repeat(entry_start, entry_slots)
            + within
        )
        path_cols_all = np.repeat(entry_path, entry_slots)
        rates_all = np.repeat(
            np.array([float(req.rate) for req, _ in per_path]),
            path_sizes * slots_per_path,
        )
        counts_all = path_sizes * slots_per_path  # per path, across requests

        # Split the flat arrays back per request.
        entries_per_path_req = np.add.reduceat(counts_all, path_starts[:-1])
        cuts = np.cumsum(entries_per_path_req)[:-1]
        keys_split = np.split(keys_all, cuts)
        cols_split = np.split(path_cols_all, cuts)
        rates_split = np.split(rates_all, cuts)
        counts_split = np.split(counts_all, path_starts[1:-1])
        for i, req in enumerate(missing):
            self._per_request[req.request_id] = (
                int(paths_per_req[i]),
                keys_split[i],
                cols_split[i],
                rates_split[i],
                counts_split[i],
                float(req.value),
            )

    def spm_ceilings(self) -> np.ndarray:
        """Per-edge upper bounds on ``c_e``: the topology's capacity ceilings.

        ``inf`` where the topology sets none; read once, at the first call.
        """
        if self._c_upper is None:
            self._c_upper = np.array(
                [
                    float("inf") if ceiling is None else float(ceiling)
                    for ceiling in (
                        self._topology.capacity(*key) for key in self._edges
                    )
                ]
            )
        return self._c_upper

    # ----------------------------------------------------------- assembly

    def _structure(
        self, instance, kind: str, integral: bool
    ) -> CompiledFormulation:
        rids = tuple(instance.requests.request_ids)
        key = (kind, integral, rids)
        cached = self._structures.get(key)
        if cached is not None:
            self._structures.move_to_end(key)
            return cached
        self._ensure_requests(instance)
        # One warm-start session per cached structure, living exactly as
        # long as the cache entry: every derivative model
        # (``with_row_upper`` rewrites between rounds) anchors to the same
        # matrix, so the session's reuse tiers apply across the whole
        # shrink loop.
        structure = self._assemble(rids, kind, integral, ResolveSession())
        self._structures[key] = structure
        while len(self._structures) > _STRUCTURE_CACHE_SIZE:
            self._structures.popitem(last=False)
        return structure

    def _assemble(
        self,
        rids: tuple,
        kind: str,
        integral: bool,
        session: ResolveSession | None = None,
    ) -> CompiledFormulation:
        num_slots, num_edges = self.num_slots, self.num_edges
        per = [self._per_request[rid] for rid in rids]
        num_requests = len(rids)

        paths_per_req = np.array([p[0] for p in per], dtype=np.int64)
        x_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(paths_per_req)]
        )
        num_x = int(x_offsets[-1])

        # Flattened incidence across the active requests (request-major,
        # path-major within a request, slot-minor within a path edge).
        entry_keys = (
            np.concatenate([p[1] for p in per])
            if per else np.zeros(0, dtype=np.int64)
        )
        entry_x_cols = (
            np.concatenate(
                [x_offsets[i] + per[i][2] for i in range(num_requests)]
            )
            if per else np.zeros(0, dtype=np.int64)
        )
        entry_data = (
            np.concatenate([p[3] for p in per]) if per else np.zeros(0)
        )
        entries_per_x = (
            np.concatenate([p[4] for p in per])
            if per else np.zeros(0, dtype=np.int64)
        )

        # Touched (edge, slot) pairs, ranked in first-appearance order —
        # the capacity-row order of the symbolic builders.
        uniq_keys, first_pos, inverse = np.unique(
            entry_keys, return_index=True, return_inverse=True
        )
        appearance = np.argsort(first_pos, kind="stable")
        rank = np.empty(appearance.size, dtype=np.int64)
        rank[appearance] = np.arange(appearance.size)
        entry_terms = rank[inverse]
        num_cap = uniq_keys.size
        cap_edges = (uniq_keys // num_slots)[appearance]
        cap_slots = (uniq_keys % num_slots)[appearance]

        # One per-request row (== 1 for RL, <= 1 otherwise), then the
        # capacity rows; RL/SPM couple each capacity row to its edge's c
        # column with a -1 coefficient.
        has_c = kind in ("rl", "spm")
        choice_rows = np.repeat(
            np.arange(num_requests, dtype=np.int64), paths_per_req
        )
        choice_cols = np.arange(num_x, dtype=np.int64)
        row_parts = [choice_rows, num_requests + entry_terms]
        col_parts = [choice_cols, entry_x_cols]
        data_parts = [np.ones(num_x), entry_data]
        if has_c:
            row_parts.append(
                num_requests + np.arange(num_cap, dtype=np.int64)
            )
            col_parts.append(num_x + cap_edges)
            data_parts.append(-np.ones(num_cap))

        num_rows = num_requests + num_cap
        num_vars = num_x + (num_edges if has_c else 0)
        row_lower = np.full(num_rows, -np.inf)
        row_upper = np.empty(num_rows)
        if kind == "rl":
            row_lower[:num_requests] = 1.0  # satisfy every request exactly
        row_upper[:num_requests] = 1.0
        # ``load <= c_var`` normalizes to rhs ``-0.0`` in a symbolic
        # build (``-expr.constant`` with constant ``+0.0``); mirror the bit
        # pattern so the compiled arrays are memcmp-identical, not just
        # ``==``-equal.  BL overwrites this span with capacities.
        row_upper[num_requests:] = -0.0

        objective = np.zeros(num_vars)
        if kind != "rl":
            objective[:num_x] = np.repeat(
                np.array([p[5] for p in per]), paths_per_req
            )
        if kind == "rl":
            objective[num_x:] = self.prices
        elif kind == "spm":
            objective[num_x:] = -self.prices

        var_lower = np.zeros(num_vars)
        var_upper = np.empty(num_vars)
        var_upper[:num_x] = 1.0
        if has_c:
            var_upper[num_x:] = (
                self.spm_ceilings() if kind == "spm" else np.inf
            )
        integrality = (
            np.ones(num_vars, dtype=np.int8)
            if integral
            else np.zeros(num_vars, dtype=np.int8)
        )

        compiled = compile_coo(
            objective=objective,
            maximize=kind != "rl",
            rows=np.concatenate(row_parts),
            cols=np.concatenate(col_parts),
            data=np.concatenate(data_parts),
            num_rows=num_rows,
            row_lower=row_lower,
            row_upper=row_upper,
            var_lower=var_lower,
            var_upper=var_upper,
            integrality=integrality,
            check=False,
        )
        return CompiledFormulation(
            compiled=compiled,
            request_ids=rids,
            x_offsets=x_offsets,
            num_choice_rows=num_requests,
            cap_edges=cap_edges,
            cap_slots=cap_slots,
            entry_terms=entry_terms,
            entry_x_cols=entry_x_cols,
            entries_per_x=entries_per_x,
            session=session,
        )

    # ------------------------------------------------------------ builders

    def compile_rl_spm(
        self, instance, *, integral: bool = False
    ) -> CompiledFormulation:
        """RL-SPM: minimize cost while satisfying every request.

        ``integral=True`` is the exact ILP, OPT(RL-SPM).
        """
        return self._structure(instance, "rl", integral)

    def compile_bl_spm(
        self,
        instance,
        capacities: dict[EdgeKey, int],
        *,
        integral: bool = False,
    ) -> CompiledFormulation:
        """BL-SPM: maximize revenue under fixed capacities.

        The capacities enter solely through the capacity-row right-hand
        sides, so a repeat compile over the same request set (the Metis
        shrink loop) reuses the cached matrix and rewrites only
        ``row_upper``.
        """
        missing = [key for key in self._edges if key not in capacities]
        if missing:
            raise ModelError(f"capacities missing for edges: {missing[:3]}...")
        structure = self._structure(instance, "bl", integral)
        caps = np.array(
            [float(capacities[self._edges[e]]) for e in structure.cap_edges]
        )
        # A symbolic build normalizes ``load <= cap`` to
        # ``-(0.0 - cap)``, which is ``-0.0`` (not ``+0.0``) for
        # zero-capacity edges; replicate the exact bit pattern.
        choice_upper = structure.compiled.row_upper[: structure.num_choice_rows]
        row_upper = np.concatenate([choice_upper, -(0.0 - caps)])
        return replace(
            structure, compiled=with_row_upper(structure.compiled, row_upper)
        )

    def compile_spm(
        self, instance, *, integral: bool = True
    ) -> CompiledFormulation:
        """The full SPM: jointly choose acceptance, paths and bandwidth.

        ``integral=True`` is the exact ILP, OPT(SPM).  Each ``c_e`` is
        bounded by :meth:`spm_ceilings`.
        """
        return self._structure(instance, "spm", integral)

    def compile_spm_batch(self, request_ids) -> CompiledFormulation:
        """The integral full SPM over ``request_ids`` in that order, uncached.

        The structure of the online batch MILP, which
        :class:`~repro.core.online.IncrementalBatchCompiler` takes over
        and rewrites the bounds of.  Every call assembles afresh, with no
        structure-cache entry and no warm-start session: a serving batch's
        id tuple never repeats, and the caller owns the returned arrays.
        Every id must belong to the instance this compiler serves.
        """
        return self._assemble(tuple(request_ids), "spm", True)

    # ----------------------------------------------------------- readback

    @staticmethod
    def weights_from_raw(
        formulation: CompiledFormulation, x: np.ndarray
    ) -> dict[int, list[float]]:
        """Per-request path weights straight from a raw solution vector.

        Weights are clipped into ``[0, 1]`` to absorb solver round-off, and
        returned keyed by request id in instance order.
        """
        clipped = np.clip(x[: formulation.num_x], 0.0, 1.0)
        offsets = formulation.x_offsets
        return {
            rid: clipped[offsets[i] : offsets[i + 1]].tolist()
            for i, rid in enumerate(formulation.request_ids)
        }
