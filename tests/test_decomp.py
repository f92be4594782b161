"""The decomposition package: partitioning, ledger, solver, oracle gap."""

from __future__ import annotations

import numpy as np
import pytest

from repro import b4, sub_b4
from repro.core.instance import SPMInstance
from repro.decomp import (
    BandwidthLedger,
    DecompConfig,
    oracle_gap,
    partition_requests,
    profit_gap_bound,
    shard_of_source,
    solve_decomposed,
    solve_exact,
    source_shard_map,
)
from repro.net.topology import Topology
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.request import Request, RequestSet

_TOL = 1e-9


def _instance(num_requests=24, *, topology=None, seed=3, num_slots=6):
    topology = topology if topology is not None else b4()
    requests = generate_workload(
        topology,
        WorkloadConfig(num_requests=num_requests, num_slots=num_slots),
        rng=seed,
    )
    return SPMInstance.build(topology, requests, k_paths=3)


def _two_island_topology() -> Topology:
    """Two edge-disjoint regions: sharding by region loses nothing."""
    topo = Topology("islands", regions={})
    for node, region in (
        ("A1", "east"), ("A2", "east"), ("A3", "east"),
        ("B1", "west"), ("B2", "west"), ("B3", "west"),
    ):
        topo.add_datacenter(node, region=region)
    topo.add_link("A1", "A2", 1.0)
    topo.add_link("A2", "A3", 2.0)
    topo.add_link("A1", "A3", 4.0)
    topo.add_link("B1", "B2", 1.5)
    topo.add_link("B2", "B3", 2.5)
    topo.add_link("B1", "B3", 5.0)
    return topo


def _island_requests(num_slots=4) -> RequestSet:
    reqs = []
    rid = 0
    for src, dst in (("A1", "A3"), ("A2", "A3"), ("A1", "A2")):
        for k in range(3):
            reqs.append(
                Request(rid, src, dst, 0, num_slots - 1, 1.0, 30.0 + rid)
            )
            rid += 1
    for src, dst in (("B1", "B3"), ("B2", "B3"), ("B1", "B2")):
        for k in range(3):
            reqs.append(
                Request(rid, src, dst, 0, num_slots - 1, 1.0, 25.0 + rid)
            )
            rid += 1
    return RequestSet(reqs, num_slots)


class TestPartition:
    def test_hash_partition_is_stable_and_total(self):
        topo = b4()
        requests = list(_instance(30).requests)
        shards = partition_requests(topo, requests, 4, "hash")
        assert len(shards) == 4
        flat = sorted(rid for shard in shards for rid in shard)
        assert flat == sorted(req.request_id for req in requests)
        # Same request -> same shard, run after run.
        again = partition_requests(topo, requests, 4, "hash")
        assert shards == again
        for req in requests:
            expected = shard_of_source(req.source, 4)
            assert req.request_id in shards[expected]

    def test_region_partition_keeps_regions_together(self):
        topo = _two_island_topology()
        requests = list(_island_requests())
        shards = partition_requests(topo, requests, 2, "region")
        assert len(shards) == 2
        by_id = {req.request_id: req for req in requests}
        for shard in shards:
            regions = {topo.region(by_id[rid].source) for rid in shard}
            assert len(regions) == 1

    def test_region_map_is_batch_independent(self):
        # The live gateway shards window-sized batches; any subset of
        # sources must map exactly like the full set.
        topo = _two_island_topology()
        full = source_shard_map(topo, topo.datacenters, 2, "region")
        for subset in (["A1"], ["B2", "A3"], ["B1", "B3"]):
            partial = source_shard_map(topo, subset, 2, "region")
            for source in subset:
                assert partial[source] == full[source]

    def test_single_shard_takes_everything(self):
        topo = b4()
        requests = list(_instance(8).requests)
        [only] = partition_requests(topo, requests, 1, "hash")
        assert sorted(only) == sorted(req.request_id for req in requests)

    def test_validation(self):
        topo = b4()
        with pytest.raises(ValueError, match="num_shards"):
            partition_requests(topo, [], 0, "hash")
        with pytest.raises(ValueError, match="mode"):
            partition_requests(topo, [], 2, "round-robin")
        with pytest.raises(ValueError, match="num_shards"):
            shard_of_source("DC1", 0)


class TestBandwidthLedger:
    def _capped_ledger(self, cap=2.0):
        edges = [("X", "Y"), ("Y", "Z")]
        prices = np.array([1.0, 3.0])
        capacities = np.array([cap, np.inf])
        # Harmonic steps scaled to the mean price: 2.0, then 1.0, ...
        return BandwidthLedger(edges, prices, capacities, 4)

    def test_uncapped_ledger_short_circuits(self):
        edges = [("X", "Y")]
        ledger = BandwidthLedger(
            edges, np.array([1.0]), np.array([np.inf]), 4
        )
        assert not ledger.capped
        assert float(ledger.violation().max(initial=0.0)) == 0.0

    def test_post_violation_update_cycle(self):
        ledger = self._capped_ledger(cap=2.0)
        assert ledger.capped
        loads = np.zeros((2, 4))
        loads[0, 1] = 5.0  # peak 5 on a cap-2 edge -> violation 3
        loads[1, 0] = 100.0  # uncapped edge never violates
        ledger.begin_round()
        ledger.post(0, loads)
        violation = ledger.violation()
        assert violation[0] == pytest.approx(3.0)
        assert violation[1] == 0.0
        worst = ledger.update_prices()
        assert worst == pytest.approx(3.0)
        assert ledger.duals[0] == 6.0  # 2.0 / 1 * 3
        assert ledger.duals[1] == 0.0
        assert ledger.effective_prices()[0] == 7.0
        # A feasible round pulls the dual back down (projected at 0).
        ledger.begin_round()
        ledger.post(0, np.zeros((2, 4)))
        ledger.update_prices()
        assert ledger.duals[0] == 4.0  # 6.0 + 2.0 / 2 * (-2)

    def test_duals_never_negative(self):
        ledger = self._capped_ledger()
        for _ in range(6):
            ledger.begin_round()
            ledger.post(0, np.zeros((2, 4)))
            ledger.update_prices()
        assert (ledger.duals >= 0.0).all()

    def test_record_round_trip_is_bit_identical(self):
        ledger = self._capped_ledger()
        loads = np.zeros((2, 4))
        loads[0, 0] = 7.0
        ledger.begin_round()
        ledger.post(0, loads)
        ledger.update_prices()
        ledger.record_evictions(3)
        record = ledger.to_record()

        clone = self._capped_ledger()
        clone.apply_record(record)
        assert np.array_equal(clone.duals, ledger.duals)
        assert clone.price_iterations == ledger.price_iterations
        assert clone.evictions == ledger.evictions
        assert clone.counters() == ledger.counters()


class TestSolveDecomposed:
    def test_matches_exact_on_edge_disjoint_regions(self):
        # Region shards never share a link, so price coordination has
        # nothing to reconcile and the decomposition is exactly optimal.
        topo = _two_island_topology()
        instance = SPMInstance.build(topo, _island_requests(), k_paths=2)
        exact = solve_exact(instance)
        outcome = solve_decomposed(
            instance, DecompConfig(num_shards=2, mode="region")
        )
        assert outcome.profit == pytest.approx(exact.profit)
        assert outcome.schedule.assignment == exact.assignment
        assert outcome.evicted == ()

    def test_profit_gap_bound_on_full_span_requests(self):
        # All-full-span requests peak in a common slot, the precondition
        # of the (S-1) * sum(u_e) additive bound.
        topo = sub_b4()
        rng = np.random.default_rng(11)
        reqs = [
            Request(
                rid,
                *rng.choice(["DC1", "DC2", "DC3", "DC4"], 2, replace=False),
                0,
                3,
                float(rng.uniform(0.05, 0.4)),
                float(rng.uniform(5.0, 40.0)),
            )
            for rid in range(20)
        ]
        instance = SPMInstance.build(topo, RequestSet(reqs, 4), k_paths=3)
        for shards in (2, 3):
            gap = oracle_gap(instance, DecompConfig(num_shards=shards))
            assert gap["bound"] == pytest.approx(
                profit_gap_bound(instance, shards)
            )
            assert gap["gap"] >= -1e-9
            assert gap["within_bound"]

    def test_capped_output_is_always_slot_feasible(self):
        topo = b4()
        topo.set_uniform_capacity(1)
        instance = _instance(40, topology=topo, seed=13)
        outcome = solve_decomposed(
            instance, DecompConfig(num_shards=3, max_rounds=3)
        )
        loads = instance.loads(outcome.schedule.assignment)
        assert float(loads.max(initial=0.0)) <= 1.0 + _TOL
        # The caps bind under this workload: the ledger actually iterated
        # or the reconciliation pass actually evicted.
        assert outcome.rounds >= 1
        for rid in outcome.evicted:
            assert outcome.schedule.assignment[rid] is None

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            DecompConfig(num_shards=0)
        with pytest.raises(ValueError, match="mode"):
            DecompConfig(mode="alphabetical")
        with pytest.raises(ValueError, match="max_rounds"):
            DecompConfig(max_rounds=0)


class TestRestrictEdgeCases:
    def test_empty_restriction_solves_trivially(self):
        instance = _instance(6)
        empty = instance.restrict([])
        assert empty.num_requests == 0
        assert empty.prices is instance.prices
        outcome = solve_decomposed(empty, DecompConfig(num_shards=2))
        assert outcome.profit == 0.0
        assert outcome.schedule.assignment == {}

    def test_all_requests_in_one_shard(self):
        # A partition can funnel everything into one shard; the others
        # solve empty instances and the merged result is complete.
        instance = _instance(10, seed=21)
        ids = [req.request_id for req in instance.requests]
        outcome = solve_decomposed(instance, DecompConfig(num_shards=4))
        assert sorted(outcome.schedule.assignment) == sorted(ids)
        exact = solve_exact(instance)
        assert outcome.profit <= exact.profit + 1e-6

    def test_restrict_of_restrict_shares_the_compiler(self):
        instance = _instance(12)
        # Materialize the lazily-built compiler on the root.
        root_form = instance.formulation_compiler()
        ids = [req.request_id for req in instance.requests]
        child = instance.restrict(ids[:8])
        grandchild = child.restrict(ids[:3])
        for view in (child, grandchild):
            assert view.formulation_compiler() is root_form
            assert view.prices is instance.prices
            assert view.edge_index is instance.edge_index
        assert [r.request_id for r in grandchild.requests] == ids[:3]
        # The shared compiler still solves the narrowed view correctly.
        schedule = solve_exact(grandchild)
        assert set(schedule.assignment) == set(ids[:3])
