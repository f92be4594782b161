"""Exact enumeration of small batches, differentially tested against HiGHS.

:func:`repro.core.online.solve_batch` decides a batch whose joint choice
space ``prod(|P_i| + 1)`` is at most ``ENUMERATION_CAP`` by listing every
joint choice (:func:`repro.core.online.enumerate_batch`) instead of
solving the batch MILP.  These tests pin that the two backends agree:

* the enumerated objective equals the MILP optimum;
* HiGHS's own choice, committed on a copy, realizes the enumerated
  optimum — so every difference between the two choices is a tie;
* committing the enumerated choice realizes exactly the reported
  objective under the decision prices.

States are random B4 / SUB-B4 states with nonzero duals, loads placed
within 1e-9 of a unit boundary, single-path bids and batches exactly at
the cap.  The seams the serving stack relies on (cancellation poll, time
limit, cacheable ``OPTIMAL`` status) are tested at the end.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.core.online as online_mod
from repro.core.instance import SPMInstance
from repro.core.online import (
    _CEIL_TOL,
    choice_space,
    commit_decision,
    enumerate_batch,
    solve_batch,
)
from repro.exceptions import SolverError, SolverTimeoutError
from repro.lp.result import SolveStatus
from repro.net.topologies import b4, sub_b4
from repro.state.faults import FaultPlan
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.value_models import FlatRateValueModel, PriceAwareValueModel

differential_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_TOPOLOGIES = {"b4": b4(), "sub-b4": sub_b4()}
_INSTANCES: dict[tuple, SPMInstance] = {}


def _instance(topology: str, seed: int, k_paths: int, flat: bool) -> SPMInstance:
    key = (topology, seed, k_paths, flat)
    if key not in _INSTANCES:
        topo = _TOPOLOGIES[topology]
        workload = generate_workload(
            topo,
            WorkloadConfig(
                num_requests=24,
                num_slots=12,
                max_duration=4,
                value_model=(
                    FlatRateValueModel(1.8) if flat else PriceAwareValueModel()
                ),
            ),
            rng=seed,
        )
        _INSTANCES[key] = SPMInstance.build(topo, workload, k_paths=k_paths)
    return _INSTANCES[key]


def _batch_within_cap(instance: SPMInstance, ids: list[int], size: int) -> list[int]:
    """The first ``size`` of ``ids`` that keep the choice space within the cap."""
    batch: list[int] = []
    for rid in ids:
        if len(batch) == size:
            break
        if choice_space(instance, batch + [rid]) <= online_mod.ENUMERATION_CAP:
            batch.append(rid)
    return batch


@st.composite
def batch_states(draw, at_cap: bool = False):
    """A random (instance, batch, committed_loads, charged) decision state."""
    topology = draw(st.sampled_from(sorted(_TOPOLOGIES)))
    seed = draw(st.integers(0, 40))
    k_paths = 3 if at_cap else draw(st.sampled_from([1, 2, 3]))
    instance = _instance(topology, seed, k_paths, draw(st.booleans()))
    ids = [req.request_id for req in instance.requests]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    # Sunk commitments: a random prefix, each on a random path or declined.
    committed = np.zeros((instance.num_edges, instance.num_slots))
    charged = np.zeros(instance.num_edges)
    num_sunk = draw(st.integers(0, 12))
    for rid in ids[:num_sunk]:
        choice = int(rng.integers(instance.num_paths(rid) + 1))
        path = None if choice == instance.num_paths(rid) else choice
        commit_decision(instance, [rid], [path], committed, charged)
    rest = ids[num_sunk:]

    if at_cap:
        # The cap, 1024 = 4**5, is five three-path bids.
        three_path = [rid for rid in rest if instance.num_paths(rid) == 3]
        assume(len(three_path) >= 5)
        batch = _batch_within_cap(instance, three_path, len(three_path))
        assert choice_space(instance, batch) == online_mod.ENUMERATION_CAP
    else:
        batch = _batch_within_cap(instance, rest, draw(st.integers(1, 6)))

    # Put the load a batch path would reach within 1e-9 of a unit boundary.
    for _ in range(draw(st.integers(0, 3))):
        rid = batch[int(rng.integers(len(batch)))]
        req = instance.request(rid)
        path = instance.path_edges[rid][int(rng.integers(instance.num_paths(rid)))]
        edge = int(path[int(rng.integers(path.size))])
        slot = int(rng.integers(req.start, req.end + 1))
        units = int(rng.integers(1, 4))
        nudge = float(rng.uniform(-1e-9, 1e-9))
        committed[edge, slot] = max(units - req.rate + nudge, 0.0)
    charged = np.maximum(charged, np.ceil(committed.max(axis=1) - _CEIL_TOL))

    if draw(st.booleans()):
        duals = rng.uniform(0.0, 0.5, instance.num_edges)
        instance = instance.reprice(instance.prices + duals)
    return instance, batch, committed, charged


def _realized(instance, batch, choices, committed, charged) -> float:
    """Commit ``choices`` on copies; the profit it realizes, kernel-summed.

    Revenue accumulates in batch order from 0.0 and the purchase cost is
    summed over the batch's touched edges in edge order — the order
    :func:`enumerate_batch` uses — so equal decisions give equal bits.
    """
    loads, units = committed.copy(), charged.copy()
    commit_decision(instance, batch, list(choices), loads, units)
    revenue = 0.0
    for rid, choice in zip(batch, choices):
        revenue += 0.0 if choice is None else float(instance.request(rid).value)
    edges = np.unique(np.concatenate(
        [edge_idx for rid in batch for edge_idx in instance.path_edges[rid]]
    ))
    bought = units - charged
    assert np.all(bought[np.setdiff1d(np.arange(bought.size), edges)] == 0.0)
    return revenue - float((bought[edges] * instance.prices[edges]).sum())


def _highs(instance, batch, committed, charged):
    with mock.patch.object(online_mod, "ENUMERATION_CAP", 0):
        return solve_batch(instance, batch, committed, charged)


def _check_against_highs(state) -> None:
    instance, batch, committed, charged = state
    before = (committed.copy(), charged.copy())
    choices, objective = enumerate_batch(instance, batch, committed, charged)
    assert np.array_equal(committed, before[0])
    assert np.array_equal(charged, before[1])

    milp = _highs(instance, batch, committed, charged)
    assert milp.status is SolveStatus.OPTIMAL
    assert objective == pytest.approx(milp.objective, rel=1e-6, abs=1e-6)
    # Every disagreement is a tie: HiGHS's choice realizes the same optimum.
    assert _realized(
        instance, batch, milp.choices, committed, charged
    ) == pytest.approx(objective, rel=1e-9, abs=1e-9)
    # The reported objective is exactly what the commit realizes.
    assert _realized(instance, batch, choices, committed, charged) == objective


class TestAgainstHiGHS:
    @given(batch_states())
    @differential_settings
    def test_objective_equals_the_milp_optimum(self, state):
        _check_against_highs(state)

    @given(batch_states(at_cap=True))
    @differential_settings
    def test_batches_exactly_at_the_cap(self, state):
        _check_against_highs(state)

    def test_solve_batch_dispatches_by_choice_space(self):
        instance = _instance("b4", 3, 3, False)
        committed = np.zeros((instance.num_edges, instance.num_slots))
        charged = np.zeros(instance.num_edges)
        ids = [req.request_id for req in instance.requests]
        small = _batch_within_cap(instance, ids, 2)
        decided = solve_batch(instance, small, committed, charged)
        assert (decided.choices, decided.objective) == enumerate_batch(
            instance, small, committed, charged
        )
        # Above the cap the MILP decides, exactly as before.
        large = ids[:8]
        assert choice_space(instance, large) > online_mod.ENUMERATION_CAP
        assert solve_batch(instance, large, committed, charged) == _highs(
            instance, large, committed, charged
        )


class TestSeams:
    def _one_bid(self):
        instance = _instance("b4", 5, 3, False)
        committed = np.zeros((instance.num_edges, instance.num_slots))
        charged = np.zeros(instance.num_edges)
        return instance, [instance.requests[0].request_id], committed, charged

    def test_decision_is_cacheable_optimal(self):
        decided = solve_batch(*self._one_bid())
        assert decided.status is SolveStatus.OPTIMAL
        assert not decided.suboptimal and not decided.screened

    def test_cancellation_poll_fires_the_fault_hang(self, tmp_path):
        faults = FaultPlan(
            hang_solver_seconds=0.05,
            hang_once_path=str(tmp_path / "hang.latch"),
        )
        started = time.perf_counter()
        decided = solve_batch(
            *self._one_bid(),
            time_limit=1.0,
            check_cancelled=faults.maybe_hang_solver,
        )
        assert (tmp_path / "hang.latch").exists()
        assert time.perf_counter() - started >= 0.05
        # The hang eats wall clock before enumeration, not its limit.
        assert decided.status is SolveStatus.OPTIMAL

    def test_cancelled_batch_is_not_enumerated(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("enumerated after cancellation")

        monkeypatch.setattr(online_mod, "enumerate_batch", boom)
        with pytest.raises(SolverError, match="cancelled"):
            solve_batch(*self._one_bid(), check_cancelled=lambda: True)

    def test_enumeration_past_the_time_limit_times_out(self, monkeypatch):
        real = online_mod.enumerate_batch

        def slow(*args, **kwargs):
            time.sleep(0.02)
            return real(*args, **kwargs)

        monkeypatch.setattr(online_mod, "enumerate_batch", slow)
        with pytest.raises(SolverTimeoutError, match="enumeration"):
            solve_batch(*self._one_bid(), time_limit=0.01)
        assert solve_batch(*self._one_bid(), time_limit=1.0).status is (
            SolveStatus.OPTIMAL
        )
