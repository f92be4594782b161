"""Hypothesis property tests across the whole pipeline.

Random workloads on random small WANs; the properties are the structural
invariants every component must preserve no matter the draw.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.ecoflow import solve_ecoflow
from repro.core.instance import SPMInstance
from repro.core.maa import improve_paths, solve_maa
from repro.core.metis import prune_unprofitable
from repro.core.schedule import Schedule
from repro.core.taa import solve_taa
from repro.net.topologies import random_wan
from repro.sim.validator import validate_schedule
from repro.workload.request import Request, RequestSet

SLOTS = 6


@st.composite
def random_instance(draw, capacitated: bool = False):
    """A small random WAN plus a random request set.

    ``capacitated=True`` also draws a capacity ceiling per directed edge:
    none, or 0 to 3 units.
    """
    topo_seed = draw(st.integers(min_value=0, max_value=10_000))
    n_dcs = draw(st.integers(min_value=3, max_value=6))
    max_extra = n_dcs * (n_dcs - 1) // 2 - n_dcs
    extra = draw(st.integers(min_value=0, max_value=min(2, max_extra)))
    topo = random_wan(n_dcs, extra, price_range=(1.0, 5.0), rng=topo_seed)
    if capacitated:
        ceilings = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
        for edge in topo.edges:
            topo.set_capacity(edge.tail, edge.head, draw(ceilings))
    dcs = topo.datacenters

    n_requests = draw(st.integers(min_value=1, max_value=10))
    requests = []
    for i in range(n_requests):
        src_idx = draw(st.integers(min_value=0, max_value=n_dcs - 1))
        dst_off = draw(st.integers(min_value=1, max_value=n_dcs - 1))
        start = draw(st.integers(min_value=0, max_value=SLOTS - 1))
        end = draw(st.integers(min_value=start, max_value=SLOTS - 1))
        requests.append(
            Request(
                request_id=i,
                source=dcs[src_idx],
                dest=dcs[(src_idx + dst_off) % n_dcs],
                start=start,
                end=end,
                rate=draw(
                    st.floats(min_value=0.05, max_value=0.5, allow_nan=False)
                ),
                value=draw(
                    st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
                ),
            )
        )
    return SPMInstance.build(topo, RequestSet(requests, SLOTS), k_paths=2)


common_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestMaaProperties:
    @given(random_instance())
    @common_settings
    def test_maa_satisfies_all_and_validates(self, instance):
        result = solve_maa(instance, rng=0)
        assert result.schedule.num_accepted == instance.num_requests
        assert validate_schedule(result.schedule).ok
        assert result.cost >= result.fractional_cost - 1e-6

    @given(random_instance())
    @common_settings
    def test_improve_paths_never_worse(self, instance):
        schedule = solve_maa(instance, rng=1).schedule
        improved = improve_paths(instance, schedule.assignment)
        assert Schedule(instance, improved).cost <= schedule.cost + 1e-9


class TestTaaProperties:
    @given(random_instance(), st.integers(min_value=0, max_value=3))
    @common_settings
    def test_taa_feasible_and_bounded(self, instance, cap_units):
        capacities = {key: cap_units for key in instance.edges}
        result = solve_taa(instance, capacities)
        result.schedule.check_capacities(capacities)
        assert result.revenue <= result.relaxation_revenue + 1e-6
        assert validate_schedule(result.schedule).ok


class TestScheduleProperties:
    @given(random_instance())
    @common_settings
    def test_charging_is_minimal_integer_cover(self, instance):
        schedule = solve_maa(instance, rng=2).schedule
        peaks = schedule.loads.max(axis=1)
        for idx, key in enumerate(instance.edges):
            units = schedule.charged[key]
            assert units >= peaks[idx] - 1e-9
            assert units <= math.ceil(peaks[idx] - 1e-9) or units == 0

    @given(random_instance())
    @common_settings
    def test_profit_decomposition(self, instance):
        schedule = solve_maa(instance, rng=3).schedule
        assert schedule.profit == pytest.approx(
            schedule.revenue - schedule.cost
        )


class TestPruneProperties:
    @given(random_instance())
    @common_settings
    def test_prune_monotone_profit_and_feasible(self, instance):
        schedule = solve_maa(instance, rng=4).schedule
        pruned = prune_unprofitable(instance, schedule)
        assert pruned.profit >= schedule.profit - 1e-9
        assert validate_schedule(pruned).ok
        accepted_before = set(schedule.accepted_ids)
        assert set(pruned.accepted_ids) <= accepted_before


class TestEcoflowProperties:
    @given(random_instance())
    @common_settings
    def test_ecoflow_profit_nonnegative_and_valid(self, instance):
        result = solve_ecoflow(instance)
        assert result.profit >= -1e-9
        assert validate_schedule(result.schedule).ok
