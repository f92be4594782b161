"""Unit and property tests for the resilience layer (repro.resilience).

Budget and breaker run against fake clocks (no sleeping); the ladder is
exercised on the diamond fixture so every rung's decision can be checked
against the exact optimum; the hypothesis block pins the greedy rung's
contract — link-feasible, profit >= 0 — on random instances including
``restrict()`` shards and dirty pre-existing cycle state.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import SPMInstance
from repro.core.online import commit_decision
from repro.net.topologies import random_wan
from repro.resilience import (
    RUNGS,
    CircuitBreaker,
    CycleBudget,
    DegradationLadder,
    ExponentialBackoff,
    greedy_admission,
    lp_round_admission,
)
from repro.workload.request import Request, RequestSet

from tests.conftest import make_request


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ------------------------------------------------------------- CycleBudget


class TestCycleBudget:
    def test_remaining_tracks_the_clock(self):
        clock = FakeClock()
        budget = CycleBudget(10.0, clock=clock)
        assert budget.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert budget.elapsed() == pytest.approx(4.0)
        assert budget.remaining() == pytest.approx(6.0)
        assert not budget.expired
        clock.advance(7.0)
        assert budget.remaining() == 0.0
        assert budget.expired

    def test_solve_limit_grants_shrinking_slices(self):
        clock = FakeClock()
        budget = CycleBudget(8.0, spread=0.5, clock=clock)
        assert budget.solve_limit() == pytest.approx(4.0)
        clock.advance(4.0)
        assert budget.solve_limit() == pytest.approx(2.0)
        # Shares split the slice; cap clips it.
        assert budget.solve_limit(shares=4) == pytest.approx(0.5)
        assert budget.solve_limit(cap=1.5) == pytest.approx(1.5)
        clock.advance(10.0)
        assert budget.solve_limit() == 0.0

    def test_affords_solver_floor(self):
        clock = FakeClock()
        budget = CycleBudget(1.0, spread=0.5, min_slice=0.1, clock=clock)
        assert budget.affords_solver()
        clock.advance(0.85)  # slice = 0.15 * 0.5 = 0.075 < 0.1
        assert not budget.affords_solver()

    def test_restart_rearms_the_full_deadline(self):
        clock = FakeClock()
        budget = CycleBudget(5.0, clock=clock)
        clock.advance(5.5)
        assert budget.expired
        budget.restart()
        assert budget.remaining() == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleBudget(0.0)
        with pytest.raises(ValueError):
            CycleBudget(1.0, spread=0.0)
        with pytest.raises(ValueError):
            CycleBudget(1.0, min_slice=-0.1)
        with pytest.raises(ValueError):
            CycleBudget(1.0).solve_limit(shares=0)


# ---------------------------------------------------------- CircuitBreaker


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_seconds=5.0, clock=clock
        )
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()  # still closed below the threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.short_circuits == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_grants_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # siblings are short-circuited
        assert breaker.probes == 1

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_and_rearms(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(2.0)  # inside the re-armed window
        assert breaker.state == "open"
        clock.advance(3.0)
        assert breaker.state == "half_open"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_seconds=-1.0)


# ------------------------------------------------------ ExponentialBackoff


class TestExponentialBackoff:
    def test_deterministic_for_a_seed(self):
        a = ExponentialBackoff(seed=7)
        b = ExponentialBackoff(seed=7)
        assert [a.next_delay() for _ in range(4)] == [
            b.next_delay() for _ in range(4)
        ]

    def test_grows_and_caps(self):
        backoff = ExponentialBackoff(
            base=0.1, factor=2.0, cap=0.4, jitter=0.0, seed=0
        )
        assert [backoff.next_delay() for _ in range(4)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.4]
        )
        assert backoff.total_seconds == pytest.approx(1.1)

    def test_reset_returns_to_the_first_rung(self):
        backoff = ExponentialBackoff(base=0.1, jitter=0.0)
        backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == pytest.approx(0.1)
        # total_seconds keeps accumulating across incidents
        assert backoff.total_seconds == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialBackoff(base=-1)
        with pytest.raises(ValueError):
            ExponentialBackoff(factor=0.5)
        with pytest.raises(ValueError):
            ExponentialBackoff(base=1.0, cap=0.5)
        with pytest.raises(ValueError):
            ExponentialBackoff(jitter=-0.1)


# ------------------------------------------------------- DegradationLadder


def _fresh_state(instance):
    num_edges = len(instance.edges)
    return (
        np.zeros((num_edges, instance.num_slots)),
        np.zeros(num_edges),
    )


def _committed_profit(instance, batch_ids, decision, loads, charged):
    """Apply ``decision`` on copies; return (accepted, profit)."""
    work_loads = loads.copy()
    work_charged = charged.copy()
    cost_before = float(instance.prices @ work_charged)
    accepted = commit_decision(
        instance, batch_ids, decision, work_loads, work_charged
    )
    revenue = sum(
        instance.request(rid).value
        for rid, path in zip(batch_ids, decision)
        if path is not None
    )
    cost = float(instance.prices @ work_charged) - cost_before
    return accepted, revenue - cost


class TestDegradationLadder:
    def test_exact_rung_on_an_easy_batch(self, diamond_instance):
        ladder = DegradationLadder()
        loads, charged = _fresh_state(diamond_instance)
        outcome = ladder.decide(
            diamond_instance, [0, 1, 2], loads, charged
        )
        assert outcome.rung == "exact"
        assert outcome.cacheable
        assert ladder.counts["exact"] == 1

    def test_starved_budget_goes_straight_to_greedy(self, diamond_instance):
        clock = FakeClock()
        budget = CycleBudget(1.0, min_slice=0.05, clock=clock)
        clock.advance(0.99)
        ladder = DegradationLadder(budget=budget)
        loads, charged = _fresh_state(diamond_instance)
        outcome = ladder.decide(diamond_instance, [0, 1, 2], loads, charged)
        assert outcome.rung == "greedy"
        assert not outcome.cacheable
        assert ladder.counts["greedy"] == 1

    def test_open_breaker_goes_straight_to_greedy(self, diamond_instance):
        breaker = CircuitBreaker(failure_threshold=1, clock=FakeClock())
        breaker.record_failure()
        ladder = DegradationLadder(breaker=breaker)
        loads, charged = _fresh_state(diamond_instance)
        outcome = ladder.decide(diamond_instance, [0, 1, 2], loads, charged)
        assert outcome.rung == "greedy"
        assert breaker.short_circuits >= 1

    def test_degraded_rungs_match_exact_on_the_diamond(self, diamond_instance):
        """The diamond batch is contention-free: every rung finds the optimum."""
        batch_ids = [0, 1, 2]
        loads, charged = _fresh_state(diamond_instance)
        exact = DegradationLadder().decide(
            diamond_instance, batch_ids, loads, charged
        )
        _, exact_profit = _committed_profit(
            diamond_instance, batch_ids, list(exact.choices), loads, charged
        )
        greedy = greedy_admission(diamond_instance, batch_ids, loads, charged)
        _, greedy_profit = _committed_profit(
            diamond_instance, batch_ids, greedy, loads, charged
        )
        rounded = lp_round_admission(
            diamond_instance, batch_ids, loads, charged
        )
        assert rounded is not None
        _, lp_profit = _committed_profit(
            diamond_instance, batch_ids, rounded, loads, charged
        )
        assert greedy_profit == pytest.approx(exact_profit)
        assert lp_profit == pytest.approx(exact_profit)

    def test_rungs_tuple_is_ordered_best_first(self):
        assert RUNGS == ("exact", "incumbent", "lp_round", "greedy", "decline")

    def test_greedy_declines_unprofitable_requests(self, diamond):
        # value 0.5 < cheapest-path cost 2: accepting would lose money.
        requests = RequestSet(
            [make_request(0, rate=0.5, value=0.5)], num_slots=4
        )
        instance = SPMInstance.build(diamond, requests, k_paths=2)
        loads, charged = _fresh_state(instance)
        assert greedy_admission(instance, [0], loads, charged) == [None]

    def test_greedy_rides_already_charged_units_for_free(self, diamond):
        # Request 1 fits inside the unit request 0 already paid for, so
        # its tiny value is still a non-negative margin.
        requests = RequestSet(
            [
                make_request(0, rate=1.0, value=3.0),
                make_request(1, rate=0.4, value=0.1, start=1, end=1),
            ],
            num_slots=4,
        )
        instance = SPMInstance.build(diamond, requests, k_paths=2)
        loads, charged = _fresh_state(instance)
        decision = greedy_admission(instance, [0, 1], loads, charged)
        assert decision[0] is not None
        # rate 1.0 + 0.4 = 1.4 > 1 unit => extra unit costs 2 > 0.1: decline;
        # but slot-1-only overlap on the *other* path is free only if the
        # peak stays under the charged ceiling — either way the margin rule
        # keeps profit non-negative.
        _, profit = _committed_profit(
            instance, [0, 1], decision, loads, charged
        )
        assert profit >= -1e-9


# ------------------------------------------------- greedy contract (property)

SLOTS = 6


@st.composite
def instance_and_state(draw):
    """A random instance plus dirty pre-existing cycle state."""
    topo_seed = draw(st.integers(min_value=0, max_value=10_000))
    n_dcs = draw(st.integers(min_value=3, max_value=6))
    max_extra = n_dcs * (n_dcs - 1) // 2 - n_dcs
    extra = draw(st.integers(min_value=0, max_value=min(2, max_extra)))
    topo = random_wan(n_dcs, extra, price_range=(1.0, 5.0), rng=topo_seed)
    dcs = topo.datacenters

    n_requests = draw(st.integers(min_value=1, max_value=8))
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
                    st.floats(min_value=0.05, max_value=0.9, allow_nan=False)
                ),
                value=draw(
                    st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
                ),
            )
        )
    instance = SPMInstance.build(topo, RequestSet(requests, SLOTS), k_paths=2)

    # Dirty mid-cycle state: arbitrary committed loads with the charged
    # vector anywhere between zero and well above the load ceiling.
    num_edges = len(instance.edges)
    loads = np.array(
        [
            [
                draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
                for _ in range(SLOTS)
            ]
            for _ in range(num_edges)
        ]
    )
    charged = np.array(
        [
            draw(st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
            for _ in range(num_edges)
        ]
    )
    restrict = draw(st.booleans())
    return instance, loads, charged, restrict


greedy_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestGreedyContract:
    @given(instance_and_state())
    @greedy_settings
    def test_greedy_is_feasible_and_profitable(self, drawn):
        instance, loads, charged, restrict = drawn
        batch_ids = list(instance.paths)
        if restrict and len(batch_ids) > 1:
            # The sharded path: greedy must hold on restrict() views too.
            batch_ids = batch_ids[: max(1, len(batch_ids) // 2)]
            instance = instance.restrict(batch_ids)
        loads_before = loads.copy()
        charged_before = charged.copy()

        decision = greedy_admission(instance, batch_ids, loads, charged)

        # Shape and path-index validity.
        assert len(decision) == len(batch_ids)
        for rid, path in zip(batch_ids, decision):
            assert path is None or 0 <= path < instance.num_paths(rid)
        # The inputs are never mutated.
        np.testing.assert_array_equal(loads, loads_before)
        np.testing.assert_array_equal(charged, charged_before)

        # Committing the decision never loses money, and the ledgers only
        # ever ratchet upward (link-feasibility of the accounting).
        work_loads = loads.copy()
        work_charged = charged.copy()
        accepted, profit = _committed_profit(
            instance, batch_ids, decision, loads, charged
        )
        commit_decision(instance, batch_ids, decision, work_loads, work_charged)
        assert profit >= -1e-6
        assert accepted == sum(1 for path in decision if path is not None)
        assert np.all(work_loads >= loads_before - 1e-12)
        assert np.all(work_charged >= charged_before - 1e-12)
        # Every accepted request's load landed on each edge of its path.
        for rid, path in zip(batch_ids, decision):
            if path is None:
                continue
            req = instance.request(rid)
            edge_idx = instance.path_edges[rid][path]
            window = work_loads[edge_idx, req.start : req.end + 1]
            base = loads_before[edge_idx, req.start : req.end + 1]
            assert np.all(window >= base + req.rate - 1e-9)

    @given(instance_and_state())
    @greedy_settings
    def test_ladder_greedy_rung_honors_the_same_contract(self, drawn):
        instance, loads, charged, _ = drawn
        batch_ids = list(instance.paths)
        clock = FakeClock()
        budget = CycleBudget(1.0, min_slice=0.5, clock=clock)
        clock.advance(0.99)  # starved: the ladder must answer via greedy
        ladder = DegradationLadder(budget=budget)
        outcome = ladder.decide(instance, batch_ids, loads, charged)
        assert outcome.rung == "greedy"
        _, profit = _committed_profit(
            instance, batch_ids, list(outcome.choices), loads, charged
        )
        assert profit >= -1e-6
