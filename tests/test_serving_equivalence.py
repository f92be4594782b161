"""Differential tests across the serving paths.

Every serving path decides through the same cycle engine, so on the same
bids they must agree on every decision field, every purchased unit and
the profit to the last bit:

* ``run_cycle`` against the gateway's :class:`LiveCycleEngine` fed the
  same admission windows (with and without dual prices, with shedding,
  multi-slot windows and varied ``max_batch``);
* ``ShardedBroker(shards=1)`` against the unsharded ``Broker``;
* a serial ``Broker`` (one engine, path cache kept across cycles)
  against a pooled one (a fresh engine per cycle in each worker).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gateway.engine import LiveCycleEngine
from repro.net.topologies import sub_b4
from repro.service.broker import Broker, BrokerConfig, run_cycle
from repro.service.cache import DecisionCache
from repro.service.clock import SimClock
from repro.service.ingest import AdmissionQueue
from repro.shard import ShardConfig, ShardedBroker
from repro.workload.generator import WorkloadConfig, generate_workload

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _decision_fields(record) -> tuple:
    """A batch record minus its timing field."""
    return (
        record.cycle,
        record.window_start,
        record.size,
        record.accepted,
        record.declined,
        record.shed,
        record.revenue,
        record.incremental_cost,
        record.cache_hit,
        record.timed_out,
        record.suboptimal,
        record.rung,
    )


def _feed_windows(engine, requests, *, window, queue_capacity):
    """Push ``requests`` into ``engine`` window by window, like the gateway."""
    queue = AdmissionQueue(queue_capacity)
    shed_ids = []
    for tick in SimClock(requests.num_slots, window=window).windows(0):
        shed_before = queue.shed
        for slot in tick.slots:
            for req in requests:
                if req.start == slot and not queue.offer(req):
                    shed_ids.append(req.request_id)
        engine.decide(
            queue.drain(),
            window_start=tick.window_start,
            window_shed=queue.shed - shed_before,
        )
    return engine.close_cycle(), shed_ids


@st.composite
def serving_cases(draw):
    topology = sub_b4()
    slots = draw(st.integers(2, 6))
    requests = generate_workload(
        topology,
        WorkloadConfig(
            num_requests=draw(st.integers(0, 24)),
            num_slots=slots,
            max_duration=3,
        ),
        rng=draw(st.integers(0, 2**16)),
    )
    duals = None
    if draw(st.booleans()):
        duals = np.array(
            draw(
                st.lists(
                    st.sampled_from([0.0, 0.25, 1.0, 3.5]),
                    min_size=len(topology.edges),
                    max_size=len(topology.edges),
                )
            )
        )
    return dict(
        topology=topology,
        requests=requests,
        window=draw(st.integers(1, 3)),
        max_batch=draw(st.one_of(st.none(), st.integers(1, 6))),
        queue_capacity=draw(st.one_of(st.none(), st.integers(1, 6))),
        duals=duals,
    )


class TestRunCycleMatchesGatewayEngine:
    @given(serving_cases())
    @_settings
    def test_same_windows_same_decisions(self, case):
        topology, requests = case["topology"], case["requests"]
        broker = run_cycle(
            topology,
            requests,
            window=case["window"],
            queue_capacity=case["queue_capacity"],
            max_batch=case["max_batch"],
            cache=DecisionCache(64),
            dual_prices=case["duals"],
            time_limit=30.0,
        )
        engine = LiveCycleEngine(
            topology,
            requests.num_slots,
            max_batch=case["max_batch"],
            cache=DecisionCache(64),
            dual_prices=case["duals"],
            time_limit=30.0,
        )
        live, shed_ids = _feed_windows(
            engine,
            requests,
            window=case["window"],
            queue_capacity=case["queue_capacity"],
        )

        assert [_decision_fields(r) for r in broker.batches] == [
            _decision_fields(r) for r in live.batches
        ]
        # run_cycle records shed bids as declines; the gateway answers
        # them before they reach the engine.
        assert broker.assignment == {
            **live.assignment,
            **dict.fromkeys(shed_ids),
        }
        assert broker.purchased == live.purchased
        assert (broker.num_requests, broker.accepted, broker.declined) == (
            live.num_requests,
            live.accepted,
            live.declined,
        )
        assert broker.shed == live.shed == len(shed_ids)
        assert repr(broker.revenue) == repr(live.revenue)
        assert repr(broker.cost) == repr(live.cost)
        assert repr(broker.profit) == repr(live.profit)


@st.composite
def broker_configs(draw, num_cycles=2):
    return dict(
        topology="sub-b4",
        num_cycles=num_cycles,
        slots_per_cycle=draw(st.integers(2, 6)),
        requests_per_cycle=draw(st.integers(0, 16)),
        seed=draw(st.integers(0, 2**16)),
        window=draw(st.integers(1, 2)),
        max_batch=draw(st.one_of(st.none(), st.integers(1, 6))),
        queue_capacity=draw(st.one_of(st.none(), st.integers(2, 8))),
        time_limit=30.0,
    )


def _assert_same_run(left, right) -> None:
    assert left.decision_log() == right.decision_log()
    assert [repr(c.profit) for c in left.cycles] == [
        repr(c.profit) for c in right.cycles
    ]


class TestShardedOneShardMatchesBroker:
    @given(broker_configs())
    @_settings
    def test_one_shard_is_the_unsharded_broker(self, fields):
        broker = Broker(BrokerConfig(**fields)).run()
        sharded = ShardedBroker(ShardConfig(shards=1, **fields)).run()
        _assert_same_run(broker, sharded)
        assert [c.purchased for c in sharded.cycles] == [
            c.purchased for c in broker.cycles
        ]
        assert [
            [_decision_fields(r) for r in c.batches] for c in broker.cycles
        ] == [
            [_decision_fields(r) for r in c.batches] for c in sharded.cycles
        ]


class TestSerialMatchesPooled:
    @given(broker_configs(num_cycles=3))
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_persistent_engine_matches_fresh_worker_engines(self, fields):
        serial = Broker(BrokerConfig(workers=0, **fields)).run()
        pooled = Broker(BrokerConfig(workers=2, **fields)).run()
        _assert_same_run(serial, pooled)
        assert [c.purchased for c in serial.cycles] == [
            c.purchased for c in pooled.cycles
        ]
        # Cache residency differs (one cache vs. one per worker), so only
        # the cache_hit/rung labels may differ.
        def ledgers(report):
            return [
                [
                    (r.size, r.accepted, r.shed, r.revenue, r.incremental_cost)
                    for r in c.batches
                ]
                for c in report.cycles
            ]

        assert ledgers(serial) == ledgers(pooled)
