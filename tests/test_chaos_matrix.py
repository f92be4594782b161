"""The solver-fault chaos matrix: every fault, every cycle still commits.

Each scenario injects one failure mode from :class:`repro.state.FaultPlan`
— a solver hang eating the cycle budget, a pool worker crash loop, a
byzantine-slow worker behind the hedged sharded broker, a slow-loris
gateway client, a torn fleet-cycle commit — and asserts the same
contract: **100% of cycles commit a feasible schedule**, the accounting
identity ``accepted + declined + shed == submitted`` holds at every
commit, and the degradation machinery left the telemetry fingerprints it
should (rung counts, hedges, breaker/backoff counters).
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.gateway import GatewayConfig, GatewayServer
from repro.gateway.protocol import decode_message
from repro.service import Broker, BrokerConfig
from repro.shard import ShardConfig, ShardedBroker
from repro.state import FaultPlan, SimulatedCrash

_BASE = dict(
    topology="sub-b4",
    num_cycles=2,
    slots_per_cycle=6,
    requests_per_cycle=18,
    seed=2019,
    time_limit=240.0,
)


def _assert_cycles_commit(report, num_cycles: int) -> None:
    """Every cycle committed, with the accounting identity intact."""
    assert [c.cycle for c in report.cycles] == list(range(num_cycles))
    for cycle in report.cycles:
        assert cycle.accepted + cycle.declined + cycle.shed == (
            cycle.num_requests
        ), f"cycle {cycle.cycle} accounting leak"
        # A committed cycle is feasible by construction (commit_decision
        # ratchets the ledgers); profit decomposition must reconcile.
        assert cycle.profit == pytest.approx(cycle.revenue - cycle.cost)


class TestSolverHang:
    def test_hang_eats_the_budget_but_every_cycle_commits(self, tmp_path):
        """An injected stuck-presolve stall degrades the rest of the cycle."""
        budget = 1.0
        config = BrokerConfig(**_BASE, max_batch=4, cycle_budget=budget)
        faults = FaultPlan(
            hang_solver_seconds=budget,
            hang_once_path=str(tmp_path / "hang.latch"),
        )
        started = time.perf_counter()
        report = Broker(config, faults=faults).run()
        wall = time.perf_counter() - started

        _assert_cycles_commit(report, config.num_cycles)
        summary = report.summary()
        rungs = summary["rung_counts"]
        # The hang fired inside the first granted solve (which still
        # finished), then the exhausted budget forced greedy answers for
        # the rest of cycle 0; cycle 1 re-armed and solved exactly.
        assert rungs.get("exact", 0) > 0
        assert rungs.get("greedy", 0) > 0
        # Commit latency: the worst cycle pays the hang plus the one
        # granted solve slice — never an unbounded stall.
        worst = max(c.wall_seconds for c in report.cycles)
        assert worst <= 2 * budget + 2.0
        assert wall <= config.num_cycles * (2 * budget + 2.0)

    def test_without_the_fault_no_degraded_rungs(self):
        config = BrokerConfig(**_BASE, max_batch=4, cycle_budget=30.0)
        report = Broker(config).run()
        _assert_cycles_commit(report, config.num_cycles)
        rungs = report.summary()["rung_counts"]
        assert rungs.get("greedy", 0) == 0
        assert rungs.get("lp_round", 0) == 0


class TestWorkerCrashLoop:
    def test_killed_worker_restarts_with_backoff_and_recommits(self, tmp_path):
        faults = FaultPlan(
            kill_worker_cycle=1, once_path=str(tmp_path / "kill.latch")
        )
        config = BrokerConfig(**_BASE, workers=2, cycle_budget=30.0)
        report = Broker(config, faults=faults).run()

        _assert_cycles_commit(report, config.num_cycles)
        summary = report.summary()
        assert summary["worker_restarts"] >= 1
        assert summary["backoff_seconds"] > 0.0
        # The retried cycle replays deterministically: the run's decisions
        # match an entirely faultless run.
        clean = Broker(BrokerConfig(**_BASE, workers=2, cycle_budget=30.0)).run()
        assert report.decision_log() == clean.decision_log()
        assert report.profit == pytest.approx(clean.profit)


class TestByzantineSlowWorker:
    def test_sick_shard_is_hedged_while_siblings_stay_exact(self, tmp_path):
        """One elected slow worker cannot hold the fleet past its deadline."""
        budget = 0.75
        config = ShardConfig(
            **_BASE,
            shards=2,
            workers=2,
            cycle_budget=budget,
            breaker_failures=2,
        )
        faults = FaultPlan(
            slow_worker_seconds=2.0,
            slow_worker_path=str(tmp_path / "slow.latch"),
        )
        broker = ShardedBroker(config, faults=faults)
        report = broker.run()

        _assert_cycles_commit(report, config.num_cycles)
        summary = report.summary()
        # At least one shard solve was hedged past the deadline and
        # re-decided locally (visible in the per-shard telemetry).
        hedges = sum(
            int(section.get("hedged_solves", 0))
            for section in summary.get("shards", {}).values()
        )
        assert hedges >= 1
        assert summary["breaker_failures"] >= 1
        # Both shards answered in every cycle: the slow worker degraded
        # its shard, it did not black-hole it.
        for cycle in report.cycles:
            assert cycle.num_requests > 0


class TestSlowLorisClient:
    def test_stalled_partial_line_cannot_stall_the_decision_loop(self):
        """A client that never finishes its bid line starves nothing."""
        config = GatewayConfig(
            topology="sub-b4",
            slots_per_cycle=4,
            window=1,
            slot_seconds=0.03,
            num_cycles=2,
            time_limit=5.0,
            cycle_budget=1.0,
        )

        async def scenario():
            server = GatewayServer(config)
            await server.start()
            host, port = server.address

            # The slow loris: half a bid, then silence (socket held open).
            loris_reader, loris_writer = await asyncio.open_connection(
                host, port
            )
            await loris_reader.readline()  # hello
            loris_writer.write(b'{"request_id": 999, "sour')
            await loris_writer.drain()

            # A healthy client racing real cycle deadlines.
            reader, writer = await asyncio.open_connection(host, port)
            await reader.readline()  # hello
            bids = [
                json.dumps(
                    {
                        "request_id": rid,
                        "source": "DC1",
                        "dest": "DC4",
                        "start": 0,
                        "end": 3,
                        "rate": 1.0,
                        "value": 50.0,
                    }
                ).encode()
                + b"\n"
                for rid in range(5)
            ]
            writer.writelines(bids)
            await writer.drain()
            decisions = [
                decode_message(
                    await asyncio.wait_for(reader.readline(), timeout=10.0)
                )
                for _ in range(5)
            ]
            await server.wait_closed()  # num_cycles=2 ends the run
            loris_writer.close()
            writer.close()
            return server, decisions

        server, decisions = asyncio.run(scenario())
        assert len(server.cycles) == 2
        assert all(d["type"] == "decision" for d in decisions)
        # The healthy client's five bids were all decided; the loris's
        # half-line never became a decision — at most a structured error
        # at teardown — and the identity holds either way.
        server.counters.assert_reconciled(where="chaos epilogue")
        assert server.counters.accepted + server.counters.rejected == 5
        assert server.counters.submitted - server.counters.errored == 5


class TestTornLedgerWrite:
    def test_torn_fleet_ledger_heals_on_resume(self, tmp_path):
        """A fleet cycle commit (ledger state inside) torn mid-frame heals."""
        fields = {**_BASE, "shards": 2, "wal_path": tmp_path / "fleet.wal"}
        baseline = ShardedBroker(
            ShardConfig(**{**fields, "wal_path": tmp_path / "base.wal"})
        ).run()

        # Appends: the open record, cycle 0's batch records, then the
        # first fleet cycle commit — the one torn here.
        faults = FaultPlan(torn_write_at=len(baseline.cycles[0].batches) + 2)
        with pytest.raises(SimulatedCrash):
            ShardedBroker(ShardConfig(**fields), faults=faults).run()

        resumed = ShardedBroker(ShardConfig(**fields)).run(resume=True)
        _assert_cycles_commit(resumed, _BASE["num_cycles"])
        assert resumed.decision_log() == baseline.decision_log()
        assert resumed.profit == pytest.approx(baseline.profit)
        assert [c.fleet for c in resumed.cycles] == [
            c.fleet for c in baseline.cycles
        ]
        assert resumed.summary()["recovered_batches"] == 0


@pytest.fixture
def spies(monkeypatch):
    """Record every breaker a config builds and every pool a fleet opens."""
    import repro.shard.broker as shard_broker
    from repro.service.pool import SolverPool

    built = {"breakers": [], "pools": []}
    make_breaker = BrokerConfig.breaker

    def breaker(self):
        made = make_breaker(self)
        built["breakers"].append(made)
        return made

    class SpyPool(SolverPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["pools"].append(self)

    monkeypatch.setattr(BrokerConfig, "breaker", breaker)
    monkeypatch.setattr(shard_broker, "SolverPool", SpyPool)
    return built


def _breaker_totals(breakers) -> dict:
    return {
        f"breaker_{name}": sum(getattr(b, name) for b in breakers)
        for name in ("opens", "failures", "probes", "short_circuits")
    }


class TestReportedCounters:
    """The report's breaker, pool and per-shard counters under a hang."""

    def test_broker_reports_its_breakers_counters(self, tmp_path, spies):
        # One window per cycle makes every batch too large to enumerate;
        # the hang at the solve poll counts against the batch's limit.
        config = BrokerConfig(
            **{
                **_BASE,
                "num_cycles": 3,
                "slots_per_cycle": 4,
                "window": 4,
                "time_limit": 0.3,
            },
            breaker_failures=1,
            breaker_reset=1e6,
        )
        faults = FaultPlan(
            hang_solver_seconds=0.5, hang_once_path=str(tmp_path / "hang.latch")
        )
        summary = Broker(config, faults=faults).run().summary()

        [breaker] = spies["breakers"]
        assert (breaker.opens, breaker.failures, breaker.state) == (1, 1, "open")
        assert breaker.short_circuits == 2
        assert {key: summary[key] for key in _breaker_totals([])} == (
            _breaker_totals([breaker])
        )
        assert summary["rung_counts"] == {"lp_round": 1, "greedy": 2}
        assert summary["shard_concurrency"] == 1
        assert "shards" not in summary

    def test_hedged_fleet_reports_breakers_hedges_and_pool(self, tmp_path, spies):
        config = ShardConfig(
            **_BASE,
            shards=2,
            workers=2,
            cycle_budget=0.75,
            breaker_failures=1,
            breaker_reset=1e6,
        )
        faults = FaultPlan(
            hang_solver_seconds=2.0, hang_once_path=str(tmp_path / "hang.latch")
        )
        report = ShardedBroker(config, faults=faults).run()
        _assert_cycles_commit(report, config.num_cycles)
        summary = report.summary()

        breakers = spies["breakers"]
        [pool] = spies["pools"]
        assert summary["shard_concurrency"] == pool.workers == 2
        assert summary["worker_restarts"] == pool.worker_restarts
        assert {key: summary[key] for key in _breaker_totals([])} == (
            _breaker_totals(breakers)
        )
        sections = summary["shards"]
        assert sorted(sections) == ["0", "1"]
        for shard_id, breaker in enumerate(breakers):
            section = sections[str(shard_id)]
            assert section["breaker_state"] == breaker.state
            assert section["breaker_opens"] == breaker.opens
            assert section["breaker_failures"] == breaker.failures
            # A hedged shard solve is the only way a breaker fails here.
            assert section["hedged_solves"] == breaker.failures
        assert sum(s["hedged_solves"] for s in sections.values()) >= 1
        assert "open" in [b.state for b in breakers]

    def test_serial_fleet_runs_at_concurrency_one(self, spies):
        summary = ShardedBroker(ShardConfig(**_BASE, shards=2)).run().summary()
        assert summary["shard_concurrency"] == 1
        assert spies["pools"] == []
        # No breaker and no hedge: the shard sections hold only the
        # per-cycle counters.
        for section in summary["shards"].values():
            assert "breaker_state" not in section
            assert "hedged_solves" not in section
