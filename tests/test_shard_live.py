"""Sharded live serving: the ShardedLiveEngine and the sharded gateway."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.decomp.partition import source_shard_map
from repro.exceptions import RecoveryError
from repro.gateway import GatewayConfig, GatewayServer
from repro.gateway.engine import LiveCycleEngine
from repro.gateway.protocol import decode_message
from repro.net.topologies import star_topology, sub_b4
from repro.service.telemetry import LatencyHistogram, TelemetryCollector
from repro.shard import ShardConfig, ShardedLiveEngine
from repro.workload.request import Request

_FAST = dict(
    topology="sub-b4",
    slots_per_cycle=4,
    window=1,
    slot_seconds=0.03,
    num_cycles=None,
    time_limit=5.0,
)

_SOURCES = ("DC1", "DC2", "DC3", "DC4")


def _bids(count, *, start_id=0, slots=4, rate=1.0, value=50.0):
    return [
        Request(
            start_id + i,
            _SOURCES[i % 4],
            _SOURCES[(i + 1) % 4],
            0,
            slots - 1,
            rate,
            value,
        )
        for i in range(count)
    ]


def _bid_line(req: Request) -> bytes:
    record = {
        "request_id": req.request_id,
        "source": req.source,
        "dest": req.dest,
        "start": req.start,
        "end": req.end,
        "rate": req.rate,
        "value": req.value,
    }
    return (json.dumps(record) + "\n").encode()


async def _connect(server: GatewayServer):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    hello = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
    assert hello["type"] == "hello"
    return reader, writer


async def _read(reader) -> dict:
    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
    assert line
    return decode_message(line)


def _fleet_config(topology, shards=2, **fields) -> ShardConfig:
    return ShardConfig(
        topology=topology,
        slots_per_cycle=4,
        shards=shards,
        time_limit=5.0,
        **fields,
    )


class TestShardedLiveEngine:
    def _engine(self, shards=2) -> ShardedLiveEngine:
        topology = sub_b4()
        return ShardedLiveEngine(topology, _fleet_config(topology, shards))

    def test_decisions_come_back_in_input_order(self):
        engine = self._engine()
        batch = _bids(8)
        choices = engine.decide(batch, window_start=0)
        assert len(choices) == len(batch)
        merged = {}
        for sub_engine in engine._engines:
            merged.update(sub_engine.assignment)
        for req, choice in zip(batch, choices):
            assert engine.seen(req.request_id)
            assert merged[req.request_id] == choice
        assert engine.requests == batch

    def test_combined_cycle_result_sums_the_fleet(self):
        engine = self._engine()
        batch = _bids(10)
        engine.decide(batch, window_start=0, window_shed=2)
        result = engine.close_cycle()
        # Re-closing a shard engine re-accounts the same committed cycle.
        shard_results = [sub.close_cycle() for sub in engine._engines]
        assert len(shard_results) == 2
        assert result.num_requests == len(batch) + 2
        assert result.accepted == sum(r.accepted for r in shard_results)
        assert result.declined == sum(r.declined for r in shard_results)
        assert result.shed == 2
        assert result.revenue == pytest.approx(
            sum(r.revenue for r in shard_results)
        )
        assert result.cost == pytest.approx(
            sum(r.cost for r in shard_results)
        )
        assert result.profit == pytest.approx(result.revenue - result.cost)
        assert sorted(result.assignment) == sorted(
            req.request_id for req in batch
        )
        # Batch records land in decision order; purchases sum per edge.
        assert result.batches == engine.batches
        for edge, units in result.purchased.items():
            assert units == pytest.approx(
                sum(r.purchased.get(edge, 0.0) for r in shard_results)
            )
        counters = result.fleet["shards"]
        assert len(counters) == 2
        assert sum(c["accepted"] for c in counters) == result.accepted
        assert sum(c["shed"] for c in counters) == 2
        assert result.fleet["ledger"] == engine.ledger.to_record()

    def test_cycles_advance_across_all_shards(self):
        engine = self._engine()
        engine.decide(_bids(4), window_start=0)
        engine.close_cycle()
        engine.start_cycle(1)
        assert engine.cycle == 1
        assert engine.requests == [] and engine.batches == []
        assert not engine.seen(0)
        engine.decide(_bids(4, start_id=100), window_start=0)
        result = engine.close_cycle()
        assert result.cycle == 1
        assert sorted(result.assignment) == [100, 101, 102, 103]

    def test_joint_oversubscription_raises_duals_and_steers_windows(self):
        # A star where every bid crosses the (DC0, DC1) hub link of
        # capacity 2.  Each shard enforces the cap *locally*, so two
        # shards accepting a rate-2 bid each jointly load the link to 4 —
        # the ledger must notice, price the link up, and make the next
        # window's marginal bid unprofitable.
        topo = star_topology(8)
        topo.set_uniform_capacity(2)
        engine = ShardedLiveEngine(topo, _fleet_config(topo, shards=3))
        by_shard: dict[int, list[str]] = {}
        for node, shard in engine._shard_of.items():
            if node not in ("DC0", "DC1"):
                by_shard.setdefault(shard, []).append(node)
        assert len(by_shard) == 3, "stable hash left a shard empty"
        src_a, src_b, src_c = (
            sorted(by_shard[shard])[0] for shard in sorted(by_shard)
        )

        window0 = [
            Request(0, src_a, "DC1", 0, 0, 2.0, 50.0),
            Request(1, src_b, "DC1", 0, 0, 2.0, 50.0),
        ]
        choices = engine.decide(window0, window_start=0)
        assert choices == [0, 0]  # locally feasible: both shards accept
        # Joint hub-link load 4 against capacity 2: one subgradient step
        # of the harmonic schedule (step0 = mean price = 1) adds 1 * 2.
        assert engine.ledger.price_iterations == 1
        hub = next(
            i
            for i, edge in enumerate(engine.ledger.edges)
            if set(edge) == {"DC0", "DC1"}
        )
        assert engine.ledger.duals[hub] == pytest.approx(2.0)
        assert float(engine.ledger.duals.sum()) == pytest.approx(2.0)

        # A disjoint-slot bid worth 3.0 from the idle third shard: its
        # true cost is 2.0 (one unit on each of two links), so an
        # unsteered engine accepts it -- but against the dual surcharge
        # the effective cost is 4.0 and the fleet must decline.
        probe = Request(2, src_c, "DC1", 1, 1, 1.0, 3.0)
        control = LiveCycleEngine(topo, 4, time_limit=5.0)
        assert control.decide([probe], window_start=1) == [0]
        assert engine.decide([probe], window_start=1) == [None]
        engine.close_cycle()

    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            _fleet_config("sub-b4", shards=0)
        with pytest.raises(ValueError, match="partition"):
            _fleet_config("sub-b4", partition="modulo")

    def test_fleet_is_built_from_its_config(self):
        topology = sub_b4()
        config = _fleet_config(
            topology, shards=3, partition="region", max_batch=5, breaker_failures=2
        )
        engine = ShardedLiveEngine(topology, config)
        assert (engine.num_shards, engine.partition) == (3, "region")
        assert len(engine._engines) == 3
        for sub_engine, breaker in zip(engine._engines, engine.breakers):
            assert sub_engine.max_batch == 5
            assert sub_engine.slots_per_cycle == 4
            assert sub_engine.ladder.time_limit == 5.0
            assert sub_engine.ladder.breaker is breaker
            assert breaker.failure_threshold == 2
        assert len({id(breaker) for breaker in engine.breakers}) == 3


class TestShardedGateway:
    def _serve(self, *, shards=2, wal=None, resume=False, count=12):
        async def scenario():
            config = GatewayConfig(
                **_FAST,
                shards=shards,
                wal_path=wal,
                fsync="always" if wal else "batch",
                resume=resume,
            )
            server = GatewayServer(config)
            await server.start()
            reader, writer = await _connect(server)
            start_id = 1000 if resume else 0
            bids = _bids(count, start_id=start_id)
            writer.writelines([_bid_line(req) for req in bids])
            await writer.drain()
            decisions = [await _read(reader) for _ in range(count)]
            writer.close()
            await server.stop()
            return server, decisions

        return asyncio.run(scenario())

    def test_sharded_gateway_serves_and_accounts_exactly(self):
        server, decisions = self._serve()
        assert all(d["type"] == "decision" for d in decisions)
        server.counters.assert_reconciled(where="test epilogue")
        assert server.counters.submitted == 12
        summary = server.report()
        assert summary["num_shards"] == 2
        # Per-shard telemetry sections cover every decided bid.
        shard_total = sum(
            section["decisions"]
            for section in server.telemetry.shards.values()
        )
        assert shard_total == (
            server.counters.accepted + server.counters.rejected
        )

    def test_sharded_matches_unsharded_on_uncapped_topology(self):
        # sub-B4 is uncapped and these bids are far above cost, so the
        # sharded fleet must accept exactly what the monolithic gateway
        # does, for exactly the same total profit.
        mono, mono_decisions = self._serve(shards=1)
        sharded, sharded_decisions = self._serve(shards=2)
        assert all(d["decision"] == "accept" for d in mono_decisions)
        assert all(d["decision"] == "accept" for d in sharded_decisions)
        assert sum(c.profit for c in sharded.cycles) == pytest.approx(
            sum(c.profit for c in mono.cycles)
        )

    def test_sharded_wal_resume_is_bit_identical(self, tmp_path):
        wal = tmp_path / "sharded.wal"
        first, _ = self._serve(wal=wal)
        resumed, _ = self._serve(wal=wal, resume=True)
        assert first.cycles and len(resumed.cycles) >= len(first.cycles)
        for replayed, reference in zip(resumed.cycles, first.cycles):
            assert replayed.cycle == reference.cycle
            assert replayed.assignment == reference.assignment
            assert replayed.purchased == reference.purchased
            assert replayed.profit == reference.profit

    def test_resumed_gateway_keeps_recovered_shard_counters(self, tmp_path):
        wal = tmp_path / "sharded.wal"
        self._serve(wal=wal, count=10)
        resumed, _ = self._serve(wal=wal, resume=True, count=10)
        summary = resumed.report()
        assert summary["decisions"] == 20
        sections = summary["shards"]
        assert sum(section["decisions"] for section in sections.values()) == 20
        assert summary["ledger_price_iterations"] == (
            resumed.cycles[-1].fleet["ledger"]["price_iterations"]
        )

    def test_resume_restores_duals_from_the_last_commit(self, tmp_path):
        # A capped star: rate-2 bids from three shards jointly load the
        # (DC0, DC1) hub link of capacity 2 past its ceiling, so the
        # ledger's duals rise before the drain commits the cycle.
        topo = star_topology(8)
        topo.set_uniform_capacity(2)
        by_shard: dict[int, list[str]] = {}
        for node, shard in source_shard_map(
            topo, topo.datacenters, 3, "hash"
        ).items():
            if node not in ("DC0", "DC1"):
                by_shard.setdefault(shard, []).append(node)
        sources = [sorted(by_shard[shard])[0] for shard in sorted(by_shard)]
        wal = tmp_path / "capped.wal"

        def config(resume):
            return GatewayConfig(
                **{**_FAST, "topology": topo},
                shards=3,
                wal_path=wal,
                resume=resume,
            )

        async def serve_bids():
            server = GatewayServer(config(False))
            await server.start()
            reader, writer = await _connect(server)
            bids = [
                Request(rid, source, "DC1", 0, 3, 2.0, 50.0)
                for rid, source in enumerate(sources)
            ]
            writer.writelines([_bid_line(req) for req in bids])
            await writer.drain()
            for _ in bids:
                await _read(reader)
            writer.close()
            await server.stop()
            return server

        async def resume():
            server = GatewayServer(config(True))
            await server.start()
            restored = server._engine.ledger.to_record()
            await server.stop()
            return restored

        first = asyncio.run(serve_bids())
        committed = first.cycles[-1].fleet["ledger"]
        assert any(committed["duals"])
        assert first._engine.ledger.to_record() == committed
        assert asyncio.run(resume()) == committed

    def test_resume_under_different_shard_count_refuses(self, tmp_path):
        wal = tmp_path / "sharded.wal"
        self._serve(wal=wal, shards=2)
        with pytest.raises(RecoveryError):
            self._serve(wal=wal, shards=3, resume=True)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shards"):
            GatewayConfig(**_FAST, shards=0)
        with pytest.raises(ValueError, match="partition"):
            GatewayConfig(**_FAST, partition="rr")


class TestShardTelemetry:
    def test_record_shard_accumulates_numeric_counters(self):
        telemetry = TelemetryCollector()
        telemetry.record_shard(0, {"decisions": 4, "revenue": 2.5})
        telemetry.record_shard(0, {"decisions": 3, "revenue": 1.5})
        telemetry.record_shard(1, {"decisions": 7})
        assert telemetry.shards[0]["decisions"] == 7
        assert telemetry.shards[0]["revenue"] == pytest.approx(4.0)
        assert telemetry.shards[1]["decisions"] == 7
        assert telemetry.summary()["num_shards"] == 2

    def test_dump_json_emits_shard_sections(self, tmp_path):
        telemetry = TelemetryCollector()
        telemetry.record_shard(1, {"decisions": 2, "profit": 1.25})
        path = tmp_path / "telemetry.json"
        telemetry.dump_json(path)
        payload = json.loads(path.read_text())
        assert payload["shards"] == {"1": {"decisions": 2, "profit": 1.25}}

    def test_latency_histogram_merged(self):
        parts = []
        for base in (0.001, 0.01, 0.1):
            histogram = LatencyHistogram()
            for k in range(10):
                histogram.record(base * (k + 1))
            parts.append(histogram)
        merged = LatencyHistogram.merged(parts)
        assert merged.total == sum(p.total for p in parts) == 30
        assert merged.sum_seconds == pytest.approx(
            sum(p.sum_seconds for p in parts)
        )
        assert merged.max_observed == pytest.approx(
            max(p.max_observed for p in parts)
        )
        # Bucket-exact: merging is the same as recording every sample
        # (mean aside, where only summation order differs).
        whole = LatencyHistogram()
        for base in (0.001, 0.01, 0.1):
            for k in range(10):
                whole.record(base * (k + 1))
        assert (merged.counts == whole.counts).all()
        assert merged.summary() == pytest.approx(whole.summary())
        assert LatencyHistogram.merged([]).total == 0
