"""End-to-end gateway tests over real sockets.

Everything here runs a real :class:`GatewayServer` on a loopback port
with fast wall clocks (tens of milliseconds per slot) and a hand-rolled
NDJSON client, covering: decision streaming, malformed-line survival,
flood shedding with exact accounting, graceful drain, crash-during-live-
traffic recovery through the WAL, and the ``repro serve`` signal
contract in a real subprocess.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.gateway import GatewayConfig, GatewayServer
from repro.gateway.protocol import decode_message
from repro.shard import ShardConfig
from repro.state import FaultPlan, SimulatedCrash, config_fingerprint, recover

# Small sub-B4 cycles so every test finishes in well under a second of
# simulated serving; windows close every ~30-50ms of real time.
_FAST = dict(
    topology="sub-b4",
    slots_per_cycle=4,
    window=1,
    slot_seconds=0.03,
    num_cycles=None,
    time_limit=5.0,
)


def _bid_line(
    rid: int,
    *,
    source: str = "DC1",
    dest: str = "DC4",
    start: int = 0,
    end: int = 3,
    rate: float = 1.0,
    value: float = 50.0,
) -> bytes:
    record = {
        "request_id": rid,
        "source": source,
        "dest": dest,
        "start": start,
        "end": end,
        "rate": rate,
        "value": value,
    }
    return (json.dumps(record) + "\n").encode()


async def _read(reader: asyncio.StreamReader) -> dict:
    line = await asyncio.wait_for(reader.readline(), timeout=10.0)
    assert line, "server closed the stream mid-conversation"
    return decode_message(line)


async def _connect(server: GatewayServer):
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    hello = await _read(reader)
    assert hello["type"] == "hello"
    return reader, writer, hello


def _assert_reconciled(server: GatewayServer) -> None:
    server.counters.assert_reconciled(where="test epilogue")


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("time_limit", 0.0),
            ("time_limit", -1.0),
            ("time_limit", float("nan")),
            ("breaker_reset", float("nan")),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            GatewayConfig(**{**_FAST, field: value})

    def test_unlimited_time_limit_is_none(self):
        assert GatewayConfig(**{**_FAST, "time_limit": None}).time_limit is None

    def test_surrogate_carries_the_engine_levers(self):
        config = GatewayConfig(
            **_FAST,
            cache_size=7,
            cycle_budget=2.5,
            breaker_failures=3,
            breaker_reset=0.5,
        )
        surrogate = config.broker_config()
        assert isinstance(surrogate, ShardConfig)
        assert (surrogate.shards, surrogate.partition) == (1, "hash")
        assert surrogate.cache().maxsize == 7
        assert surrogate.budget().deadline_seconds == 2.5
        breaker = surrogate.breaker()
        assert (breaker.failure_threshold, breaker.reset_seconds) == (3, 0.5)
        # Execution levers only: the WAL fingerprint ignores them.
        assert config_fingerprint(surrogate) == config_fingerprint(
            GatewayConfig(**_FAST).broker_config()
        )
        for shards in (1, 4):
            fleet = GatewayConfig(
                shards=shards, partition="region", cycle_budget=1.5, breaker_failures=3
            ).broker_config()
            assert (fleet.shards, fleet.partition) == (shards, "region")
            # The digest such a gateway's WAL carried while its surrogate
            # was a plain BrokerConfig: those journals still resume.
            assert config_fingerprint(fleet) == "e8ac1337eec747db07e2ac58cc8f6670"


class TestLiveDecisions:
    def test_streams_decisions_then_bye_on_eof(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(**_FAST))
            await server.start()
            reader, writer, hello = await _connect(server)
            assert hello["topology"] == "SUB-B4"
            assert hello["slots_per_cycle"] == 4
            writer.writelines([_bid_line(rid) for rid in range(5)])
            await writer.drain()
            decisions = [await _read(reader) for _ in range(5)]
            writer.write_eof()
            bye = await _read(reader)
            writer.close()
            await server.stop()
            return server, decisions, bye

        server, decisions, bye = asyncio.run(scenario())
        assert [d["type"] for d in decisions] == ["decision"] * 5
        assert sorted(d["request_id"] for d in decisions) == list(range(5))
        for d in decisions:
            assert d["decision"] in ("accept", "reject")
            assert d["latency_ms"] >= 0.0
            if d["decision"] == "accept":
                assert isinstance(d["path"], int)
        assert bye["type"] == "bye" and bye["reason"] == "eof"
        assert bye["submitted"] == 5 and bye["responded"] == 5
        assert server.counters.submitted == 5
        assert server.counters.accepted + server.counters.rejected == 5
        _assert_reconciled(server)

    def test_accepted_bids_land_in_the_cycle_ledger(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(**_FAST))
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.writelines([_bid_line(rid) for rid in range(4)])
            await writer.drain()
            decisions = [await _read(reader) for _ in range(4)]
            writer.close()
            await server.stop()
            return server, decisions

        server, decisions = asyncio.run(scenario())
        # The drain committed the open cycle; every decision that was
        # acknowledged on the wire is in the committed assignment.
        assert server.cycles, "drain must commit the open cycle"
        assignment = server.cycles[0].assignment
        for d in decisions:
            expected = d["path"] if d["decision"] == "accept" else None
            assert assignment[d["request_id"]] == expected
        assert server.arrivals.fed_cycles[0] == 0


class TestMalformedInput:
    def test_bad_lines_get_errors_and_the_connection_survives(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(**_FAST))
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.write(b"{this is not json\n")
            writer.write(b'{"request_id": 1}\n')  # missing fields
            writer.write(_bid_line(2, source="XX"))  # unknown node
            writer.write(_bid_line(3, end=99))  # outside the cycle
            writer.write(_bid_line(4))  # and a valid one
            await writer.drain()
            responses = [await _read(reader) for _ in range(5)]
            writer.write_eof()
            bye = await _read(reader)
            writer.close()
            await server.stop()
            return server, responses, bye

        server, responses, bye = asyncio.run(scenario())
        errors = [r for r in responses if r["type"] == "error"]
        decisions = [r for r in responses if r["type"] == "decision"]
        assert len(errors) == 4 and len(decisions) == 1
        assert [e["line"] for e in errors] == [1, 2, 3, 4]
        assert "unknown node 'XX'" in errors[2]["error"]
        assert decisions[0]["request_id"] == 4
        assert bye["submitted"] == 5 and bye["responded"] == 5
        assert server.counters.errored == 4
        _assert_reconciled(server)

    def test_duplicate_request_ids_are_rejected_per_line(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(**_FAST))
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.write(_bid_line(7))
            writer.write(_bid_line(7))
            await writer.drain()
            responses = [await _read(reader) for _ in range(2)]
            writer.close()
            await server.stop()
            return server, responses

        server, responses = asyncio.run(scenario())
        kinds = sorted(r["type"] for r in responses)
        assert kinds == ["decision", "error"]
        error = next(r for r in responses if r["type"] == "error")
        assert "duplicate request_id 7" in error["error"]
        assert server.counters.errored == 1
        _assert_reconciled(server)


class TestHostileLines:
    """One hostile line costs its sender one ``error``, nothing more."""

    _BAD = [
        # Each would have raised past the parser before: an overflowing
        # id, an unhashable endpoint, an infinite bid, and their kin.
        b'{"request_id": Infinity, "source": "DC1", "dest": "DC4", '
        b'"start": 0, "end": 3, "rate": 1.0, "value": 5.0}\n',
        _bid_line(11).replace(b'"DC1"', b'["DC1"]'),
        _bid_line(12).replace(b'"value": 50.0', b'"value": Infinity'),
        _bid_line(13).replace(b'"rate": 1.0', b'"rate": NaN'),
        _bid_line(14).replace(b'"request_id": 14', b'"request_id": true'),
        _bid_line(15).replace(b'"start": 0', b'"start": 0.7'),
        _bid_line(16).replace(b'"request_id": 16', b'"request_id": ' + b"9" * 400),
        _bid_line(17).replace(b'"dest": "DC4"', b'"dest": {"id": "DC4"}'),
    ]

    def test_errors_per_line_and_the_gateway_keeps_serving(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(**_FAST))
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.write(_bid_line(1))
            writer.writelines(self._BAD)
            writer.write(_bid_line(2))
            await writer.drain()
            responses = [await _read(reader) for _ in range(len(self._BAD) + 2)]
            writer.write_eof()
            bye = await _read(reader)
            writer.close()
            # A later client is served once a cycle boundary has passed.
            for _ in range(200):
                if server.cycles:
                    break
                await asyncio.sleep(0.02)
            cycles_before = len(server.cycles)
            reader, writer, _ = await _connect(server)
            writer.write(_bid_line(100))
            await writer.drain()
            later = await _read(reader)
            writer.close()
            await server.stop()
            return server, responses, bye, cycles_before, later

        server, responses, bye, cycles_before, later = asyncio.run(scenario())
        errors = [r for r in responses if r["type"] == "error"]
        decisions = [r for r in responses if r["type"] == "decision"]
        assert [e["line"] for e in errors] == list(range(2, len(self._BAD) + 2))
        assert sorted(d["request_id"] for d in decisions) == [1, 2]
        assert all(d["decision"] in ("accept", "reject") for d in decisions)
        assert bye["type"] == "bye" and bye["reason"] == "eof"
        assert bye["submitted"] == bye["responded"] == len(self._BAD) + 2
        assert cycles_before >= 1
        assert later["type"] == "decision" and later["request_id"] == 100
        assert server.crashed is None
        assert server.counters.errored == len(self._BAD)
        _assert_reconciled(server)


class TestFloodShedding:
    def test_overflowing_the_admission_queue_sheds_with_answers(self):
        flood = 60

        async def scenario():
            config = GatewayConfig(
                **{**_FAST, "slot_seconds": 0.1}, queue_capacity=4
            )
            server = GatewayServer(config)
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.writelines([_bid_line(rid) for rid in range(flood)])
            await writer.drain()
            responses = [await _read(reader) for _ in range(flood)]
            writer.close()
            await server.stop()
            return server, responses

        server, responses = asyncio.run(scenario())
        verdicts = [r["decision"] for r in responses]
        assert len(verdicts) == flood
        counters = server.counters
        assert counters.submitted == flood
        # A 4-deep queue against a 60-bid burst must shed most of it...
        assert counters.shed >= flood - 3 * 4
        assert verdicts.count("shed") == counters.shed
        # ...and the ledger still partitions the flood exactly.
        assert (
            counters.accepted
            + counters.rejected
            + counters.shed
            + counters.errored
            == flood
        )
        _assert_reconciled(server)


class TestGracefulDrain:
    def test_stop_decides_pending_commits_and_says_goodbye(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(**{**_FAST, "slot_seconds": 5.0}))
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.writelines([_bid_line(rid) for rid in range(3)])
            await writer.drain()
            # No window deadline will pass for seconds — the drain itself
            # must decide the pending bids and close the cycle.
            await asyncio.sleep(0.05)
            server.request_stop()
            messages = [await _read(reader) for _ in range(4)]
            await server.wait_closed()
            writer.close()
            return server, messages

        server, messages = asyncio.run(scenario())
        decisions, bye = messages[:3], messages[3]
        assert {d["request_id"] for d in decisions} == {0, 1, 2}
        assert all(d["decision"] in ("accept", "reject") for d in decisions)
        assert bye["type"] == "bye" and bye["reason"] == "drain"
        assert len(server.cycles) == 1
        _assert_reconciled(server)

    def test_submissions_during_drain_are_shed(self):
        # Socket ordering against a drain is inherently racy (the bye may
        # beat the bid), so pin the deterministic seam: a line submitted
        # while the stop flag is up is shed with an immediate answer.
        from repro.gateway.server import _Connection

        async def scenario():
            server = GatewayServer(GatewayConfig(**{**_FAST, "slot_seconds": 5.0}))
            await server.start()
            conn = _Connection(99, 8)
            server.request_stop()
            conn.lineno = 1
            server._submit(conn, _bid_line(1))
            await server.wait_closed()
            return server, conn

        server, conn = asyncio.run(scenario())
        assert server.counters.shed == 1
        assert server.counters.submitted == 1
        assert conn.responded == 1  # the shed verdict was queued for delivery
        _assert_reconciled(server)


class TestCrashRecovery:
    def test_crash_under_live_traffic_recovers_what_was_acknowledged(
        self, tmp_path
    ):
        wal = tmp_path / "gateway.wal"
        fingerprint = config_fingerprint(
            GatewayConfig(**_FAST, wal_path=wal).broker_config()
        )

        async def crash_run():
            config = GatewayConfig(**_FAST, wal_path=wal, fsync="always")
            server = GatewayServer(config, faults=FaultPlan(crash_after_cycles=2))
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.writelines([_bid_line(rid) for rid in range(6)])
            await writer.drain()
            decisions = [await _read(reader) for _ in range(6)]
            with pytest.raises(SimulatedCrash):
                await server.wait_closed()
            writer.close()
            return decisions

        decisions = asyncio.run(crash_run())

        state = recover(wal, fingerprint=fingerprint)
        assert state.next_cycle == 2 and len(state.cycles) == 2
        # Every decision acknowledged on the wire in a committed cycle is
        # in the recovered ledger, verdict and path intact.
        assignment = state.cycles[0].assignment
        for d in decisions:
            expected = d["path"] if d["decision"] == "accept" else None
            assert assignment[d["request_id"]] == expected

        async def resumed_run():
            config = GatewayConfig(
                **_FAST, wal_path=wal, fsync="always", resume=True
            )
            server = GatewayServer(config)
            await server.start()
            reader, writer, _ = await _connect(server)
            writer.write(_bid_line(100))
            await writer.drain()
            decision = await _read(reader)
            writer.close()
            await server.stop()
            return server, decision

        server, decision = asyncio.run(resumed_run())
        # The committed prefix is replayed bit-identically...
        assert len(server.cycles) >= 3
        for resumed, reference in zip(server.cycles, state.cycles):
            assert resumed.cycle == reference.cycle
            assert resumed.assignment == reference.assignment
            assert resumed.purchased == reference.purchased
            assert resumed.profit == reference.profit
        # ...and live serving continued where the crash left off.
        assert decision["cycle"] >= 2
        assert server.cycles[2].cycle == 2
        _assert_reconciled(server)


class TestServeSignals:
    def test_sigint_drains_flushes_and_exits_zero(self, tmp_path):
        wal = tmp_path / "serve.wal"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--topology",
                "sub-b4",
                "--duration",
                "4",
                "--slot-seconds",
                "0.05",
                "--wal",
                str(wal),
            ],
            cwd=str(Path(__file__).resolve().parent.parent),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "gateway listening on" in banner
            port = int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                stream = sock.makefile("rwb")
                hello = decode_message(stream.readline())
                assert hello["type"] == "hello"
                stream.write(_bid_line(1))
                stream.flush()
                decision = decode_message(stream.readline())
                assert decision["type"] == "decision"
                proc.send_signal(signal.SIGINT)
                bye = decode_message(stream.readline())
                assert bye["type"] == "bye" and bye["reason"] == "drain"
            returncode = proc.wait(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert returncode == 0
        assert wal.exists()
        fingerprint = config_fingerprint(
            GatewayConfig(
                topology="sub-b4",
                slots_per_cycle=4,
                slot_seconds=0.05,
                wal_path=wal,
            ).broker_config()
        )
        state = recover(wal, fingerprint=fingerprint)
        assert state.cycles, "the drain must have committed the open cycle"
        stdout = proc.stdout.read()
        assert "drained" in stdout or "cycle" in stdout
