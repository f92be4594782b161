"""The open-loop load driver for the live workloads (its own process).

Started by ``live.py`` as ``python3 perfbench/driver.py --seed S --rate R
--seconds T``.  Before it says ``started`` it lays out the whole run in
advance: the Poisson due times and the seeded bids of the in-tree
``synthesize_bids`` (price-aware values, windows of at most 4 slots).
Then it obeys one command per line on stdin:

* ``connect PORT`` opens ``--connections`` sockets, checks each ``hello``
  banner against the bids, and answers ``ready``;
* ``close`` closes them again and answers ``closed`` (used to time the
  gateway's set-up more than once);
* ``go`` runs the load and prints one JSON report line, then exits.

Each bid is sent at its due time; its latency runs from that due time
(not from the actual send, so a stalled sender cannot hide a stall) to
the moment its decision is read, and every bid's sample is kept exactly.
When all bids are sent the driver half-closes and reads until each
connection's ``bye``.  Its own lateness (send minus due) is reported.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.gateway.protocol import bid_to_line, decode_message  # noqa: E402
from repro.loadgen import synthesize_bids  # noqa: E402
from repro.net.topologies import b4  # noqa: E402

SLOTS_PER_CYCLE = 12
_DRAIN_EVERY = 64


def schedule(seed: int, rate: float, seconds: float) -> np.ndarray:
    """Due times (seconds after ``go``) of a Poisson process over ``seconds``.

    The count is fixed at ``rate * seconds`` and the times are sorted
    uniform draws: a Poisson process conditioned on its count, so every
    seed offers the same load and only the arrival pattern varies.
    """
    rng = np.random.default_rng(seed)
    return np.sort(rng.uniform(0.0, seconds, size=round(rate * seconds)))


def requests(seed: int, count: int) -> list:
    """``count`` seeded bids with ids 0..count-1."""
    return list(
        synthesize_bids(
            b4(), num_bids=count, num_slots=SLOTS_PER_CYCLE, seed=seed, max_duration=4
        )
    )


class Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.errored = 0
        self.bye: dict | None = None

    async def read(self, received: dict) -> None:
        """Record every decision until ``bye`` or end of stream."""
        while True:
            line = await self.reader.readline()
            if not line:
                return
            message = decode_message(line)
            kind = message.get("type")
            if kind == "decision":
                received[message["request_id"]] = (time.monotonic(), message["decision"])
            elif kind == "error":
                self.errored += 1
            elif kind == "bye":
                self.bye = message
                return


async def connect(host: str, port: int, count: int) -> list[Connection]:
    conns = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection(host, port)
        hello = decode_message(await reader.readline())
        if (
            hello.get("type") != "hello"
            or hello.get("topology") != b4().name
            or hello.get("slots_per_cycle") != SLOTS_PER_CYCLE
        ):
            raise SystemExit(f"driver: unexpected banner {hello!r}")
        conns.append(Connection(reader, writer))
    return conns


async def load(conns: list[Connection], dues: np.ndarray, bids: list, seconds: float) -> dict:
    lines = [bid_to_line(request) for request in bids]
    received: dict[int, tuple[float, str]] = {}
    readers = [asyncio.create_task(conn.read(received)) for conn in conns]
    sent = np.zeros(len(dues))
    t0 = time.monotonic()
    for index, (due, line) in enumerate(zip(dues, lines)):
        delay = t0 + due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        conn = conns[index % len(conns)]
        conn.writer.write(line)
        sent[index] = time.monotonic()
        if index % _DRAIN_EVERY == _DRAIN_EVERY - 1:
            await conn.writer.drain()
    for conn in conns:
        await conn.writer.drain()
        conn.writer.write_eof()
    done, pending = await asyncio.wait(readers, timeout=seconds + 60)
    for task in pending:
        task.cancel()
    for task in done:
        task.result()
    finished = time.monotonic()
    for conn in conns:
        conn.writer.close()

    samples = []  # [latency seconds from due time, verdict] per answered bid
    for request_id, (at, verdict) in sorted(received.items()):
        samples.append([at - (t0 + dues[request_id]), verdict])
    lateness = sent - (t0 + dues)
    errored = sum(conn.errored for conn in conns)
    return {
        "submitted": len(dues),
        "offered_value": sum(request.value for request in bids),
        "accepted": sum(v == "accept" for _, v in samples),
        "rejected": sum(v == "reject" for _, v in samples),
        "shed": sum(v == "shed" for _, v in samples),
        "errored": errored,
        "lost": len(dues) - len(samples) - errored,
        "byes": [conn.bye for conn in conns],
        "duration_s": finished - t0,
        "lateness_p99_ms": float(np.percentile(lateness, 99)) * 1e3 if len(dues) else 0.0,
        "lateness_max_ms": float(lateness.max()) * 1e3 if len(dues) else 0.0,
        "samples": samples,
    }


def _say(word: str) -> None:
    print(word, flush=True)


async def main(args) -> None:
    dues = schedule(args.seed, args.rate, args.seconds)
    bids = requests(args.seed, len(dues))
    loop = asyncio.get_running_loop()
    conns: list[Connection] = []
    _say("started")
    while True:
        command = (await loop.run_in_executor(None, sys.stdin.readline)).split()
        if not command:
            raise SystemExit("driver: stdin closed")
        if command[0] == "connect":
            conns = await connect(args.host, int(command[1]), args.connections)
            _say("ready")
        elif command[0] == "close":
            for conn in conns:
                conn.writer.close()
                await conn.writer.wait_closed()
            _say("closed")
        elif command[0] == "go":
            report = await load(conns, dues, bids, args.seconds)
            _say(json.dumps(report))
            return
        else:
            raise SystemExit(f"driver: unknown command {command!r}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--connections", type=int, default=2)
    asyncio.run(main(parser.parse_args()))
