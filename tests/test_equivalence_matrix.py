"""The decision-equivalence matrix: every serving front against a golden file.

Each cell runs one serving front on fixed, seeded input and reduces the
run to a normalised record: the decision log, the per-cycle ledgers and
batch records, the write-ahead log (crash cells), the decision-fixed part
of ``summary()`` and, for the online scheduler, the schedule.  Timing
fields are dropped, a decision-cache hit counts as the exact decision it
replays (cache residency differs between serial and pooled runs), and the
record is hashed twice:

* ``decisions`` hashes everything except non-integral floats, so a
  changed choice, count or purchased unit shows up here;
* ``money`` hashes the ``repr`` of every non-integral float (revenue,
  cost, profit, dual prices) in record order, so a last-bit platform
  difference in an amount shows up as just that.

``milp_batches`` counts the batches a cell sends to HiGHS (joint choice
space above :data:`~repro.core.online.ENUMERATION_CAP`); every serving
front has at least one cell where HiGHS decides.  The offline
decomposition (``solve_decomposed``) solves whole-shard SPM models and
``Metis`` solves RL-SPM and BL-SPM relaxations, never a batch MILP, so
their cells record 0.  A ``-cold`` cell runs its twin under
:func:`~tests.oracles.reuse.no_reuse` and must hash the same.

A change that alters decisions on purpose regenerates the file and names
the changed cells in ``CHANGES.md``::

    PYTHONPATH=src python -m tests.test_equivalence_matrix --write
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.instance import SPMInstance
from repro.core.metis import Metis
from repro.core.online import IncrementalBatchCompiler, OnlineScheduler
from repro.decomp import DecompConfig, solve_decomposed
from repro.gateway.engine import LiveCycleEngine
from repro.net.topologies import sub_b4
from repro.service import Broker, BrokerConfig
from repro.service.clock import SimClock
from repro.service.ingest import AdmissionQueue, GeneratorSource
from repro.shard import ShardConfig, ShardedBroker
from repro.shard.live import ShardedLiveEngine
from repro.state import FaultPlan, SimulatedCrash, read_wal
from repro.state.recovery import cycle_to_record
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.request import Request, RequestSet

from tests.oracles.reuse import no_reuse

GOLDEN = Path(__file__).with_name("golden") / "equivalence_matrix.json"

#: Record keys that carry timing or configuration, not decisions.
_DROPPED = frozenset({"solver_seconds", "wall_seconds", "fingerprint", "cache_hit"})

#: The ``summary()`` keys fixed by the decisions (no timing, no cache
#: residency, no pool size).
_SUMMARY_KEYS = (
    "cycles",
    "batches",
    "decisions",
    "accepted",
    "declined",
    "shed",
    "revenue",
    "incremental_cost",
    "profit",
    "profit_per_cycle",
    "timed_out_batches",
    "suboptimal_batches",
    "recovered_batches",
    "breaker_opens",
    "num_shards",
    "ledger_price_iterations",
    "reconciliation_evictions",
)

_BASE = dict(
    topology="sub-b4",
    num_cycles=3,
    slots_per_cycle=6,
    requests_per_cycle=30,
    window=3,
    max_batch=8,
    seed=28,
    time_limit=60.0,
)


# ---------------------------------------------------------------- records


def _normalise(value, floats: list[str]):
    """``value`` as JSON-ready data with non-integral floats pulled out.

    Non-integral floats are appended to ``floats`` as reprs and replaced
    by ``"<f>"``; integral ones become ints.  Dict keys become strings and
    are visited in sorted order, so the result is canonical.
    """
    if isinstance(value, dict):
        return {
            str(key): _normalise(value[key], floats)
            for key in sorted(value, key=str)
            if str(key) not in _DROPPED
        }
    if isinstance(value, (list, tuple)):
        return [_normalise(item, floats) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return "exact" if value == "cache" else value
    if isinstance(value, int):
        return int(value)
    number = float(value)
    if math.isfinite(number) and number.is_integer():
        return int(number)
    floats.append(repr(number))
    return "<f>"


def _cycles(results) -> list:
    return [cycle_to_record(result) for result in results]


def _report_record(report) -> dict:
    summary = report.summary()
    return {
        "log": report.decision_log(),
        "cycles": _cycles(report.cycles),
        "summary": {key: summary[key] for key in _SUMMARY_KEYS},
    }


def _digest(record) -> dict:
    floats: list[str] = []
    shape = _normalise(record, floats)

    def sha(payload) -> str:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    return {"decisions": sha(shape), "money": sha(floats)}


@contextlib.contextmanager
def _milp_counter():
    """Count batch MILP builds, also inside forked pool workers.

    Each build appends one byte to a scratch file, which forked workers
    inherit; the yielded callable reads the count.
    """
    original = IncrementalBatchCompiler.compile_batch
    with tempfile.TemporaryDirectory() as scratch:
        tally = Path(scratch) / "milps"
        tally.touch()

        def counted(self, *args, **kwargs):
            with open(tally, "ab") as handle:
                handle.write(b".")
            return original(self, *args, **kwargs)

        IncrementalBatchCompiler.compile_batch = counted
        try:
            yield lambda: tally.stat().st_size
        finally:
            IncrementalBatchCompiler.compile_batch = original


# ------------------------------------------------------------------ cells


def _broker(**overrides):
    return Broker(BrokerConfig(**{**_BASE, **overrides})).run()


def _fleet(**overrides):
    return ShardedBroker(ShardConfig(**{**_BASE, "shards": 2, **overrides})).run()


def _capacity_one_fleet(scratch: Path) -> dict:
    topology = sub_b4()
    topology.set_uniform_capacity(1)
    report = _fleet(topology=topology)
    assert report.summary()["ledger_price_iterations"] > 0, "duals never moved"
    return _report_record(report)


def _crash_then_resume(broker_class, config_class, scratch: Path, **fields):
    wal = scratch / "run.wal"
    config = config_class(**{**_BASE, **fields}, wal_path=wal)
    with pytest.raises(SimulatedCrash):
        broker_class(config, faults=FaultPlan(crash_after_cycles=1)).run()
    report = broker_class(config).run(resume=True)
    assert report.telemetry.recovered_batches > 0, "nothing was recovered"
    return {**_report_record(report), "wal": read_wal(wal)}


def _feed(engine, *, cycles: int, seed: int, window: int) -> list:
    """Push seeded bids into a live engine window by window, like the gateway."""
    source = GeneratorSource(
        engine.topology,
        WorkloadConfig(num_requests=30, num_slots=6, max_duration=4),
        seed=seed,
    )
    results = []
    for index in range(cycles):
        engine.start_cycle(index)
        requests = source.cycle(index)
        queue = AdmissionQueue(None)
        for tick in SimClock(requests.num_slots, window=window).windows(0):
            for slot in tick.slots:
                for req in requests:
                    if req.start == slot:
                        queue.offer(req)
            engine.decide(queue.drain(), window_start=tick.window_start)
        results.append(engine.close_cycle())
    return results


def _live(scratch: Path) -> dict:
    engine = LiveCycleEngine(sub_b4(), 6, time_limit=60.0, max_batch=8)
    return {"cycles": _cycles(_feed(engine, cycles=3, seed=28, window=3))}


def _live_sharded(scratch: Path) -> dict:
    topology = sub_b4()
    topology.set_uniform_capacity(2)
    config = ShardConfig(**_BASE, shards=4, partition="hash")
    engine = ShardedLiveEngine(topology, config)
    return {"cycles": _cycles(_feed(engine, cycles=3, seed=29, window=6))}


def _online(scratch: Path) -> dict:
    topology = sub_b4()
    requests = generate_workload(
        topology,
        WorkloadConfig(num_requests=48, num_slots=6, max_duration=4),
        rng=28,
    )
    outcome = OnlineScheduler(time_limit=60.0).run(
        SPMInstance.build(topology, requests)
    )
    schedule = outcome.schedule
    return {
        "assignment": sorted(
            (rid, path) for rid, path in schedule.assignment.items()
        ),
        "per_slot": outcome.decisions_per_slot,
        "money": [schedule.revenue, schedule.cost, schedule.profit],
    }


def _decomposed(instance: SPMInstance, config: DecompConfig) -> dict:
    outcome = solve_decomposed(instance, config)
    schedule = outcome.schedule
    return {
        "assignment": sorted(
            (rid, path) for rid, path in schedule.assignment.items()
        ),
        "rounds": outcome.rounds,
        "evicted": list(outcome.evicted),
        "shards": [dataclasses.asdict(shard) for shard in outcome.shards],
        "ledger": outcome.ledger.to_record(),
        "money": [
            schedule.revenue,
            schedule.cost,
            schedule.profit,
            outcome.max_violation,
        ],
    }


def _decomp_capacity_one(scratch: Path) -> dict:
    """Capacity-1 sub-B4: the duals move and ``reconcile`` evicts."""
    topology = sub_b4()
    topology.set_uniform_capacity(1)
    requests = generate_workload(
        topology, WorkloadConfig(num_requests=24, num_slots=6), rng=13
    )
    instance = SPMInstance.build(topology, requests, k_paths=3)
    record = _decomposed(instance, DecompConfig(num_shards=3, max_rounds=3))
    assert record["ledger"]["price_iterations"] > 0, "duals never moved"
    assert record["evicted"], "reconcile evicted nothing"
    return record


def _common_peak_instance() -> SPMInstance:
    """Uncapped sub-B4 whose requests all span the cycle (one common peak)."""
    rng = np.random.default_rng(11)
    sources = ["DC1", "DC2", "DC3", "DC4"]
    requests = [
        Request(
            rid,
            *rng.choice(sources, 2, replace=False),
            0,
            3,
            float(rng.uniform(0.05, 0.4)),
            float(rng.uniform(5.0, 40.0)),
        )
        for rid in range(20)
    ]
    return SPMInstance.build(sub_b4(), RequestSet(requests, 4), k_paths=3)


def _decomp_common_peak() -> dict:
    return _decomposed(_common_peak_instance(), DecompConfig(num_shards=2))


def _cold(build):
    """``build`` under :func:`~tests.oracles.reuse.no_reuse`."""

    def cold(scratch: Path) -> dict:
        with no_reuse():
            return build()

    return cold


def _metis() -> dict:
    """``Metis(theta=3)`` on a fixed 20-request sub-B4 instance."""
    topology = sub_b4()
    requests = generate_workload(
        topology,
        WorkloadConfig(num_requests=20, num_slots=6, max_duration=4),
        rng=5,
    )
    instance = SPMInstance.build(topology, requests, k_paths=3)
    outcome = Metis(theta=3).solve(instance, rng=7)
    best = outcome.best
    return {
        "assignment": sorted(best.schedule.assignment.items()),
        "source": best.source,
        "round": best.round_index,
        "capacities": sorted(best.capacities.items()),
        "rounds": [dataclasses.asdict(record) for record in outcome.rounds],
        "money": [best.profit, outcome.initial_profit],
    }


#: cell name -> (front, builder taking a scratch directory).
CELLS = {
    "broker-serial": ("Broker", lambda tmp: _report_record(_broker())),
    "broker-pooled": (
        "Broker",
        lambda tmp: _report_record(_broker(workers=2)),
    ),
    "broker-crash-resume": (
        "Broker",
        lambda tmp: _crash_then_resume(Broker, BrokerConfig, tmp),
    ),
    "fleet-serial": ("ShardedBroker", lambda tmp: _report_record(_fleet())),
    "fleet-pooled": (
        "ShardedBroker",
        lambda tmp: _report_record(_fleet(workers=2)),
    ),
    "fleet-hedged": (
        "ShardedBroker",
        lambda tmp: _report_record(_fleet(workers=2, cycle_budget=600.0)),
    ),
    "fleet-capacity-1": ("ShardedBroker", _capacity_one_fleet),
    "fleet-crash-resume": (
        "ShardedBroker",
        lambda tmp: _crash_then_resume(
            ShardedBroker, ShardConfig, tmp, shards=2
        ),
    ),
    "live-engine": ("LiveCycleEngine", _live),
    "live-sharded-4": ("ShardedLiveEngine", _live_sharded),
    "online-scheduler": ("OnlineScheduler", _online),
    "decomp-capacity-1": ("solve_decomposed", _decomp_capacity_one),
    "decomp-common-peak": ("solve_decomposed", lambda tmp: _decomp_common_peak()),
    "decomp-common-peak-cold": ("solve_decomposed", _cold(_decomp_common_peak)),
    "metis-sub-b4": ("Metis", lambda tmp: _metis()),
    "metis-sub-b4-cold": ("Metis", _cold(_metis)),
}

#: Fronts that never send a batch MILP to HiGHS.
_NO_BATCH_MILP = frozenset({"solve_decomposed", "Metis"})


def run_cell(name: str) -> dict:
    """One cell's golden entry: front, hashes and HiGHS batch count."""
    front, build = CELLS[name]
    with _milp_counter() as milps, tempfile.TemporaryDirectory() as scratch:
        record = build(Path(scratch))
        return {"front": front, **_digest(record), "milp_batches": milps()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_golden(name):
    expected = _golden()[name]
    got = run_cell(name)
    assert got["milp_batches"] == expected["milp_batches"], "HiGHS batch count"
    assert got["decisions"] == expected["decisions"], "a decision changed"
    assert got["money"] == expected["money"], "an amount changed"


def test_golden_covers_every_cell_and_front():
    golden = _golden()
    assert sorted(golden) == sorted(CELLS)
    fronts = {front for front, _ in CELLS.values()}
    for front in fronts - _NO_BATCH_MILP:
        assert any(
            entry["milp_batches"] > 0
            for entry in golden.values()
            if entry["front"] == front
        ), f"HiGHS never decides a {front} cell"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help="regenerate the golden file"
    )
    args = parser.parse_args(argv)
    cells = {name: run_cell(name) for name in sorted(CELLS)}
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(cells, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(cells)} cells to {GOLDEN}")
        return 0
    golden = _golden()
    changed = [name for name in cells if cells[name] != golden.get(name)]
    for name in changed:
        print(f"changed: {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
