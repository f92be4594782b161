"""The serving layer: a long-running profit-maximizing broker.

Turns the repo's one-shot solvers into a system: rolling billing cycles on
a simulated clock, streaming bid ingestion with bounded admission queues,
exact incremental-MILP batch decisions accelerated by a bounded decision
cache and a solver worker pool, and per-batch telemetry with JSON dumps.
See :mod:`repro.service.broker` for the architecture overview.
"""

from repro.service.broker import (
    Broker,
    BrokerConfig,
    BrokerReport,
    CycleResult,
    run_cycle,
)
from repro.service.cache import DecisionCache
from repro.service.clock import CycleClock, SimClock, Tick
from repro.service.ingest import (
    AdmissionQueue,
    ArrivalSource,
    GeneratorSource,
    PushSource,
    TraceSource,
)
from repro.service.pool import SolverPool
from repro.service.telemetry import (
    BatchRecord,
    LatencyHistogram,
    TelemetryCollector,
)

__all__ = [
    "Broker",
    "BrokerConfig",
    "BrokerReport",
    "CycleResult",
    "run_cycle",
    "DecisionCache",
    "CycleClock",
    "SimClock",
    "Tick",
    "AdmissionQueue",
    "ArrivalSource",
    "GeneratorSource",
    "PushSource",
    "TraceSource",
    "SolverPool",
    "BatchRecord",
    "LatencyHistogram",
    "TelemetryCollector",
]
