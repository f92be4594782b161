"""Shared pieces of the benchmark: the per-pass outcome and percentiles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs leave their journals, snapshots and span dumps.
OUT = ROOT / ".perfbench"


def percentile(values, q: float) -> float:
    """The ``q``-th percentile by linear interpolation; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass
class Outcome:
    """What one measured pass of a workload produced.

    ``metrics`` holds every end-to-end metric as ``name -> (value, unit)``;
    ``extra`` holds further figures printed as records but not part of the
    result line (sample counts, driver lateness).  ``errors`` lists every
    correctness violation; any entry fails the run.  ``wall`` is the
    pass's measured wall clock, which a traced pass splits into spans.
    """

    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    wall: float = 0.0
    counters: dict = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)
