"""Latency recorders: the one distribution instrument.

The simulation-side equivalent of the latency counters the paper reads
off Windows perfmon (the page-read latency drill-downs of Figures 11
and 14).  Counts are plain attributes on the component that owns them,
and a window is the difference of two reads.
"""

from __future__ import annotations

import math

__all__ = ["LatencyRecorder", "summarize"]


class LatencyRecorder:
    """Collects latency samples (µs) and reports percentile statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: list[float] = []
        # Sorted-view cache so repeated percentile reads (p50/p95/p99 on
        # the same recorder) don't re-sort O(n log n) each call.  Keyed
        # on the sample count: samples are only ever appended.
        self._sorted: list[float] | None = None

    def record(self, latency_us: float) -> None:
        self.samples.append(latency_us)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; ``pct`` in [0, 100]."""
        samples = self.samples
        if not samples:
            return 0.0
        ordered = self._sorted
        if ordered is None or len(ordered) != len(samples):
            ordered = self._sorted = sorted(samples)
        rank = max(0, min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1))
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def reset(self) -> None:
        self.samples.clear()
        self._sorted = None


def summarize(recorder: LatencyRecorder) -> dict[str, float]:
    """A compact dict of the statistics benchmarks print."""
    return {
        "count": float(recorder.count),
        "mean_us": recorder.mean,
        "p50_us": recorder.p50,
        "p95_us": recorder.p95,
        "p99_us": recorder.p99,
        "max_us": recorder.maximum,
    }
