"""Measurement helpers: latency recorders, counters and time series.

These are the simulation-side equivalents of the performance counters
the paper reads off Windows perfmon (I/O throughput, CPU utilization,
I/O latency drill-downs in Figures 11 and 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LatencyRecorder", "Counter", "TimeSeries", "summarize"]


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


class Counter:
    """Monotonic counter with a helper for rates over virtual time."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def rate_per_second(self, elapsed_us: float) -> float:
        if elapsed_us <= 0:
            return 0.0
        return self.value / (elapsed_us / 1e6)

    def reset(self) -> None:
        self.value = 0.0


@dataclass
class TimeSeries:
    """Bucketed time series: value accumulated per fixed-width window.

    Used for the drill-down figures (I/O MB/s and CPU% over time).
    """

    bucket_us: float
    name: str = ""
    buckets: dict[int, float] = field(default_factory=dict)

    def add(self, at_us: float, amount: float) -> None:
        self.buckets[int(at_us // self.bucket_us)] = (
            self.buckets.get(int(at_us // self.bucket_us), 0.0) + amount
        )

    def series(self, until_us: float | None = None) -> list[tuple[float, float]]:
        """Return ``(bucket_start_seconds, value)`` pairs, zero-filled.

        ``until_us`` extends the zero-filled tail; it never *drops*
        data — populated buckets beyond ``until_us`` are still included
        (silent truncation would under-report whatever accumulated after
        the caller's nominal window).
        """
        if not self.buckets and until_us is None:
            return []
        last = max(self.buckets) if self.buckets else 0
        if until_us is not None:
            last = max(last, int(until_us // self.bucket_us))
        return [
            (index * self.bucket_us / 1e6, self.buckets.get(index, 0.0))
            for index in range(last + 1)
        ]

    def reset(self) -> None:
        self.buckets.clear()


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
