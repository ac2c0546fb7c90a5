"""Shared machinery for the decision-support workloads (TPC-H / TPC-DS).

Queries are *templates*: parameterized plan factories over the scaled
schema.  Each template declares its shape — scan-heavy, index-lookup
heavy, spill-heavy — which is what determines how much it benefits from
remote memory (Figures 18-21's improvement histograms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..engine import Database, Operator
from ..sim import LatencyRecorder
from ..sim.kernel import AllOf, ProcessGenerator

__all__ = ["QuerySpec", "StreamReport", "run_query_streams", "improvement_histogram"]


@dataclass(frozen=True)
class QuerySpec:
    """One benchmark query template."""

    name: str
    #: Returns (plan, requested_memory_bytes, memory_consumers).
    factory: Callable[[Database, dict, np.random.Generator], tuple[Operator, int, int]]


class WithScanLeg(Operator):
    """Run a side scan (EXISTS / anti-join / correlated-subquery leg)
    before the main child, passing the child's rows through unchanged."""

    def __init__(self, child, scan):
        self.child = child
        self.scan = scan
        self.row_bytes = child.row_bytes

    def run(self, ctx):
        yield from self.scan.run(ctx)
        rows = yield from self.child.run(ctx)
        return rows


@dataclass
class StreamReport:
    """Results of running query streams to completion."""

    queries: int = 0
    elapsed_us: float = 0.0
    per_query: dict[str, LatencyRecorder] = field(default_factory=dict)

    @property
    def queries_per_hour(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.queries / (self.elapsed_us / 3.6e9)

    def mean_latency_us(self, name: str) -> float:
        return self.per_query[name].mean if name in self.per_query else 0.0


def run_query_streams(
    db: Database,
    tables: dict,
    specs: list[QuerySpec],
    streams: int = 5,
    seed: int = 0,
) -> StreamReport:
    """Run ``streams`` concurrent sessions, each executing every query
    once in a stream-specific permutation (the TPC throughput test)."""
    sim = db.sim
    rng = np.random.default_rng(seed)
    report = StreamReport()
    start = sim.now

    def stream(stream_index: int) -> ProcessGenerator:
        order = np.random.default_rng(seed + stream_index).permutation(len(specs))
        for position in order:
            spec = specs[int(position)]
            plan, memory, consumers = spec.factory(db, tables, rng)
            begin = sim.now
            yield from db.execute(
                plan, requested_memory_bytes=memory, memory_consumers=consumers
            )
            report.per_query.setdefault(spec.name, LatencyRecorder(spec.name)).record(
                sim.now - begin
            )
            report.queries += 1

    processes = [sim.spawn(stream(index)) for index in range(streams)]

    def waiter():
        yield AllOf(sim, processes)

    sim.run_until_complete(sim.spawn(waiter()))
    report.elapsed_us = sim.now - start
    return report


def improvement_histogram(
    baseline: StreamReport,
    improved: StreamReport,
    buckets: tuple[float, ...] = (2.0, 5.0, 10.0, 50.0, 100.0),
) -> dict[str, int]:
    """Bucket per-query latency improvement factors (Figures 19/21).

    Returns ``{"<2x": n, "2-5x": n, ..., ">100x": n}``.
    """
    factors = []
    for name, recorder in baseline.per_query.items():
        improved_mean = improved.mean_latency_us(name)
        if improved_mean > 0:
            factors.append(recorder.mean / improved_mean)
    labels = ["<%gx" % buckets[0]]
    for low, high in zip(buckets, buckets[1:]):
        labels.append("%g-%gx" % (low, high))
    labels.append(">%gx" % buckets[-1])
    histogram = {label: 0 for label in labels}
    for factor in factors:
        if factor < buckets[0]:
            histogram[labels[0]] += 1
            continue
        for index, (low, high) in enumerate(zip(buckets, buckets[1:])):
            if low <= factor < high:
                histogram[labels[index + 1]] += 1
                break
        else:
            histogram[labels[-1]] += 1
    return histogram
