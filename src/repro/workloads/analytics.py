"""Shared machinery for the decision-support workloads (TPC-H / TPC-DS).

Queries are *templates*: parameterized plan factories over the scaled
schema.  Each template declares its shape — scan-heavy, index-lookup
heavy, spill-heavy — which is what determines how much it benefits from
remote memory (Figures 18-21's improvement histograms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..engine import Database, Operator
from ..sim.kernel import ProcessGenerator
from .clients import ClientRun, run_clients

__all__ = ["QuerySpec", "improvement_histogram", "queries_per_hour", "run_query_streams"]


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


def run_query_streams(
    db: Database,
    tables: dict,
    specs: list[QuerySpec],
    streams: int = 5,
    seed: int = 0,
) -> ClientRun:
    """Run ``streams`` concurrent sessions, each executing every query
    once in a stream-specific permutation (the TPC throughput test).

    A query's parameters are drawn from one shared RNG when it runs.  An
    op's label is the query's name, its result the row count.
    """
    rng = np.random.default_rng(seed)

    def op(spec: QuerySpec):
        def run() -> ProcessGenerator:
            plan, memory, consumers = spec.factory(db, tables, rng)
            result = yield from db.execute(
                plan, requested_memory_bytes=memory, memory_consumers=consumers
            )
            return spec.name, len(result.rows)

        return run

    return run_clients(db.sim, [
        [op(specs[int(position)])
         for position in np.random.default_rng(seed + stream).permutation(len(specs))]
        for stream in range(streams)
    ])


def queries_per_hour(run: ClientRun) -> float:
    """A stream run's throughput per virtual hour (Figures 18 and 20)."""
    return run.ops / (run.elapsed_us / 3.6e9) if run.elapsed_us > 0 else 0.0


def improvement_histogram(
    baseline: ClientRun,
    improved: ClientRun,
    buckets: tuple[float, ...] = (2.0, 5.0, 10.0, 50.0, 100.0),
) -> dict[str, int]:
    """Bucket per-query latency improvement factors (Figures 19/21).

    Returns ``{"<2x": n, "2-5x": n, ..., ">100x": n}``.
    """
    factors = []
    for name, recorder in baseline.by_label.items():
        improved_mean = improved.by_label[name].mean if name in improved.by_label else 0.0
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
