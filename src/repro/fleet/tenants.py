"""Per-tenant workload generators: deterministic seeded traffic shapes.

A tenant's offered load over virtual time is a :class:`TrafficShape` —
a pure function of time returning an intensity in ``[0, 1]``:

* :class:`SteadyShape` — flat load;
* :class:`DiurnalShape` — sinusoidal day/night cycle, phase-shiftable
  so two tenants can peak in anti-phase (the traffic-shift scenario);
* :class:`FlashCrowdShape` — a step to peak for a bounded window (the
  "millions of users showed up" case).

:func:`zipf_shares` skews *base* rates across a fleet (hot-tenant
skew), while hotspot key distributions inside a tenant reuse the
rangescan driver's own machinery.

The :class:`TenantWorkload` drives epochs: each epoch it reads the
shape, issues ``round(peak × intensity)`` queries across the tenant's
replicas (multiplexed onto the existing rangescan or TPC-H drivers),
records per-query latency into the tenant's telemetry, then publishes a
:class:`~repro.fleet.marketplace.DemandSignal`.  All randomness comes
from the cluster's named RNG streams, so the same seed replays the same
traffic — including under fault storms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..sim import LatencyRecorder
from ..sim.kernel import AllOf, ProcessGenerator
from ..workloads.rangescan import _start_keys, read_query, txn_update_query, update_query
from .marketplace import DemandSignal, Marketplace

if TYPE_CHECKING:  # pragma: no cover
    from .topology import TenantRuntime

__all__ = [
    "DiurnalShape",
    "FlashCrowdShape",
    "SteadyShape",
    "TenantReport",
    "TenantWorkload",
    "TrafficShape",
    "zipf_shares",
]


class TrafficShape:
    """Offered-load intensity as a pure function of virtual time."""

    def intensity(self, t_us: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class SteadyShape(TrafficShape):
    level: float = 1.0

    def intensity(self, t_us: float) -> float:
        return self.level


@dataclass(frozen=True)
class DiurnalShape(TrafficShape):
    """Sinusoidal day/night cycle between ``low`` and ``high``.

    ``phase`` is a fraction of the period: two tenants with phases 0.0
    and 0.5 peak in perfect anti-phase — the marketplace's bread and
    butter, memory following the sun.
    """

    period_us: float = 24e6
    low: float = 0.1
    high: float = 1.0
    phase: float = 0.0

    def intensity(self, t_us: float) -> float:
        cycle = 0.5 * (1.0 - math.cos(2.0 * math.pi * (t_us / self.period_us + self.phase)))
        return self.low + (self.high - self.low) * cycle


@dataclass(frozen=True)
class FlashCrowdShape(TrafficShape):
    """Base load with a step to ``peak`` during ``[at_us, at_us + duration_us)``."""

    at_us: float
    duration_us: float
    base: float = 0.1
    peak: float = 1.0

    def intensity(self, t_us: float) -> float:
        if self.at_us <= t_us < self.at_us + self.duration_us:
            return self.peak
        return self.base


def zipf_shares(n: int, s: float = 1.2) -> list[float]:
    """Zipf(s) weights over ``n`` tenants, normalized to sum to 1.

    Rank 1 is the hot tenant; use to scale per-tenant peak rates so one
    tenant dominates the fleet's offered load (hot-tenant skew).
    """
    if n <= 0:
        return []
    raw = [1.0 / (rank**s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


@dataclass
class _EpochRecord:
    epoch: int
    intensity: float
    issued: int
    miss_rate: float
    backlog_us: float


class TenantReport:
    """Per-tenant results of one fleet scenario."""

    def __init__(self, name: str):
        self.name = name
        self.queries = 0
        self.latency = LatencyRecorder(f"fleet.{name}")
        self.epochs: list[_EpochRecord] = []
        self.elapsed_us = 0.0

    @property
    def throughput_qps(self) -> float:
        return self.queries / (self.elapsed_us / 1e6) if self.elapsed_us > 0 else 0.0

    def as_dict(self) -> dict:
        """Exact (virtual-time deterministic) summary for reports."""
        return {
            "queries": self.queries,
            "throughput_qps": round(self.throughput_qps, 6),
            "latency_p50_ms": round(self.latency.percentile(50) / 1000.0, 6),
            "latency_p95_ms": round(self.latency.percentile(95) / 1000.0, 6),
            "latency_p99_ms": round(self.latency.percentile(99) / 1000.0, 6),
            "latency_mean_ms": round(self.latency.mean / 1000.0, 6),
            "epoch_issued": [record.issued for record in self.epochs],
        }


class TenantWorkload:
    """Epoch-driven driver multiplexing a tenant onto its replicas."""

    def __init__(
        self,
        runtime: "TenantRuntime",
        epochs: int,
        epoch_us: float,
        marketplace: Optional[Marketplace] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.runtime = runtime
        self.spec = runtime.spec
        self.epochs = epochs
        self.epoch_us = epoch_us
        self.marketplace = marketplace
        self.rng = (
            rng
            if rng is not None
            else runtime.cluster.rng.stream(f"fleet.tenant.{runtime.name}")
        )
        self.report = TenantReport(runtime.name)
        self._tpch_cursor = 0

    # -- query generation --------------------------------------------------

    def _run_one(self, replica, start_key: int, update: bool) -> ProcessGenerator:
        db, table = replica.database, replica.table
        sim = db.sim
        begin = sim.now
        if self.spec.workload == "tpch":
            # db.execute charges query-setup CPU itself.
            spec = self.runtime.tpch_specs[self._tpch_cursor % len(self.runtime.tpch_specs)]
            self._tpch_cursor += 1
            plan, memory, consumers = spec.factory(db, replica.tpch_tables, self.rng)
            yield from db.execute(
                plan, requested_memory_bytes=memory, memory_consumers=consumers
            )
        elif update:
            yield from db.server.cpu.compute(db.query_setup_cpu_us)
            if self.spec.transactional:
                manager = db.transactions()
                yield from manager.run(
                    lambda txn, table=table, start_key=start_key: txn_update_query(
                        txn, table, start_key, self.spec.range_size
                    ),
                    name=f"{self.runtime.name}.update",
                )
            else:
                yield from update_query(db, table, start_key, self.spec.range_size)
        else:
            yield from db.server.cpu.compute(db.query_setup_cpu_us)
            yield from read_query(db, table, start_key, self.spec.range_size)
        latency = sim.now - begin
        self.report.latency.record(latency)
        self.report.queries += 1
        self.runtime.record_query(latency)

    def _epoch_queries(self, count: int) -> list[ProcessGenerator]:
        """Plan one epoch: draw keys, split work over replicas/workers."""
        replicas = self.runtime.replicas
        starts = _start_keys(self.spec, self.rng, count)
        updates = (
            self.rng.random(count) < self.spec.update_fraction
            if self.spec.update_fraction > 0
            else np.zeros(count, dtype=bool)
        )
        workers: list[ProcessGenerator] = []
        n_lanes = max(1, min(self.spec.workers * len(replicas), count))

        def lane(lane_index: int) -> ProcessGenerator:
            for position in range(lane_index, count, n_lanes):
                replica = replicas[position % len(replicas)]
                yield from self._run_one(
                    replica, int(starts[position]), bool(updates[position])
                )

        for lane_index in range(n_lanes):
            workers.append(lane(lane_index))
        return workers

    # -- the epoch loop ----------------------------------------------------

    def run(self) -> ProcessGenerator:
        sim = self.runtime.sim
        start = sim.now
        for epoch in range(self.epochs):
            epoch_begin = epoch * self.epoch_us
            target_end = start + (epoch + 1) * self.epoch_us
            level = self.spec.shape.intensity(epoch_begin)
            count = int(round(self.spec.peak_queries_per_epoch * level))
            hits0, misses0 = self.runtime.ext_counters()
            if count > 0:
                lanes = [sim.spawn(g) for g in self._epoch_queries(count)]
                yield AllOf(sim, lanes)
            hits1, misses1 = self.runtime.ext_counters()
            lookups = (hits1 - hits0) + (misses1 - misses0)
            miss_rate = (misses1 - misses0) / lookups if lookups > 0 else 0.0
            backlog_us = max(0.0, sim.now - target_end)
            self.report.epochs.append(
                _EpochRecord(epoch, level, count, round(miss_rate, 6), backlog_us)
            )
            if self.marketplace is not None:
                self.marketplace.report_demand(
                    self.runtime.name,
                    DemandSignal(
                        at_us=sim.now,
                        intensity=level,
                        miss_rate=miss_rate,
                        backlog_us=backlog_us,
                        offered=count,
                    ),
                )
            if sim.now < target_end:
                yield sim.timeout(target_end - sim.now)
        self.report.elapsed_us = sim.now - start
        return self.report
