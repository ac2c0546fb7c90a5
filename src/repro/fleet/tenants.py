"""Per-tenant workload generators: deterministic seeded traffic shapes.

A tenant's offered load over virtual time is a :class:`TrafficShape` —
a pure function of time returning an intensity in ``[0, 1]``:

* :class:`SteadyShape` — flat load;
* :class:`DiurnalShape` — sinusoidal day/night cycle, phase-shiftable
  so two tenants can peak in anti-phase (the traffic-shift scenario);
* :class:`FlashCrowdShape` — a step to peak for a bounded window (the
  "millions of users showed up" case).

:func:`zipf_shares` skews *base* rates across a fleet (hot-tenant
skew); inside a tenant, start keys are uniform.

The :class:`TenantWorkload` drives epochs: each epoch it reads the
shape, issues ``round(peak × intensity)`` RangeScan queries across the
tenant's replicas (lanes of the workloads' client driver), records
per-query latency into the tenant's telemetry, then publishes a
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
from ..sim.kernel import ProcessGenerator
from ..workloads.clients import drive_clients
from ..workloads.rangescan import rangescan_op, txn_update_query
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
        self.latency = LatencyRecorder(f"fleet.{name}")
        self.epochs: list[_EpochRecord] = []
        self.elapsed_us = 0.0

    @property
    def queries(self) -> int:
        return self.latency.count

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

    # -- query generation --------------------------------------------------

    def _op(self, replica, start_key: int, update: bool):
        db, table, range_size = replica.database, replica.table, self.spec.range_size
        if not (update and self.spec.transactional):
            return rangescan_op(db, table, start_key, range_size, update)

        def run() -> ProcessGenerator:
            yield from db.server.cpu.compute(db.query_setup_cpu_us)
            answer = yield from db.transactions().run(
                lambda txn: txn_update_query(txn, table, start_key, range_size),
                name=f"{self.runtime.name}.update",
            )
            return "update", (start_key, answer)

        return run

    def _epoch_clients(self, count: int) -> list:
        """Plan one epoch: draw keys, deal the queries round-robin over
        the lanes and, lane by lane, over the replicas."""
        replicas = self.runtime.replicas
        top = max(1, self.spec.n_rows - self.spec.range_size)
        starts = self.rng.integers(0, top, size=count)
        updates = (
            self.rng.random(count) < self.spec.update_fraction
            if self.spec.update_fraction > 0
            else np.zeros(count, dtype=bool)
        )
        n_lanes = max(1, min(self.spec.workers * len(replicas), count))
        return [
            [self._op(replicas[position % len(replicas)], int(starts[position]),
                      bool(updates[position]))
             for position in range(lane, count, n_lanes)]
            for lane in range(n_lanes)
        ]

    # -- the epoch loop ----------------------------------------------------

    def run(self) -> ProcessGenerator:
        """The tenant as one op of the client driver: every epoch, then
        ``(tenant name, report)``."""
        sim = self.runtime.sim
        start = sim.now
        for epoch in range(self.epochs):
            epoch_begin = epoch * self.epoch_us
            target_end = start + (epoch + 1) * self.epoch_us
            level = self.spec.shape.intensity(epoch_begin)
            count = int(round(self.spec.peak_queries_per_epoch * level))
            hits0, misses0 = self.runtime.ext_counters()
            if count > 0:
                run = yield from drive_clients(sim, self._epoch_clients(count))
                for latency in run.latency.samples:
                    self.report.latency.record(latency)
                    self.runtime.record_query(latency)
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
        return self.runtime.name, self.report
