"""Binders: adopt existing component instruments into one registry.

Devices, NICs, CPUs and caches keep their own counts (plain
attributes) and latency recorders.  Rather than move those — every
benchmark and fault test reads them in place — the binders *register*
the recorders into a :class:`~repro.telemetry.MetricsRegistry` under
stable dotted names and read the counts through gauges.
Everything is duck-typed: a binder reads only attributes the component
actually exposes, so it works across design variants (e.g. an IoTarget
with no database, a DbSetup with no remote memory).
"""

from __future__ import annotations

from typing import Any

from .metrics import MetricsRegistry

__all__ = [
    "register_device",
    "register_nic",
    "register_cpu",
    "register_pool",
    "register_extension",
    "register_remote_file",
    "register_reliability",
    "register_dist",
    "register_server",
    "register_cluster",
]


def _gauge_attr(registry: MetricsRegistry, name: str, obj: Any, attr: str) -> None:
    if hasattr(obj, attr):
        registry.gauge(name, lambda: float(getattr(obj, attr)))


def register_device(registry: MetricsRegistry, prefix: str, device: Any) -> None:
    """Adopt a :class:`~repro.storage.BlockDevice`'s instruments."""
    registry.register(f"{prefix}.read_latency", device.read_latency)
    registry.register(f"{prefix}.write_latency", device.write_latency)
    for attr in ("reads", "writes", "bytes_read", "bytes_written"):
        _gauge_attr(registry, f"{prefix}.{attr}", device, attr)


def register_nic(registry: MetricsRegistry, prefix: str, nic: Any) -> None:
    for attr in ("bytes_sent", "bytes_received", "messages_sent", "retransmits"):
        _gauge_attr(registry, f"{prefix}.{attr}", nic, attr)
    registry.gauge(f"{prefix}.queue_depth", lambda: float(nic.queue_depth))


def register_cpu(registry: MetricsRegistry, prefix: str, cpu: Any) -> None:
    _gauge_attr(registry, f"{prefix}.context_switches", cpu, "context_switches")
    registry.gauge(f"{prefix}.utilization", lambda: float(cpu.utilization()))


def register_pool(registry: MetricsRegistry, prefix: str, pool: Any) -> None:
    """Adopt a :class:`~repro.engine.BufferPool`'s instruments."""
    registry.register(f"{prefix}.fault_latency", pool.fault_latency)
    for attr in ("hits", "misses", "ext_hits", "base_reads", "prefetches", "stale_handles"):
        _gauge_attr(registry, f"{prefix}.{attr}", pool, attr)
    registry.gauge(f"{prefix}.hit_ratio", lambda: float(pool.hit_ratio))
    if pool.extension is not None:
        register_extension(registry, f"{prefix}.ext", pool.extension)


def register_extension(registry: MetricsRegistry, prefix: str, ext: Any) -> None:
    """Adopt a :class:`~repro.engine.BufferPoolExtension`.

    Aggregates over the hierarchy sit directly under ``prefix``
    (benchmarks read ``bp.ext.hits`` whatever the topology); each level
    exposes the same accounting under ``{prefix}.tier.<name>.*``.
    """
    scopes = [(prefix, ext)]
    scopes += [(f"{prefix}.tier.{level.name}", level) for level in ext.levels]
    for scope, obj in scopes:
        registry.register(f"{scope}.read_latency", obj.read_latency)
        for attr in (
            "hits", "misses", "failures", "transient_failures",
            "quarantine_skips", "pages_lost_to_faults",
            "parked_pages", "capacity_pages",
        ):
            _gauge_attr(registry, f"{scope}.{attr}", obj, attr)
    for attr in (
        "demotions", "demotions_failed", "promotions",
        "parks_cancelled", "stale_slot_reads",
    ):
        _gauge_attr(registry, f"{prefix}.{attr}", ext, attr)


def register_remote_file(registry: MetricsRegistry, prefix: str, file: Any) -> None:
    registry.register(f"{prefix}.io_latency", file.io_latency)
    _gauge_attr(registry, f"{prefix}.reads", file, "reads")
    _gauge_attr(registry, f"{prefix}.writes", file, "writes")


def register_reliability(registry: MetricsRegistry, prefix: str, layer: Any) -> None:
    registry.gauge(f"{prefix}.deadline_hits", lambda: float(sum(layer.deadline_hits.values())))
    registry.gauge(f"{prefix}.retries", lambda: float(sum(layer.retries.values())))
    registry.gauge(f"{prefix}.hedges_issued", lambda: float(layer.hedge.issued))
    registry.gauge(
        f"{prefix}.quarantined", lambda: float(len(layer.breakers.quarantined()))
    )


def register_dist(registry: MetricsRegistry, prefix: str, runtime: Any) -> None:
    """Adopt an :class:`~repro.dist.ExchangeRuntime`'s per-exchange stats.

    Exchange ids are declared at plan-compile time (the planner calls
    ``runtime.stat`` eagerly), so bind *after* compiling — only ids
    known at bind time get gauges.
    """
    for exchange_id in sorted(runtime.stats):
        stats = runtime.stats[exchange_id]
        for attr in ("rows", "bytes", "batches", "credit_stalls_us"):
            _gauge_attr(registry, f"{prefix}.exchange.{exchange_id}.{attr}", stats, attr)
    # Fabric-wide totals: *live* over the stats dict, so exchanges a
    # later compile declares (multi-join plans add .shuffle2, ...) are
    # counted without re-binding.
    for attr in ("rows", "bytes", "batches", "credit_stalls_us"):
        registry.gauge(
            f"{prefix}.exchange.total.{attr}",
            lambda attr=attr: float(
                sum(getattr(stats, attr) for stats in runtime.stats.values())
            ),
        )


def register_server(registry: MetricsRegistry, prefix: str, server: Any) -> None:
    """One server: CPU, NIC and every attached device."""
    if getattr(server, "cpu", None) is not None:
        register_cpu(registry, f"{prefix}.cpu", server.cpu)
    if getattr(server, "nic", None) is not None:
        register_nic(registry, f"{prefix}.nic", server.nic)
    for device in getattr(server, "devices", {}).values():
        register_device(registry, f"{prefix}.dev.{device.name}", device)


def register_cluster(registry: MetricsRegistry, cluster: Any) -> None:
    for name, server in sorted(cluster.servers.items()):
        register_server(registry, f"server.{name}", server)
