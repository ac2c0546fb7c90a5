"""The per-layer host-cost ledger: exact counts, cProfile self-times, unit costs.

Counts are read from the program's public counters before and after the
measured phase and are exact.  Host self-times come from a separate run
under ``cProfile``, bucketed by source file into layers named after the
packages in ``src/repro``; the profiler is driven from here, the program
is not edited.
"""

from __future__ import annotations

import math
import os
import re
import zlib

import repro
from repro.sim import LatencyRecorder

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

LAYERS = (
    "sim.kernel", "sim.cpu", "net", "storage", "remotefile",
    "engine.bufferpool", "engine.btree", "engine.operators", "engine.wal",
    "engine.other", "tiers", "plan", "txn", "dist", "workloads", "control", "python",
)
_MODULE_LAYER = {
    "sim/cpu.py": "sim.cpu",
    "engine/bufferpool.py": "engine.bufferpool",
    "engine/btree.py": "engine.btree",
    "engine/operators.py": "engine.operators",
    "engine/wal.py": "engine.wal",
}
#: Packages that are a layer of their own (or the rest of a split one);
#: broker, reliability, faults, fleet, telemetry, harness and cluster.py
#: fall through to "control".
_PACKAGE_LAYER = {
    "sim": "sim.kernel", "engine": "engine.other", "net": "net", "storage": "storage",
    "remotefile": "remotefile", "tiers": "tiers", "plan": "plan", "txn": "txn",
    "dist": "dist", "workloads": "workloads",
}
#: The count_metrics entries that divide by host time.
HOST_DEPENDENT = {"sim.wall_us_per_event", "sim.virtual_per_wall"}
#: Functions whose cumulative time is plan compilation.
_COMPILE_FUNCTIONS = {"compile_plan_fragments", "lower_single"}

#: Ledger counter -> pattern over MetricsRegistry names, summed over
#: every match (a dist cluster has one pool per DB server).
_GAUGES = {
    "bp.hits": r"(^|\.)bp\.hits$",
    "bp.misses": r"(^|\.)bp\.misses$",
    "bp.ext_hits": r"(^|\.)bp\.ext_hits$",
    "bp.base_reads": r"(^|\.)bp\.base_reads$",
    "bp.prefetches": r"(^|\.)bp\.prefetches$",
    "ext.misses": r"(^|\.)bp\.ext\.misses$",
    "ext.failures": r"(^|\.)bp\.ext\.failures$",
    "ext.demotions": r"(^|\.)bp\.ext\.demotions$",
    "ext.promotions": r"(^|\.)bp\.ext\.promotions$",
    "rfile.reads": r"^rfile\..*\.reads$",
    "rfile.writes": r"^rfile\..*\.writes$",
    "net.messages": r"\.nic\.messages_sent$",
    "net.bytes": r"\.nic\.bytes_sent$",
    "storage.reads": r"\.dev\.[^.]+\.reads$",
    "storage.writes": r"\.dev\.[^.]+\.writes$",
    "storage.bytes_read": r"\.dev\.[^.]+\.bytes_read$",
    "storage.bytes_written": r"\.dev\.[^.]+\.bytes_written$",
}
#: Latency recorders: contribute ``<key>.count`` and ``<key>.sum_us``.
_RECORDERS = {
    "bp.fault": r"(^|\.)bp\.fault_latency$",
    "ext.read": r"(^|\.)bp\.ext\.read_latency$",
    "rfile.io": r"^rfile\..*\.io_latency$",
}


def snapshot(workload) -> dict:
    """Cumulative exact counters of a built workload, right now."""
    counters = {"sim.events": workload.sim.events_processed, "sim.now_us": workload.sim.now}
    registry = workload.registry
    for name in registry.names():
        instrument = registry.get(name)
        for key, pattern in _GAUGES.items():
            if re.search(pattern, name):
                counters[key] = counters.get(key, 0.0) + instrument.read()
        for key, pattern in _RECORDERS.items():
            if re.search(pattern, name):
                samples = instrument.samples
                counters[f"{key}.count"] = counters.get(f"{key}.count", 0) + len(samples)
                counters[f"{key}.sum_us"] = counters.get(f"{key}.sum_us", 0.0) + math.fsum(samples)
    counters["wal.flushes"] = sum(db.wal.flushes for db in workload.databases)
    for key, value in workload.exec.items():
        counters[f"exec.{key}"] = value
    if workload.manager is not None:
        for key, value in workload.manager.stats().items():
            counters[f"txn.{key}"] = value
    if workload.runtime is not None:
        for attr in ("batches", "rows", "bytes", "credit_stalls_us"):
            counters[f"dist.{attr}"] = sum(
                getattr(stats, attr) for stats in workload.runtime.stats.values()
            )
    # Anchors for the windowed CPU utilization (host-side bookkeeping).
    counters["_cpu_marks"] = [db.server.cpu.mark_utilization() for db in workload.databases]
    return counters


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def count_metrics(workload, before: dict, after: dict, ops: int, wall_s: float) -> dict:
    """Per-layer counts and virtual-time unit costs over the measured phase.

    ``wall_s`` is the phase's speed-normalised wall time.
    """

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    events = delta("sim.events")
    virtual_s = delta("sim.now_us") / 1e6
    requests = delta("bp.hits") + delta("bp.misses")
    commits, aborts = delta("txn.commits"), delta("txn.aborts")
    batches = delta("dist.batches")
    cpus = [db.server.cpu for db in workload.databases]
    return {
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "sim.wall_us_per_event": _ratio(wall_s * 1e6, events),
        "sim.virtual_s": virtual_s,
        "sim.virtual_per_wall": _ratio(virtual_s, wall_s),
        "sim.cpu_util": sum(
            cpu.utilization(mark) for cpu, mark in zip(cpus, before["_cpu_marks"])
        ) / len(cpus),
        "engine.bufferpool.requests": requests,
        "engine.bufferpool.hit_ratio": _ratio(delta("bp.hits"), requests),
        "engine.bufferpool.faults": delta("bp.misses"),
        "engine.bufferpool.ext_hits": delta("bp.ext_hits"),
        "engine.bufferpool.base_reads": delta("bp.base_reads"),
        "engine.bufferpool.prefetches": delta("bp.prefetches"),
        "engine.bufferpool.fault_lat_mean_us": _ratio(
            delta("bp.fault.sum_us"), delta("bp.fault.count")
        ),
        "engine.bufferpool.events_per_fault": _ratio(events, delta("bp.misses")),
        "tiers.ext_misses": delta("ext.misses"),
        "tiers.ext_failures": delta("ext.failures"),
        "tiers.ext_read_lat_mean_us": _ratio(delta("ext.read.sum_us"), delta("ext.read.count")),
        "tiers.demotions": delta("ext.demotions"),
        "tiers.promotions": delta("ext.promotions"),
        "remotefile.reads": delta("rfile.reads"),
        "remotefile.writes": delta("rfile.writes"),
        "remotefile.io_lat_mean_us": _ratio(delta("rfile.io.sum_us"), delta("rfile.io.count")),
        "net.messages": delta("net.messages"),
        "net.bytes": delta("net.bytes"),
        "storage.reads": delta("storage.reads"),
        "storage.writes": delta("storage.writes"),
        "storage.bytes_read": delta("storage.bytes_read"),
        "storage.bytes_written": delta("storage.bytes_written"),
        "engine.operators.rows_out": delta("exec.rows_out"),
        "engine.operators.spilled_runs": delta("exec.spilled_runs"),
        "engine.operators.spilled_bytes": delta("exec.spilled_bytes"),
        "engine.wal.flushes": delta("wal.flushes"),
        "engine.wal.flushes_per_op": _ratio(delta("wal.flushes"), ops),
        "txn.commits": commits,
        "txn.aborts": aborts,
        "txn.commit_ratio": _ratio(commits, commits + aborts),
        "txn.deadlocks": delta("txn.deadlocks_detected"),
        "txn.retries": delta("txn.retries"),
        "txn.lock_waits": delta("txn.lock_waits"),
        "txn.lock_wait_us": delta("txn.lock_wait_us"),
        "txn.events_per_commit": _ratio(events, commits),
        "dist.exchange_batches": batches,
        "dist.exchange_rows": delta("dist.rows"),
        "dist.exchange_bytes": delta("dist.bytes"),
        "dist.rows_per_batch": _ratio(delta("dist.rows"), batches),
        "dist.credit_stall_us": delta("dist.credit_stalls_us"),
        "dist.events_per_batch": _ratio(events, batches),
    }


def layer_of(filename: str) -> str:
    """The ledger layer a source file belongs to."""
    if filename.startswith(PERFBENCH_DIR):
        return "workloads"  # the benchmark's client loops are workload code
    if not filename.startswith(REPRO_DIR):
        return "python"  # stdlib, numpy
    module = filename[len(REPRO_DIR):].replace(os.sep, "/")
    return _MODULE_LAYER.get(module) or _PACKAGE_LAYER.get(module.split("/")[0], "control")


def profile_metrics(stats, counts: dict, ops: int) -> dict:
    """Per-layer host self-time and host unit costs of a cProfile'd phase.

    ``stats`` is ``cProfile.Profile.getstats()``; ``counts`` the
    :func:`count_metrics` of the *same* (traced) phase, so a unit cost
    divides a layer's traced seconds by the work that layer did in them.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = 0
    compile_s = 0.0
    for entry in stats:
        code = entry.code
        builtin = isinstance(code, str)  # C functions carry a description
        self_s["python" if builtin else layer_of(code.co_filename)] += entry.inlinetime
        calls += entry.callcount
        if not builtin and code.co_name in _COMPILE_FUNCTIONS:
            compile_s += entry.totaltime
    total = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.self_share"] = _ratio(self_s[layer], total)

    def unit_us(layer: str, work: float) -> float:
        return _ratio(self_s[layer] * 1e6, work)

    metrics["engine.bufferpool.wall_us_per_request"] = unit_us(
        "engine.bufferpool", counts["engine.bufferpool.requests"]
    )
    metrics["remotefile.wall_us_per_io"] = unit_us(
        "remotefile", counts["remotefile.reads"] + counts["remotefile.writes"]
    )
    metrics["engine.operators.wall_us_per_row"] = unit_us(
        "engine.operators", counts["engine.operators.rows_out"]
    )
    metrics["plan.compile_s"] = compile_s
    metrics["trace.pycalls_per_op"] = _ratio(calls, ops)
    return metrics


def latency_metrics(latencies_us: list, virtual_s: float) -> dict:
    """Throughput, median and the highest tail the sample supports."""
    recorder = LatencyRecorder("ops")
    recorder.samples.extend(latencies_us)
    count = recorder.count
    # The highest percentile with at least ten samples beyond it; below
    # 40 samples (smoke runs) p75 is reported without that support.
    tail_pct = next((p for p in (99, 95, 90, 75) if count * (100 - p) >= 1000), 75)
    return {
        "sim_ops_per_s": _ratio(count, virtual_s),
        "sim_lat_p50_ms": recorder.p50 / 1000.0,
        "sim_lat_tail_ms": recorder.percentile(tail_pct) / 1000.0,
        "tail_pct": tail_pct,
        "samples": count,
    }


def exact_counts(counts: dict) -> dict:
    """The counts that are simulated, hence repeat bit for bit under one seed."""
    return {key: value for key, value in counts.items() if key not in HOST_DEPENDENT}


def sim_digest(sim_now_us: float, results: list, counts: dict) -> str:
    """CRC over everything simulated: clock, latencies, answers, exact counts.

    Two commits — or two runs — agree on it iff every simulated statistic
    is identical.
    """
    exact = sorted(exact_counts(counts).items())
    return f"{zlib.crc32(repr((sim_now_us, results, exact)).encode()):08x}"
