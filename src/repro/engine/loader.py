"""Parallel data loading with remote CPU brokering (Appendix C).

Loading flat files into an RDBMS is CPU-intensive: parsing, conversion
to native format, compression.  With idle remote servers available, the
splits can be loaded *there* into in-memory files, and the destination
server then pulls the loaded partitions over RDMA — a copy that is
negligible next to the load itself, yielding near-linear speedup
(Figure 27: 6919 s on one server vs 894 s on eight, ~7.7x).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Server
from ..sim import Resource
from ..sim.kernel import AllOf, ProcessGenerator
from ..storage import KB

__all__ = ["LoadSplit", "LoadReport", "load_splits", "parallel_load"]

#: Core-microseconds to parse/convert one KB of raw input (parsing,
#: type conversion, compression — bulk load is CPU-bound).
PARSE_CPU_US_PER_KB = 340.0
#: Concurrent load streams per server (bulk-load tools bound this).
LOAD_STREAMS_PER_SERVER = 8


@dataclass(frozen=True)
class LoadSplit:
    """One input flat file."""

    split_id: int
    size_bytes: int


@dataclass
class LoadReport:
    servers: int
    load_us: float = 0.0
    copy_us: float = 0.0
    bytes_loaded: int = 0

    @property
    def total_us(self) -> float:
        return self.load_us + self.copy_us


def _load_on_server(server: Server, splits: list[LoadSplit], streams: Resource) -> ProcessGenerator:
    """Parse/convert the splits on ``server`` using its cores."""
    def one(split: LoadSplit) -> ProcessGenerator:
        yield streams.request()
        try:
            yield from server.cpu.compute(split.size_bytes / KB * PARSE_CPU_US_PER_KB)
        finally:
            streams.release()

    # Longest-splits-first keeps the streams balanced (LPT scheduling,
    # what parallel bulk-load tools do with variable input files).
    ordered = sorted(splits, key=lambda split: -split.size_bytes)
    jobs = [server.sim.spawn(one(split)) for split in ordered]
    yield AllOf(server.sim, jobs)


def load_splits(server: Server, splits: list[LoadSplit]) -> ProcessGenerator:
    """Single-server load (the 1-server bar of Figure 27)."""
    sim = server.sim
    start = sim.now
    streams = Resource(sim, capacity=LOAD_STREAMS_PER_SERVER, name=f"{server.name}.load")
    yield from _load_on_server(server, splits, streams)
    return LoadReport(
        servers=1,
        load_us=sim.now - start,
        copy_us=0.0,
        bytes_loaded=sum(split.size_bytes for split in splits),
    )


def parallel_load(
    destination: Server,
    helpers: list[Server],
    splits: list[LoadSplit],
) -> ProcessGenerator:
    """Load splits across helper servers, then pull results over RDMA.

    Splits are round-robined over the helpers; each helper loads into a
    local in-memory file; the destination then reads every partition
    through its NIC (timed via the NIC DMA pipes).
    """
    if not helpers:
        return (yield from load_splits(destination, splits))
    sim = destination.sim
    start = sim.now
    assignments: dict[str, list[LoadSplit]] = {server.name: [] for server in helpers}
    for index, split in enumerate(splits):
        assignments[helpers[index % len(helpers)].name].append(split)
    jobs = []
    for server in helpers:
        streams = Resource(sim, capacity=LOAD_STREAMS_PER_SERVER, name=f"{server.name}.load")
        jobs.append(
            sim.spawn(_load_on_server(server, assignments[server.name], streams))
        )
    yield AllOf(sim, jobs)
    load_us = sim.now - start
    # Copy phase: pull each helper's loaded partition over RDMA.  The
    # native format is ~60% of the raw size after conversion/compression.
    copy_start = sim.now
    copy_jobs = []
    for server in helpers:
        loaded_bytes = int(sum(s.size_bytes for s in assignments[server.name]) * 0.6)
        if loaded_bytes:
            copy_jobs.append(
                server.nic.transfer(destination.nic, loaded_bytes, spawn="transfer")
            )
    if copy_jobs:
        yield AllOf(sim, copy_jobs)
    return LoadReport(
        servers=len(helpers),
        load_us=load_us,
        copy_us=sim.now - copy_start,
        bytes_loaded=sum(split.size_bytes for split in splits),
    )
