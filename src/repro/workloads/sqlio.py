"""SQLIO-style I/O micro-benchmark (Section 6.1, Figures 3-6).

The paper measures native I/O subsystem performance with SQLIO:

* random reads: 20 threads issuing 8 KB requests at uniform offsets,
* sequential reads: 5 threads streaming 512 KB blocks.

``sqlio_clients`` drives any named *target* that exposes ``read(offset,
size)`` (and optionally ``write``) as a ``yield from``-able generator:
block devices, SMB clients and remote files all qualify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import Simulator
from ..storage import GB, KB
from .clients import ClientRun, run_clients

__all__ = [
    "RANDOM_8K", "SEQUENTIAL_512K", "SqlioPattern", "gb_per_s", "run_sqlio", "sqlio_clients",
]


@dataclass(frozen=True)
class SqlioPattern:
    """One SQLIO configuration."""

    name: str
    threads: int
    io_bytes: int
    random: bool
    ops_per_thread: int = 200


#: The two patterns of Figures 3 and 4.
RANDOM_8K = SqlioPattern(name="8K Random", threads=20, io_bytes=8 * KB, random=True)
SEQUENTIAL_512K = SqlioPattern(
    name="512K Sequential", threads=5, io_bytes=512 * KB, random=False
)


def sqlio_clients(
    target,
    pattern: SqlioPattern,
    span_bytes: int = 64 * GB,
    rng: np.random.Generator | None = None,
    write: bool = False,
) -> list:
    """One client per SQLIO thread against ``target``.

    ``span_bytes`` is the addressable range; random offsets are uniform
    over it (drawn here), sequential threads stream disjoint contiguous
    slices.  An op's label is the target's name, its result the bytes
    it moved.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    per = pattern.ops_per_thread
    if pattern.random:
        slots = max(1, span_bytes // pattern.io_bytes)
        offsets = rng.integers(0, slots, size=pattern.threads * per) * pattern.io_bytes
    else:
        slice_bytes = span_bytes // pattern.threads
        wrap = max(pattern.io_bytes, slice_bytes - pattern.io_bytes)
        offsets = [thread * slice_bytes + (index * pattern.io_bytes) % wrap
                   for thread in range(pattern.threads) for index in range(per)]
    io = target.write if write else target.read

    def op(offset: int):
        def run():
            yield from io(offset, pattern.io_bytes)
            return target.name, pattern.io_bytes

        return run

    return [[op(int(offset)) for offset in offsets[thread * per:(thread + 1) * per]]
            for thread in range(pattern.threads)]


def gb_per_s(run: ClientRun) -> float:
    """Throughput of a SQLIO run: the bytes its ops moved per virtual second."""
    moved = sum(record[3] for record in run.records)
    return (moved / GB) / (run.elapsed_us / 1e6) if run.elapsed_us > 0 else 0.0


def run_sqlio(
    sim: Simulator,
    target,
    pattern: SqlioPattern,
    span_bytes: int = 64 * GB,
    rng: np.random.Generator | None = None,
    write: bool = False,
) -> ClientRun:
    """Run one SQLIO pattern against ``target`` to completion."""
    return run_clients(
        sim, sqlio_clients(target, pattern, span_bytes=span_bytes, rng=rng, write=write)
    )
