"""Pre-registered staging buffers on the database server.

Section 4.2: the buffer pool is not contiguous and dynamically grows, so
registering it wholesale is impossible and registering pages on demand
costs 50 µs — as much as the transfer.  Instead each CPU scheduler owns
a pinned, pre-registered 1 MB staging MR; pages are ``memcpy``-ed into a
staging slot (2 µs for 8K) and the RDMA verb operates on the staging
memory.  The slot count bounds outstanding RDMA transfers per scheduler
(128 slots of 8K per 1 MB buffer in the paper's tuning).
"""

from __future__ import annotations

import math

from ..cluster import Server
from ..net.rdma import RdmaRegistrar
from ..sim import Resource
from ..sim.kernel import ProcessGenerator
from ..storage import GB, KB, MB

__all__ = ["StagingPool", "MEMCPY_BYTES_PER_US"]

#: memcpy bandwidth: 8K in 2 µs (paper Section 4.1.4).
MEMCPY_BYTES_PER_US = 4 * GB / 1e6
#: Slot granularity: one database page.
SLOT_BYTES = 8 * KB


class StagingPool:
    """Per-server pool of pinned staging MRs, one buffer per scheduler."""

    def __init__(
        self,
        server: Server,
        schedulers: int = 8,
        buffer_bytes: int = 1 * MB,
    ):
        self.server = server
        self.schedulers = schedulers
        self.buffer_bytes = buffer_bytes
        self.registrar = RdmaRegistrar(server)
        slots = schedulers * (buffer_bytes // SLOT_BYTES)
        self.slots = Resource(server.sim, capacity=slots, name=f"{server.name}.staging")
        self.regions = []
        self._initialized = False

    def initialize(self) -> ProcessGenerator:
        """Pin and pre-register every staging buffer (startup cost)."""
        if self._initialized:
            return self.regions
        for _ in range(self.schedulers):
            region = yield from self.registrar.register(self.buffer_bytes)
            self.regions.append(region)
        self._initialized = True
        return self.regions

    def slots_for(self, size: int) -> int:
        return max(1, math.ceil(size / SLOT_BYTES))

    def memcpy_us(self, size: int) -> float:
        return size / MEMCPY_BYTES_PER_US

    def try_acquire(self, size: int) -> int | None:
        """Reserve the slots for ``size`` bytes inline if they are free —
        no generator, no event — and return their number; else None."""
        if not self._initialized:
            raise RuntimeError("staging pool used before initialize()")
        slots = self.slots_for(size)
        return slots if self.slots.try_acquire(slots) else None

    def acquire(self, size: int) -> ProcessGenerator:
        """Reserve staging slots for a transfer of ``size`` bytes,
        queueing for them (callers take :meth:`try_acquire` first).

        Interrupt-safe: a transfer torn down while *queued* for slots
        (provider crash, NIC failure, reliability deadline) cancels its
        request instead of leaving it behind — a stale request would be
        granted to a dead process and leak the slots forever, eventually
        exhausting the pool.
        """
        slots = self.try_acquire(size)
        if slots is not None:
            return slots  # free slots: granted inline, no scheduler round-trip
        slots = self.slots_for(size)
        request = self.slots.request(slots)
        try:
            if not self.server.sim.tracer.enabled:
                yield request
            else:
                # Slot-pool backpressure: make the wait visible as queueing.
                with self.server.sim.tracer.span("staging.wait", cat="queue", slots=slots):
                    yield request
        except BaseException:
            self.slots.cancel(request)
            raise
        return slots

    def release(self, slots: int) -> None:
        self.slots.release(slots)
