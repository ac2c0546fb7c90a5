"""RDMA verbs: memory regions, registration, queue pairs, one-sided ops.

This is the simulated equivalent of the NDSPI layer the paper's Custom
design uses (Section 4.2).  Faithfully modelled properties:

* **Registration is expensive**: registering an 8K page costs ~50 µs —
  the same order as transferring it — which is why the paper
  pre-registers staging buffers instead of registering buffer-pool pages
  on demand (Section 4.1.4).  NICs also cap the size (2 GB) and the
  number (~130 K) of registered regions (Appendix A).
* **One-sided data path**: an RDMA read/write moves data between the
  pinned regions using only the two NICs' DMA engines; the remote CPU is
  *never* involved.  Compare :mod:`repro.net.tcp`, which charges the
  remote server's cores per message — the root of Figure 13's result.
* **An extent holds one object**: a region maps each written offset
  to ``(size, object)`` — a page image, a serialized batch — so higher
  layers move Python objects with the timing of ``size`` bytes and no
  per-transfer serialization.  A verb without an object is timing-only
  (I/O micro-benchmarks sweep spans far larger than host RAM).
* **A verb has no control flow**: post, a control message and a payload
  on the two NICs' engines, reap.  :meth:`QueuePair.read` and
  :meth:`QueuePair.write` therefore return a
  :class:`~repro.net.fabric.Wire` — a kernel-stepped
  :class:`~repro.sim.Chain` running :mod:`repro.net.fabric`'s stage
  functions between this module's — not a generator.  ``yield``
  it and it is part of the caller (an exchange's batch write: errors
  raise into the sender); pass ``spawn=name`` and it is a posted work
  request with a process's schedule (a remote file's page I/O: the
  provider's port can abort it, faults become
  :data:`~repro.sim.ABORTED`, the queue pair times the reads).
"""

from __future__ import annotations

import math
from typing import Any

from ..cluster import Server
from ..sim.kernel import ProcessGenerator
from ..sim.stats import LatencyRecorder
from ..storage import GB, KB
from .fabric import CONTROL, TRANSFER, NetworkDown, NicPort, Wire

__all__ = [
    "MemoryRegion",
    "RdmaRegistrar",
    "QueuePair",
    "RdmaError",
    "OVERTOOK",
    "MR_REGISTER_BASE_US",
]

#: Fixed cost of a registration call (kernel transition, pinning setup).
MR_REGISTER_BASE_US = 45.0
#: Incremental cost per 8K page (page-table entry install + pinning).
MR_REGISTER_PER_PAGE_US = 5.0
#: NIC limits (Appendix A: 2 GB per MR, ~130 K MRs on the ConnectX-3).
MR_MAX_SIZE = 2 * GB
MR_MAX_COUNT = 130_000
_PAGE = 8 * KB


class RdmaError(RuntimeError):
    """Registration-limit violations and invalid remote accesses."""


class MemoryRegion:
    """A pinned, NIC-registered block of a server's physical memory."""

    _next_id = 0

    def __init__(self, server: Server, size: int):
        MemoryRegion._next_id += 1
        self.mr_id = MemoryRegion._next_id
        self.server = server
        self.size = size
        self.registered = False
        #: One-sided verbs currently in flight against this region.
        self.inflight = 0
        #: Set when the region was deregistered out from under in-flight
        #: ops (``deregister(force=True)``): those ops must fail on
        #: resume rather than complete against the freed bytes.
        self.doomed = False
        #: Extents: offset -> (length, object).
        self._objects: dict[int, tuple[int, Any]] = {}

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise RdmaError(
                f"access [{offset}, {offset + size}) outside MR of {self.size} bytes"
            )

    def put_object(self, offset: int, size: int, obj: Any) -> None:
        self._check_range(offset, size)
        self._objects[offset] = (size, obj)

    def get_object(self, offset: int) -> Any:
        if offset not in self._objects:
            raise RdmaError(f"no object stored at MR offset {offset}")
        return self._objects[offset][1]

    def drop_object(self, offset: int) -> None:
        self._objects.pop(offset, None)

    def clear(self) -> None:
        self._objects.clear()


class RdmaRegistrar:
    """Per-server registration state: enforces NIC limits and costs.

    Registration pins the memory (commits it against the server) and
    installs page-table entries on the NIC, costing
    ``MR_REGISTER_BASE_US + pages * MR_REGISTER_PER_PAGE_US`` of the
    *registering server's* CPU.
    """

    def __init__(self, server: Server):
        self.server = server
        self.regions: dict[int, MemoryRegion] = {}

    def registration_cost_us(self, size: int) -> float:
        pages = max(1, math.ceil(size / _PAGE))
        return MR_REGISTER_BASE_US + pages * MR_REGISTER_PER_PAGE_US

    def register(self, size: int, commit: bool = True) -> ProcessGenerator:
        """Create, pin and register a region; returns the MemoryRegion."""
        if size <= 0:
            raise RdmaError("MR size must be positive")
        if size > MR_MAX_SIZE:
            raise RdmaError(f"MR size {size} exceeds NIC limit {MR_MAX_SIZE}")
        if len(self.regions) >= MR_MAX_COUNT:
            raise RdmaError("NIC MR count limit reached")
        if commit:
            self.server.commit_memory(size)
        region = MemoryRegion(self.server, size)
        yield from self.server.cpu.compute(self.registration_cost_us(size))
        region.registered = True
        self.regions[region.mr_id] = region
        return region

    def deregister(
        self, region: MemoryRegion, release: bool = True, force: bool = False
    ) -> ProcessGenerator:
        """Unpin and free a region.

        Deregistering while one-sided verbs are still in flight against
        the region is a use-after-free in waiting: the NIC would DMA
        into (or out of) memory the OS has already reclaimed.  The
        default is *assert* semantics — raise :class:`RdmaError` so the
        caller finds the race.  ``force=True`` selects *doom* semantics
        for paths that legitimately revoke memory out from under users
        (lease revocation under memory pressure): the region is freed
        immediately and every in-flight op fails deterministically with
        :class:`RdmaError` when it resumes, instead of silently
        completing against freed bytes.
        """
        if region.mr_id not in self.regions:
            raise RdmaError("region is not registered here")
        if region.inflight > 0 and not force:
            raise RdmaError(
                f"deregister with {region.inflight} ops in flight (use force=True to doom them)"
            )
        yield from self.server.cpu.compute(MR_REGISTER_BASE_US / 2)
        if region.inflight > 0:
            if not force:
                raise RdmaError(
                    f"deregister raced {region.inflight} in-flight ops"
                    " (use force=True to doom them)"
                )
            region.doomed = True
        del self.regions[region.mr_id]
        region.registered = False
        region.clear()
        if release:
            self.server.release_memory(region.size)


#: CPU cost on the initiator to post a work request and reap completion.
POST_CPU_US = 0.3


class QueuePair:
    """A reliable connection between two servers for one-sided verbs."""

    def __init__(
        self, initiator: Server, target: Server, read_latency: LatencyRecorder | None = None
    ):
        if initiator.nic is None or target.nic is None:
            raise RdmaError("both servers must be attached to the network")
        self.initiator = initiator
        self.target = target
        self.connected = True
        self.reads = 0
        self.writes = 0
        #: Post-to-completion time of every *spawned* read, aborted or not.
        self.read_latency = read_latency
        #: Bumped by disconnect() so verbs in flight across the break
        #: can tell this connection's teardown from a later reconnect.
        self._epoch = 0

    def _require_connected(self, region: MemoryRegion) -> None:
        if not self.connected:
            raise RdmaError("queue pair is disconnected")
        if not self.initiator.alive or not self.target.alive:
            raise RdmaError("queue pair endpoint server is down")
        if not region.registered:
            raise RdmaError("remote region is not registered")
        if region.server is not self.target:
            raise RdmaError("region does not belong to the connected target")

    def _require_resumed(self, region: MemoryRegion, epoch: int) -> None:
        """Re-check on resume, *before* touching region data.

        The wire-time path suspends the caller for the full transfer;
        by completion the QP may have been torn down or the region
        deregistered (``deregister(force=True)`` dooms it).  A real NIC
        flushes such work requests with an error completion — model
        that as a deterministic :class:`RdmaError` instead of silently
        completing against stale or freed memory.
        """
        if self._epoch != epoch or not self.connected:
            raise RdmaError("queue pair disconnected while transfer in flight")
        if region.doomed or not region.registered:
            raise RdmaError("memory region deregistered while transfer in flight")

    def disconnect(self) -> None:
        self.connected = False
        self._epoch += 1

    # -- one-sided verbs --------------------------------------------------
    #
    # Yielded, a verb is part of the caller and raises into it.  With
    # ``spawn=name`` it is a posted work request with a process's schedule:
    # the target port can abort it when it goes dark (:meth:`NicPort.fail`),
    # its value is then :data:`~repro.sim.ABORTED` — as it is when an
    # endpoint or the region is found gone along the way — and a read's
    # post-to-completion time goes to ``read_latency``.

    def read(
        self,
        region: MemoryRegion,
        offset: int,
        size: int,
        nodata: bool = False,
        behind: Any = None,
        spawn: str | None = None,
    ) -> Wire:
        """One-sided RDMA read; the value is the object stored at ``offset``.

        An extent holding no object (never written, or emptied by a lease
        expiry) fails the read with :class:`RdmaError`.  ``nodata=True``
        performs the full timing path without touching the region; its
        value is ``None``.  ``behind`` is a write posted earlier to the
        same extent: if it is still in flight when the read completes,
        the read sampled what the extent held before and its value is
        :data:`OVERTOOK`.
        """
        latency = self.read_latency if spawn is not None else None
        state = (self, region, offset, None, nodata, behind, latency)
        initiator: NicPort = self.initiator.nic
        target: NicPort = self.target.nic
        # Request to the target; its NIC DMAs the data back — no target CPU.
        return Wire(
            self.initiator.sim, READ, spawn, target, initiator, size, initiator, target,
            state, _FAULTS,
        )

    def write(
        self,
        region: MemoryRegion,
        offset: int,
        size: int,
        obj: Any = None,
        spawn: str | None = None,
    ) -> Wire:
        """One-sided RDMA write of ``obj`` as a ``size``-byte extent; the
        value is ``size``.  Without an object the write is timing-only."""
        state = (self, region, offset, obj, obj is None, None, None)
        initiator: NicPort = self.initiator.nic
        target: NicPort = self.target.nic
        # Data to the target; hardware ack from its NIC.
        return Wire(
            self.initiator.sim, WRITE, spawn, initiator, target, size, target, initiator,
            state, _FAULTS,
        )


#: Value of a read that completed before the write it was posted behind.
OVERTOOK = object()

#: Faults a posted verb completes with ``ABORTED`` for.
_FAULTS = (NetworkDown, RdmaError)


def _post(verb: Wire) -> float:
    qp, region = verb.qp, verb.region
    qp._require_connected(region)
    name = "rdma.write" if verb._program is WRITE else "rdma.read"
    verb.epoch = qp._epoch
    region.inflight += 1
    if verb.spans is not None:
        tracer = qp.initiator.sim.tracer
        verb.spans.append(tracer.span(name, provider=qp.target.name, size=verb.size))
    return POST_CPU_US  # post the work request


def _reap(verb: Wire) -> float:
    return POST_CPU_US  # completion-queue entry processed at the initiator


def _settle(verb: Wire) -> None:
    if verb.spans is not None:
        verb.spans.pop().close()
    region = verb.region
    region.inflight -= 1
    epoch, verb.epoch = verb.epoch, None
    # Time has passed since the post: the QP or region may be gone now.
    verb.qp._require_resumed(region, epoch)


def _read_done(verb: Wire) -> None:
    _settle(verb)
    verb.qp.reads += 1
    # An emptied extent raises here, so a posted read completes ABORTED.
    value = None if verb.nodata else verb.region.get_object(verb.offset)
    behind = verb.behind
    verb.result = OVERTOOK if behind is not None and behind.is_alive else value


def _write_done(verb: Wire) -> None:
    _settle(verb)
    if not verb.nodata:
        verb.region.put_object(verb.offset, verb.size, verb.obj)
    verb.qp.writes += 1
    verb.result = verb.size


READ = (_post, *CONTROL, *TRANSFER, _reap, _read_done)
WRITE = (_post, *TRANSFER, *CONTROL, _reap, _write_done)
