"""Block-device abstraction: the one contract for every medium that
serves ``(op, offset, size)`` below the engine.

A device accepts read/write requests of ``(offset, size)`` and completes
them after a modelled service time (:meth:`BlockDevice._service`, the
one hook a medium provides).  Local media (HDD array, SSD, the RamDrive)
and the SMB / SMB Direct clients that reach a remote RamDrive
(:mod:`repro.net.smb`) are all devices, so the engine mounts any of them
as a :class:`~repro.engine.DevicePageFile` and the I/O benchmark drives
any of them directly.  All expose the same entry points:

* :meth:`BlockDevice.submit` — returns an :class:`~repro.sim.Event` that
  fires when the I/O completes (value = latency in µs), and
* :meth:`BlockDevice.io` (and ``read``/``write``) — ``yield from``-able
  generators.

Devices also count operations and bytes moved, record per-operation
latencies, and open one ``{name}.{op}`` disk span per I/O.
"""

from __future__ import annotations

import abc
from enum import Enum

from ..sim import Event, LatencyRecorder, Simulator
from ..sim.kernel import ProcessGenerator
from ..telemetry.tracer import NOOP_SPAN

__all__ = [
    "IoOp",
    "BlockDevice",
    "DeviceUnavailable",
    "RamDrive",
    "KB",
    "MB",
    "GB",
    "PAGE_SIZE",
]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Database page size used throughout (SQL Server uses 8K pages).
PAGE_SIZE = 8 * KB


class IoOp(Enum):
    READ = "read"
    WRITE = "write"


class DeviceUnavailable(RuntimeError):
    """The device's host server is down (fault injection)."""


class BlockDevice(abc.ABC):
    """Base class: queueing and accounting common to all media."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.read_latency = LatencyRecorder(f"{name}.read")
        self.write_latency = LatencyRecorder(f"{name}.write")
        self.bytes_read = 0
        self.bytes_written = 0
        self.reads = 0
        self.writes = 0
        #: Host server, set by :meth:`repro.cluster.Server.attach_device`;
        #: submissions are refused while the host is down.
        self.owner = None
        # Span names are hot-path constants; build them once.
        self._span_names = {op: f"{name}.{op.value}" for op in IoOp}

    # -- subclass contract ----------------------------------------------

    @abc.abstractmethod
    def _service(self, op: IoOp, offset: int, size: int) -> ProcessGenerator:
        """Advance virtual time by the device's service model."""

    # -- public API ------------------------------------------------------

    def io(self, op: IoOp, offset: int, size: int) -> ProcessGenerator:
        """Perform one I/O; returns the observed latency in µs."""
        if size <= 0:
            raise ValueError(f"I/O size must be positive, got {size}")
        if offset < 0:
            raise ValueError(f"I/O offset must be >= 0, got {offset}")
        sim = self.sim
        start = sim.now
        tracer = sim.tracer
        span = (
            tracer.span(self._span_names[op], cat="disk", size=size)
            if tracer.enabled else NOOP_SPAN
        )
        with span:
            yield from self._service(op, offset, size)
        latency = sim.now - start
        self._account(op, size, latency)
        return latency

    def submit(self, op: IoOp, offset: int, size: int) -> Event:
        """Fire-and-collect variant of :meth:`io`."""
        if self.owner is not None and not self.owner.alive:
            raise DeviceUnavailable(f"{self.name}: host server is down")
        return self.sim.spawn(self.io(op, offset, size), name=f"{self.name}.{op.value}")

    def read(self, offset: int, size: int) -> ProcessGenerator:
        return (yield from self.io(IoOp.READ, offset, size))

    def write(self, offset: int, size: int) -> ProcessGenerator:
        return (yield from self.io(IoOp.WRITE, offset, size))

    def _account(self, op: IoOp, size: int, latency: float) -> None:
        if op is IoOp.READ:
            self.reads += 1
            self.bytes_read += size
            self.read_latency.record(latency)
        else:
            self.writes += 1
            self.bytes_written += size
            self.write_latency.record(latency)


class RamDrive(BlockDevice):
    """A RAM-backed drive mounted on a (remote) server.

    This is the third-party RamDrive of the *SMB+RamDrive* and
    *SMBDirect+RamDrive* baselines: plain memory speed locally; the
    network protocol on top is what differentiates the baselines.
    """

    ACCESS_US = 1.0
    BANDWIDTH_BYTES_PER_US = 10 * GB / 1e6

    def __init__(self, sim: Simulator, name: str = "ramdrive"):
        super().__init__(sim, name)
        self._pipe = sim.resource(capacity=4, name=f"{name}.pipe")

    def _service(self, op: IoOp, offset: int, size: int) -> ProcessGenerator:
        yield from self._pipe.use(self.ACCESS_US + size / self.BANDWIDTH_BYTES_PER_US)
