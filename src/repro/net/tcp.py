"""TCP/IP transport model.

In contrast to the one-sided RDMA path, every TCP message:

* crosses the kernel on both ends (syscall, interrupt, wakeup),
* copies the payload between user and kernel buffers, charging the CPU
  on *both* the sender and the receiver, and
* achieves a lower effective data rate (~3.5 GB/s on this hardware —
  the SMB+RamDrive sequential result in Figure 3).

The remote-CPU cost is what degrades a busy memory server by ~10 %
(20 % at the 99th percentile) when its memory is accessed over TCP
(Figure 13); the RDMA path has no equivalent term.
"""

from __future__ import annotations

from ..cluster import Server
from ..sim import Resource
from ..sim.kernel import ProcessGenerator
from ..storage import GB
from ..telemetry.tracer import NOOP_SPAN

__all__ = ["TcpEndpoint", "TcpChannel", "attach_tcp"]


class TcpProfile:
    #: Effective streaming bandwidth of one direction (protocol-bound).
    bandwidth_bytes_per_us = 3.5 * GB / 1e6
    #: Kernel CPU per message on each side (syscall / interrupt / wakeup).
    per_message_cpu_us = 8.0
    #: CPU copy cost between user and kernel space (both sides pay it).
    copy_bytes_per_us = 3.0 * GB / 1e6
    #: One-way latency through the kernel network stack (not serialized).
    stack_latency_us = 15.0


class TcpEndpoint:
    """Per-server TCP state: effective-bandwidth pipes for each direction."""

    def __init__(self, server: Server, profile: TcpProfile | None = None):
        self.server = server
        self.profile = profile or TcpProfile()
        sim = server.sim
        self.tx = Resource(sim, capacity=1, name=f"{server.name}.tcp.tx")
        self.rx = Resource(sim, capacity=1, name=f"{server.name}.tcp.rx")
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Link degradation (fault injection): wire times scale by this.
        self.latency_multiplier = 1.0
        server.tcp = self

    def degrade(self, latency_multiplier: float = 1.0) -> None:
        """Apply transient link degradation (fault injection)."""
        if latency_multiplier < 1.0:
            raise ValueError("latency multiplier must be >= 1")
        self.latency_multiplier = latency_multiplier

    def restore_link(self) -> None:
        self.latency_multiplier = 1.0


def attach_tcp(server: Server, profile: TcpProfile | None = None) -> TcpEndpoint:
    """Give ``server`` a TCP endpoint (idempotent)."""
    if server.tcp is None:
        TcpEndpoint(server, profile)
    return server.tcp


class TcpChannel:
    """A connection between two servers; ``send`` moves payload bytes."""

    def __init__(self, src: Server, dst: Server):
        self.src = attach_tcp(src)
        self.dst = attach_tcp(dst)
        self.sim = src.sim

    def send(self, size: int) -> ProcessGenerator:
        """Transmit ``size`` bytes src -> dst, charging both CPUs."""
        src, dst = self.src, self.dst
        profile = src.profile
        tracer = self.sim.tracer
        span = (
            tracer.span(
                "tcp.send", cat="net", src=src.server.name, dst=dst.server.name, size=size,
            )
            if tracer.enabled else NOOP_SPAN
        )
        with span:
            # Sender: syscall plus copy into kernel buffers.
            yield from src.server.cpu.compute(
                profile.per_message_cpu_us + size / profile.copy_bytes_per_us
            )
            # Wire/protocol pipe, sender side, then the receiver's.  Each
            # pipe time is read at its grant: a degrade() that lands while
            # this send queues applies to it.
            yield from src.tx.use(
                lambda: src.latency_multiplier * size / profile.bandwidth_bytes_per_us
            )
            yield self.sim.timeout(profile.stack_latency_us)
            yield from dst.rx.use(
                lambda: dst.latency_multiplier * size / dst.profile.bandwidth_bytes_per_us
            )
            # Receiver: interrupt handling plus copy out to user space —
            # this is the remote-CPU involvement RDMA avoids.
            yield from dst.server.cpu.compute(
                profile.per_message_cpu_us + size / profile.copy_bytes_per_us
            )
            src.bytes_sent += size
            dst.bytes_received += size
        return size
