"""Network fabric: the Infiniband switch and per-server NIC ports.

The paper's cluster uses Mellanox ConnectX-3 FDR adapters (56 Gbps) on a
non-blocking top-of-rack switch.  The raw wire is 7 GB/s, but the
achievable data rate through a NIC is DMA/PCIe-bound at ~5.4 GB/s (this
is what the 512K-sequential SQLIO numbers in Figure 3 show: ~5.1 GB/s
for both Custom and SMB Direct).

Each :class:`NicPort` has independent transmit and receive engines,
modelled as serialized pipes with a small fixed per-message cost.  A
transfer from A to B occupies A's TX engine, the (negligible) wire, and
B's RX engine in a pipeline — so saturation can occur at either side,
which is exactly what Figures 5 and 6 probe.

Fault hooks (used by :mod:`repro.faults`):

* :meth:`NicPort.fail` / :meth:`NicPort.restore` — the port goes dark
  when its server crashes; in-flight transfers registered through
  :meth:`NicPort.track_inflight` are aborted with the kernel's
  :class:`~repro.sim.Interrupt`.
* :meth:`NicPort.degrade` / :meth:`NicPort.restore_link` — transient
  link degradation: a latency multiplier plus a seeded packet-loss
  probability paid as retransmissions.
"""

from __future__ import annotations

from functools import partial

from ..cluster import Server
from ..sim import Resource, Simulator
from ..sim.kernel import Process, ProcessGenerator, Timeout
from ..storage import GB
from ..telemetry.tracer import NOOP_SPAN as _NOOP_SPAN

__all__ = ["Network", "NetworkDown", "NicPort"]

#: Retransmission attempts are bounded: past this the message is
#: delivered anyway (link-layer retry exhaustion is modelled as success
#: after the worst-case number of tries, never as silent loss).
MAX_RETRIES = 8


class NetworkDown(RuntimeError):
    """An endpoint of the transfer is dark (server crash)."""


class NicProfile:
    """Timing characteristics of one RDMA-capable NIC port."""

    #: Effective DMA-bound data bandwidth per direction.
    bandwidth_bytes_per_us = 5.4 * GB / 1e6
    #: Serialized per-message engine cost (descriptor fetch, doorbell).
    per_message_us = 0.5
    #: Fixed processing latency per message, not serialized.
    processing_us = 1.5


class Network:
    """The switch: attach servers to get NIC ports; non-blocking core."""

    def __init__(self, sim: Simulator, propagation_us: float = 1.0):
        self.sim = sim
        self.propagation_us = propagation_us
        self.ports: dict[str, NicPort] = {}

    def attach(self, server: Server, profile: NicProfile | None = None) -> "NicPort":
        if server.name in self.ports:
            raise ValueError(f"server {server.name!r} already attached")
        port = NicPort(self, server, profile or NicProfile())
        self.ports[server.name] = port
        server.nic = port
        return port

    def port(self, server_name: str) -> "NicPort":
        return self.ports[server_name]


class NicPort:
    """One server's NIC: independent TX/RX engines plus a message pipe."""

    def __init__(self, network: Network, server: Server, profile: NicProfile):
        self.network = network
        self.server = server
        self.profile = profile
        sim = network.sim
        self.tx = Resource(sim, capacity=1, name=f"{server.name}.nic.tx")
        self.rx = Resource(sim, capacity=1, name=f"{server.name}.nic.rx")
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        #: Fault state: the port refuses traffic while False.
        self.alive = True
        #: Link degradation (fault injection): engine times scale by the
        #: multiplier; each message pays a seeded number of retransmits.
        self.latency_multiplier = 1.0
        self.drop_probability = 0.0
        self.retransmits = 0
        self._link_rng = None
        #: Transfer processes that touch this port, abortable on crash.
        #: Insertion-ordered so abort order (and hence replay) is
        #: deterministic — a set would iterate in address order.
        self._inflight: dict[Process, None] = {}

    # -- fault hooks -------------------------------------------------------

    def fail(self) -> None:
        """Port goes dark: abort every tracked in-flight transfer."""
        if not self.alive:
            return
        self.alive = False
        for process in list(self._inflight):
            process.interrupt(cause=f"{self.server.name}: NIC down")
        self._inflight.clear()

    def restore(self) -> None:
        self.alive = True

    def degrade(
        self,
        latency_multiplier: float = 1.0,
        drop_probability: float = 0.0,
        rng=None,
    ) -> None:
        """Apply transient link degradation (fault injection).

        ``rng`` must be a seeded generator (``random()`` method) when
        ``drop_probability`` is non-zero, so retransmission draws stay
        deterministic for a given experiment seed.
        """
        if latency_multiplier < 1.0:
            raise ValueError("latency multiplier must be >= 1")
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        if drop_probability > 0.0 and rng is None:
            raise ValueError("packet loss needs a seeded rng for determinism")
        self.latency_multiplier = latency_multiplier
        self.drop_probability = drop_probability
        self._link_rng = rng

    def restore_link(self) -> None:
        self.latency_multiplier = 1.0
        self.drop_probability = 0.0
        self._link_rng = None

    def track_inflight(self, process: Process) -> None:
        """Register a transfer process for abort-on-crash semantics."""
        self._inflight[process] = None
        process.add_callback(lambda _e: self._inflight.pop(process, None))

    # -- observability -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Transfers queued behind the TX and RX engines right now."""
        return self.tx.queue_length + self.rx.queue_length

    @property
    def healthy(self) -> bool:
        """Up and undegraded (no latency multiplier, no packet loss)."""
        return (
            self.alive
            and self.server.alive
            and self.latency_multiplier == 1.0
            and self.drop_probability == 0.0
        )

    # -- timing ------------------------------------------------------------

    def _engine_time(self, size: int) -> float:
        base = self.profile.per_message_us + size / self.profile.bandwidth_bytes_per_us
        base *= self.latency_multiplier
        if self.drop_probability > 0.0 and self._link_rng is not None:
            retries = 0
            while retries < MAX_RETRIES and self._link_rng.random() < self.drop_probability:
                retries += 1
            if retries:
                self.retransmits += retries
                base *= 1 + retries
        return base

    def _check_alive(self, peer: "NicPort") -> None:
        if not self.alive or not self.server.alive:
            raise NetworkDown(f"{self.server.name}: NIC is down")
        if not peer.alive or not peer.server.alive:
            raise NetworkDown(f"{peer.server.name}: NIC is down")

    def transfer(self, dst: "NicPort", size: int) -> ProcessGenerator:
        """Move ``size`` payload bytes from this port to ``dst``.

        Pipelined: TX engine, propagation, RX engine.  Returns total µs.
        An engine's service time is computed when its slot is *granted*,
        not when the transfer enqueues: link degradation applies to
        transfers serviced while the link is sick, and a backlog queued
        during a brown-out drains at healthy speed once it restores.
        """
        self._check_alive(dst)
        sim = self.network.sim
        tracer = sim.tracer
        traced = tracer.enabled
        start = sim.now
        outer = _NOOP_SPAN  # closed, not entered: ``with`` on the no-op is two calls
        if traced:
            outer = tracer.span(
                "nic.transfer", cat="net", src=self.server.name, dst=dst.server.name, size=size
            )
        try:
            for port, engine in ((self, self.tx), (dst, dst.rx)):
                name = engine.name
                if engine is dst.rx:
                    yield Timeout(sim, self.network.propagation_us + self.profile.processing_us)
                    self._check_alive(dst)
                if engine.try_acquire():  # idle: granted inline, no scheduler round-trip
                    span = tracer.span("nic.xmit", "net", engine=name) if traced else _NOOP_SPAN
                    try:
                        yield Timeout(sim, port._engine_time(size))
                    finally:
                        span.close()
                        engine.release()
                else:
                    span = tracer.span("nic.queue", "queue", engine=name) if traced else _NOOP_SPAN
                    hold = engine.hold(partial(port._engine_time, size))
                    try:
                        yield hold
                    finally:
                        hold.finish()
                        if traced:
                            span.split(hold.granted_at, "nic.xmit", "net", engine=name).close()
        finally:
            outer.close()
        self.bytes_sent += size
        self.messages_sent += 1
        dst.bytes_received += size
        return sim.now - start

    def send_control(self, dst: "NicPort") -> ProcessGenerator:
        """A small control message (request packet, ack, doorbell)."""
        self._check_alive(dst)
        sim = self.network.sim
        delay = (
            self.profile.per_message_us * self.latency_multiplier
            + self.network.propagation_us
            + self.profile.processing_us
        )
        tracer = sim.tracer
        span = _NOOP_SPAN
        if tracer.enabled:
            span = tracer.span("nic.control", cat="net", dst=dst.server.name)
        try:
            yield Timeout(sim, delay)
        finally:
            span.close()
        self.messages_sent += 1
