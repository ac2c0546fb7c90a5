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

A message has no control flow — check the ports, take an engine, wait,
take the next — so it is not a generator but a :class:`Wire`, a
kernel-stepped :class:`~repro.sim.Chain`: :meth:`NicPort.transfer` and
:meth:`NicPort.send_control` return an event to ``yield``, whose stages
the event loop advances with plain calls (DESIGN §10, "Kernel-stepped
chains").  The stage functions at the bottom of this module are the one
body every caller shares: SMB Direct, priming, the loader, and through
:mod:`repro.net.rdma` the one-sided verbs, hence remote files and
exchanges.  Same checks, same counters, same spans (``nic.control``;
``nic.transfer`` › ``nic.xmit``, after ``nic.queue`` when the engine was
busy) and the same virtual times as the generators they replaced, in
fewer kernel events.

Fault hooks (used by :mod:`repro.faults`):

* :meth:`NicPort.fail` / :meth:`NicPort.restore` — the port goes dark
  when its server crashes; the posted verbs against it (they list
  themselves in ``_inflight``) are aborted with ``interrupt()`` and
  complete with :data:`~repro.sim.ABORTED`, and whoever yields a message
  gets :class:`NetworkDown` at its next check.
* :meth:`NicPort.degrade` / :meth:`NicPort.restore_link` — transient
  link degradation: a latency multiplier plus a seeded packet-loss
  probability paid as retransmissions.
"""

from __future__ import annotations

from functools import partial

from ..cluster import Server
from ..sim import Chain, Resource, Simulator
from ..storage import GB

__all__ = ["Network", "NetworkDown", "NicPort", "Wire"]

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

    #: One-way switch propagation delay.
    propagation_us = 1.0

    def __init__(self, sim: Simulator):
        self.sim = sim
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
        #: Spawned verbs against this port (they enter themselves and
        #: leave when they complete), abortable on crash.  Insertion-
        #: ordered so abort order (and hence replay) is deterministic —
        #: a set would iterate in address order.
        self._inflight: dict[Chain, None] = {}

    # -- fault hooks -------------------------------------------------------

    def fail(self) -> None:
        """Port goes dark: abort every tracked in-flight transfer."""
        if not self.alive:
            return
        self.alive = False
        for verb in list(self._inflight):
            verb.interrupt(cause=f"{self.server.name}: NIC down")
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

    def transfer(self, dst: "NicPort", size: int, spawn: str | None = None) -> "Wire":
        """Move ``size`` payload bytes from this port to ``dst``.

        Pipelined: TX engine, propagation, RX engine.  The event's value
        is the total µs.  An engine's service time is computed when its
        slot is *granted*, not when the transfer enqueues: link
        degradation applies to transfers serviced while the link is sick,
        and a backlog queued during a brown-out drains at healthy speed
        once it restores.  Yield the event; ``spawn=name`` runs it as a
        process of its own instead (see :class:`~repro.sim.Chain`).
        """
        return Wire(self.network.sim, TRANSFER, spawn, self, dst, size)

    def send_control(self, dst: "NicPort") -> "Wire":
        """A small control message (request packet, ack, doorbell)."""
        return Wire(self.network.sim, CONTROL, None, None, None, 0, self, dst)


class Wire(Chain):
    """A message on the fabric as a kernel-stepped chain: a payload of
    ``size`` bytes from ``src`` to ``dst``, a control message from
    ``ctl_src`` to ``ctl_dst``, or a one-sided verb made of both against
    ``region`` (:mod:`repro.net.rdma` sets the fields after it and
    supplies those stages).  The stage functions below are shared by all
    three, as the generator ``transfer`` was by every caller.

    One class for all three on purpose: CPython keys its attribute caches
    on the type, and an exchange alternates verbs and control messages —
    as two classes through the same ``Chain._step`` a chain cost a fifth
    more (DESIGN §10).
    """

    __slots__ = ("src", "dst", "size", "ctl_src", "ctl_dst", "started_at", "spans", "engine_span",
                 "region", "qp", "offset", "obj", "nodata", "behind",
                 "epoch", "latency", "posted_at")

    def __init__(
        self,
        sim: Simulator,
        program: tuple,
        spawn: str | None,
        src: NicPort | None,
        dst: NicPort | None,
        size: int | None,
        ctl_src: NicPort | None = None,
        ctl_dst: NicPort | None = None,
        verb: tuple | None = None,
        absorb: tuple = (),
    ):
        self.src = src
        self.dst = dst
        self.size = size
        self.ctl_src = ctl_src
        self.ctl_dst = ctl_dst
        #: Tracing only: the open spans around the stage in progress,
        #: outermost first, and the span of the engine it occupies.
        self.spans = self.engine_span = None
        if sim.tracer.enabled:
            self.spans = []
        if verb is None:
            self.region = None
        else:
            (self.qp, self.region, self.offset, self.obj, self.nodata, self.behind,
             self.latency) = verb
            #: None until posted: there is nothing to take back before that.
            self.epoch = None
            if spawn is not None:
                # Posted: the target port can abort it, a read is timed.
                self.qp.target.nic._inflight[self] = None
                self.posted_at = sim.now
        Chain.__init__(self, sim, program, spawn, absorb)

    def _unwind(self) -> None:
        spans = self.spans
        if spans is not None:
            _close_engine_span(self)
            while spans:
                spans.pop().close()
        if self.region is not None:
            if self.epoch is not None:
                self.region.inflight -= 1  # posted, never reaped
            if self._spawned:
                # Also when a stray error raises out of the first stage
                # into the poster: the verb never completes.
                self.qp.target.nic._inflight.pop(self, None)

    def _finish(self, value) -> None:
        if self.region is not None and self._spawned:
            self.qp.target.nic._inflight.pop(self, None)
            if self.latency is not None:
                self.latency.record(self.sim.now - self.posted_at)
        Chain._finish(self, value)


def _control(wire: Wire) -> float:
    src, dst = wire.ctl_src, wire.ctl_dst
    src._check_alive(dst)
    network = src.network
    delay = (
        src.profile.per_message_us * src.latency_multiplier
        + network.propagation_us
        + src.profile.processing_us
    )
    if wire.spans is not None:
        wire.spans.append(network.sim.tracer.span("nic.control", cat="net", dst=dst.server.name))
    return delay


def _control_sent(wire: Wire) -> None:
    if wire.spans is not None:
        wire.spans.pop().close()
    wire.ctl_src.messages_sent += 1


def _serve_engine(wire: Wire, port: NicPort, engine: Resource) -> float | bool:
    wait = wire.serve(engine, partial(port._engine_time, wire.size))
    if wire.spans is not None:
        name, cat = ("nic.xmit", "net") if wire._hold is None else ("nic.queue", "queue")
        wire.engine_span = port.network.sim.tracer.span(name, cat, engine=engine.name)
    return wait


def _close_engine_span(wire: Wire) -> None:
    """End the span of the engine stage just left; one that queued splits
    into ``nic.queue`` then ``nic.xmit`` at the instant of its grant."""
    span = wire.engine_span
    if span is not None:
        wire.engine_span = None
        if span.name == "nic.queue":
            span = span.split(wire._hold.granted_at, "nic.xmit", "net", **span.args)
        span.close()


def _transmit(wire: Wire) -> float | bool:
    src, dst = wire.src, wire.dst
    src._check_alive(dst)
    sim = src.network.sim
    wire.started_at = sim.now
    if wire.spans is not None:
        wire.spans.append(
            sim.tracer.span(
                "nic.transfer", cat="net", src=src.server.name, dst=dst.server.name,
                size=wire.size,
            )
        )
    return _serve_engine(wire, src, src.tx)


def _propagate(wire: Wire) -> float:
    if wire.spans is not None:
        _close_engine_span(wire)
    src = wire.src
    return src.network.propagation_us + src.profile.processing_us


def _receive(wire: Wire) -> float | bool:
    dst = wire.dst
    wire.src._check_alive(dst)
    return _serve_engine(wire, dst, dst.rx)


def _delivered(wire: Wire) -> None:
    if wire.spans is not None:
        _close_engine_span(wire)
        wire.spans.pop().close()
    src, size = wire.src, wire.size
    src.bytes_sent += size
    src.messages_sent += 1
    wire.dst.bytes_received += size
    wire.result = src.network.sim.now - wire.started_at


#: ``NicPort.send_control`` and ``NicPort.transfer`` as stage programs.
CONTROL = (_control, _control_sent)
TRANSFER = (_transmit, _propagate, _receive, _delivered)
