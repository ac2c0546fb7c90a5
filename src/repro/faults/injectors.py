"""Fault injectors: turn :class:`FaultSpec`s into layer-hook calls.

Each injector touches the system only through the public fault hooks
added for this subsystem — ``Server.fail()/restore()``,
``NicPort.degrade()/restore_link()``, ``MemoryProxy.crash()``,
``MemoryBroker.fail_provider()/force_expire()/fail()/recover()`` and
``BufferPoolExtension.on_fault()`` — never through another layer's
private state.  The :class:`FaultEngine` schedules specs in virtual
time, dispatches them to the right injector and reports every event to
an optional monitor (see :mod:`repro.faults.recovery`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..sim.kernel import Process, ProcessGenerator, Simulator
from .schedule import FaultKind, FaultPlan, FaultSpec

__all__ = [
    "FaultEngine",
    "Injector",
    "MemoryServerCrashInjector",
    "LinkDegradationInjector",
    "LeaseExpiryStormInjector",
    "BrokerRestartInjector",
]


class Injector:
    """Base class: ``inject``/``restore`` are ``yield from``-able."""

    kind: FaultKind

    def __init__(self, engine: "FaultEngine"):
        self.engine = engine

    def inject(self, spec: FaultSpec) -> ProcessGenerator:
        raise NotImplementedError
        yield  # pragma: no cover

    def restore(self, spec: FaultSpec) -> ProcessGenerator:
        raise NotImplementedError
        yield  # pragma: no cover


class MemoryServerCrashInjector(Injector):
    """Kill a memory server; optionally resurrect it later.

    Injection order matters and mirrors what a real crash looks like
    from the DB server:

    1. ``Server.fail()`` — NIC goes dark, every tracked in-flight RDMA
       transfer is interrupted mid-wire;
    2. ``MemoryProxy.crash()`` — the pinned MRs evaporate;
    3. ``MemoryBroker.fail_provider()`` — leases on the provider are
       revoked (holders are notified), its spare regions forgotten;
    4. ``BufferPoolExtension.on_fault(provider)`` on every extension
       the engine sweeps — parked clean pages on the dead server become
       invalid and will re-fault from the base file.

    Restoration brings the server back up and re-offers its memory to
    the broker; re-acquiring leases for the BPExt is left to the
    engine's ``on_provider_restored`` callback (benchmarks wire this to
    :func:`repro.harness.rebuild_extension`).
    """

    kind = FaultKind.MEMORY_SERVER_CRASH

    def inject(self, spec: FaultSpec) -> ProcessGenerator:
        engine = self.engine
        server = engine.server(spec.target)
        server.fail()
        proxy = engine.proxies.get(spec.target)
        if proxy is not None:
            # Remember how much was brokered so restoration re-offers the
            # same amount instead of pinning the whole (huge) server.
            spec.params.setdefault("offer_bytes", proxy.offered_bytes)
            proxy.crash()
        revoked = []
        if engine.broker is not None:
            revoked = yield from engine.broker.fail_provider(spec.target)
        pages_lost = sum(
            len(extension.on_fault(provider=spec.target))
            for extension in engine.extensions
        )
        return {"revoked_leases": len(revoked), "pages_lost": pages_lost}

    def restore(self, spec: FaultSpec) -> ProcessGenerator:
        engine = self.engine
        server = engine.server(spec.target)
        server.restore()
        proxy = engine.proxies.get(spec.target)
        regions = []
        if proxy is not None:
            regions = yield from proxy.offer_available(
                limit_bytes=spec.params.get("offer_bytes")
            )
        if engine.on_provider_restored is not None:
            result = engine.on_provider_restored(spec.target)
            if result is not None:  # allow plain callables or generators
                yield from result
        return {"regions_reoffered": len(regions)}


class LinkDegradationInjector(Injector):
    """Make a server's links slow and lossy for a while.

    Applies a latency multiplier plus seeded packet loss (paid as
    bounded retransmissions) to the target's RDMA NIC, and the latency
    multiplier to its TCP endpoint if it has one.
    """

    kind = FaultKind.LINK_DEGRADATION

    def inject(self, spec: FaultSpec) -> ProcessGenerator:
        engine = self.engine
        server = engine.server(spec.target)
        multiplier = float(spec.params.get("latency_multiplier", 1.0))
        drop = float(spec.params.get("drop_probability", 0.0))
        server.nic.degrade(
            latency_multiplier=multiplier,
            drop_probability=drop,
            rng=engine.rng if drop > 0 else None,
        )
        if server.tcp is not None:
            server.tcp.degrade(latency_multiplier=multiplier)
        return {"latency_multiplier": multiplier, "drop_probability": drop}
        yield  # pragma: no cover -- instantaneous, but keeps the generator shape

    def restore(self, spec: FaultSpec) -> ProcessGenerator:
        server = self.engine.server(spec.target)
        server.nic.restore_link()
        if server.tcp is not None:
            server.tcp.restore_link()
        return {}
        yield  # pragma: no cover


class LeaseExpiryStormInjector(Injector):
    """Force-expire a seeded random subset of active leases at once.

    The subset is drawn from the engine's seeded stream over the
    broker's id-ordered active-lease list, so the same plan and seed
    expire the same leases every run.  One-shot: there is nothing to
    restore — holders re-acquire through their normal path.
    """

    kind = FaultKind.LEASE_EXPIRY_STORM

    def inject(self, spec: FaultSpec) -> ProcessGenerator:
        broker = self.engine.broker
        if broker is None:
            return {"expired_leases": 0}
        provider = spec.target or None
        leases = broker.leases_for(provider=provider)
        fraction = float(spec.params.get("fraction", 1.0))
        count = min(len(leases), max(1, round(fraction * len(leases)))) if leases else 0
        if count == 0:
            return {"expired_leases": 0}
        indices = sorted(
            int(i) for i in self.engine.rng.choice(len(leases), size=count, replace=False)
        )
        expired = broker.force_expire([leases[i] for i in indices])
        return {"expired_leases": len(expired)}
        yield  # pragma: no cover

    def restore(self, spec: FaultSpec) -> ProcessGenerator:
        return {}
        yield  # pragma: no cover


class BrokerRestartInjector(Injector):
    """Crash the broker; on restore, re-elect and replay metadata.

    With ``replay=True`` (default) active leases survive the restart via
    the replicated metadata store (paper Section 4.2); with
    ``replay=False`` the state is lost and every lease is revoked.
    """

    kind = FaultKind.BROKER_RESTART

    def inject(self, spec: FaultSpec) -> ProcessGenerator:
        if self.engine.broker is not None:
            self.engine.broker.fail()
        return {}
        yield  # pragma: no cover

    def restore(self, spec: FaultSpec) -> ProcessGenerator:
        broker = self.engine.broker
        if broker is None:
            return {}
        survivors = yield from broker.recover(replay=bool(spec.params.get("replay", True)))
        return {"surviving_leases": len(survivors)}


class FaultEngine:
    """Schedules a :class:`FaultPlan` against a live simulation.

    Holds references to the *public* fault surface of each layer and a
    seeded RNG for the draws injectors need at fire time (storm subset
    selection, packet-loss draws).  Construct directly from components
    or via :meth:`for_setup` from any topology.
    """

    def __init__(
        self,
        sim: Simulator,
        servers: dict[str, Any],
        broker: Any = None,
        proxies: Optional[dict[str, Any]] = None,
        extensions: Sequence[Any] = (),
        monitor: Any = None,
        rng: Optional[np.random.Generator] = None,
        on_provider_restored: Optional[Callable[[str], Any]] = None,
    ):
        self.sim = sim
        self.servers = servers
        self.broker = broker
        self.proxies = proxies or {}
        #: Buffer-pool extensions a crash sweeps, in this order.
        self.extensions = list(extensions)
        self.monitor = monitor
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Called with the provider name after a crashed server is
        #: restored; may return a generator to run in sim time (e.g.
        #: ``lambda _: rebuild_extension(setup)``).
        self.on_provider_restored = on_provider_restored
        self.injectors: dict[FaultKind, Injector] = {
            cls.kind: cls(self)
            for cls in (
                MemoryServerCrashInjector,
                LinkDegradationInjector,
                LeaseExpiryStormInjector,
                BrokerRestartInjector,
            )
        }
        self.faults_fired = 0

    @classmethod
    def for_setup(
        cls,
        setup: Any,
        monitor: Any = None,
        rng: Optional[np.random.Generator] = None,
        on_provider_restored: Optional[Callable[[str], Any]] = None,
    ) -> "FaultEngine":
        """Build an engine aimed at a ``DbSetup``, ``DistSetup`` or ``FleetSetup``.

        Every setup exposes ``sim``, ``cluster``, ``broker``, ``proxies``
        and ``databases``; a crash sweeps the extension of each database
        that has one, in ``databases`` order.
        """
        if rng is None:
            rng = setup.cluster.rng.stream("faults")
        return cls(
            sim=setup.sim,
            servers=dict(setup.cluster.servers),
            broker=setup.broker,
            proxies=setup.proxies,
            extensions=[
                database.pool.extension
                for database in setup.databases
                if database.pool.extension is not None
            ],
            monitor=monitor,
            rng=rng,
            on_provider_restored=on_provider_restored,
        )

    def server(self, name: str) -> Any:
        try:
            return self.servers[name]
        except KeyError:
            raise KeyError(
                f"fault target {name!r} is not a known server "
                f"(have {sorted(self.servers)})"
            ) from None

    # -- execution ---------------------------------------------------------

    def fire(self, spec: FaultSpec) -> ProcessGenerator:
        """Inject one fault now; schedules its restoration if timed."""
        injector = self.injectors[spec.kind]
        if self.monitor is not None:
            self.monitor.fault_injected(spec)
        details = yield from injector.inject(spec)
        self.faults_fired += 1
        if self.monitor is not None:
            self.monitor.fault_active(spec, details or {})
        if spec.restore_at_us is not None:
            self.sim.spawn(self._restore_later(spec), name=f"restore:{spec.kind.value}")
        return details

    def _restore_later(self, spec: FaultSpec) -> ProcessGenerator:
        yield self.sim.timeout(spec.duration_us)
        details = yield from self.injectors[spec.kind].restore(spec)
        if self.monitor is not None:
            self.monitor.fault_restored(spec, details or {})

    def run_plan(self, plan: FaultPlan) -> Process:
        """Spawn a driver process that replays ``plan`` in virtual time."""
        return self.sim.spawn(self._driver(plan), name="fault-plan")

    def _driver(self, plan: FaultPlan) -> ProcessGenerator:
        for spec in plan.sorted_specs():
            delay = spec.at_us - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            yield from self.fire(spec)
