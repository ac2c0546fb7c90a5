"""The cluster memory broker.

Design mirrors Section 4.2: every memory server runs a proxy that pins
and NIC-registers its unused memory as fixed-size memory regions (MRs)
and reports them to the broker.  A database server with unmet memory
demand asks the broker for leases; the broker picks providers, records
the mapping in the replicated metadata store, and gets out of the data
path — transfers then flow directly between the two servers' NICs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

from ..net.rdma import MemoryRegion
from ..sim import Simulator
from ..sim.kernel import ProcessGenerator
from .lease import Lease, LeaseState
from .metadata import MetadataStore

__all__ = [
    "MemoryBroker",
    "BrokerError",
    "BrokerUnavailable",
    "InsufficientMemory",
    "PlacementHook",
]

#: Pluggable provider-selection hook: called once per MR grant with the
#: requesting holder, the candidate providers that still have unleased
#: MRs (in the broker's default order) and the broker itself; returns
#: the provider to take the next MR from.  Returning ``None`` or a
#: provider with nothing available falls back to the default choice.
PlacementHook = Callable[[str, list, "MemoryBroker"], Optional[str]]


class BrokerError(RuntimeError):
    pass


class InsufficientMemory(BrokerError):
    """Not enough unleased remote memory in the cluster."""


class BrokerUnavailable(BrokerError):
    """The broker process is down (restarting); retry after recovery."""


class MemoryBroker:
    """Tracks available MRs and grants timed, exclusive leases on them."""

    #: Default lease duration (30 simulated seconds).
    DEFAULT_LEASE_US = 30e6

    def __init__(
        self,
        sim: Simulator,
        store: MetadataStore | None = None,
        lease_duration_us: float = DEFAULT_LEASE_US,
    ):
        self.sim = sim
        self.store = store if store is not None else MetadataStore(sim)
        self.lease_duration_us = lease_duration_us
        # Available (unleased) regions per provider server, FIFO.
        self._available: dict[str, deque[MemoryRegion]] = {}
        self._leases: dict[int, Lease] = {}
        #: Callbacks fired when a lease is revoked: holder -> [fn(lease)],
        #: in registration order.
        self._revocation_listeners: dict[str, list[Callable[[Lease], None]]] = {}
        #: Provider-selection hook for non-``spread`` grants.  ``None``
        #: preserves the classic drain-first-provider order bit for bit;
        #: the fleet marketplace installs anti-affinity spreading here.
        self.placement: Optional[PlacementHook] = None
        #: Fault state: all broker RPCs raise BrokerUnavailable while down.
        self.alive = True

    def add_revocation_listener(
        self, holder: str, fn: Callable[[Lease], None]
    ) -> Callable[[Lease], None]:
        """Register ``fn`` to observe ``holder``'s revocations.

        Every listener of a holder fires, in registration order;
        registering the same callable twice is a no-op.
        """
        listeners = self._revocation_listeners.setdefault(holder, [])
        if fn not in listeners:
            listeners.append(fn)
        return fn

    # -- fault hooks -------------------------------------------------------

    def _require_up(self) -> None:
        if not self.alive:
            raise BrokerUnavailable("broker is down")

    def fail(self) -> None:
        """Crash the broker process: volatile state stays frozen, every
        RPC fails until :meth:`recover` replays the metadata store."""
        self.alive = False

    def recover(self, replay: bool = True) -> ProcessGenerator:
        """Elect a new broker and rebuild its state (paper Section 4.2).

        With ``replay=True`` the lease table is reconstructed from the
        replicated metadata store, so leases survive the restart; with
        ``replay=False`` the metadata was lost too and every active
        lease is terminated as REVOKED.  Returns the surviving leases.
        """
        keys = yield from self.store.keys("leases/")
        recorded = {key.rsplit("/", 1)[-1] for key in keys}
        survivors: list[Lease] = []
        self.alive = True
        for lease in list(self._leases.values()):
            if lease.state is not LeaseState.ACTIVE:
                continue
            if replay and str(lease.lease_id) in recorded:
                survivors.append(lease)
            else:
                yield from self._terminate(lease, LeaseState.REVOKED)
        # Sweep anything that expired while the broker was down.
        self.check_expiry()
        return [lease for lease in survivors if lease.state is LeaseState.ACTIVE]

    def fail_provider(self, provider: str) -> ProcessGenerator:
        """A memory server crashed: its regions are gone, not reusable.

        Unleased MRs of the provider are forgotten (the memory they
        pinned no longer exists) and every active lease on the provider
        is revoked with listener notification.  Returns the revoked
        leases so injectors/monitors can account the damage.
        """
        for region in self._available.pop(provider, ()):  # regions lost
            yield from self.store.delete(f"regions/{provider}/{region.mr_id}")
        revoked: list[Lease] = []
        for lease in self.leases_for(provider=provider):
            lease.state = LeaseState.REVOKED
            lease.region.clear()
            self._leases.pop(lease.lease_id, None)
            yield from self.store.delete(f"leases/{lease.lease_id}")
            self._notify(lease)
            revoked.append(lease)
        return revoked

    def force_expire(self, leases: Iterable[Lease]) -> list[Lease]:
        """Expire ``leases`` immediately (lease-expiry storm injection)."""
        for lease in leases:
            if lease.state is LeaseState.ACTIVE:
                lease.expires_at_us = self.sim.now
        return self.check_expiry()

    # -- provider side ----------------------------------------------------

    def leases_for(
        self, provider: str | None = None, holder: str | None = None
    ) -> list[Lease]:
        """Active leases filtered by provider and/or holder, id-ordered."""
        return [
            lease
            for lease_id, lease in sorted(self._leases.items())
            if lease.state is LeaseState.ACTIVE
            and (provider is None or lease.provider == provider)
            and (holder is None or lease.holder == holder)
        ]

    def register_region(self, region: MemoryRegion) -> ProcessGenerator:
        """A memory proxy offers a pinned, registered MR to the cluster."""
        with self.sim.tracer.span(
            "broker.register_region", cat="rpc", provider=region.server.name
        ):
            self._require_up()
            if not region.registered:
                raise BrokerError("only NIC-registered regions can be brokered")
            self._available.setdefault(region.server.name, deque()).append(region)
            yield from self.store.put(
                f"regions/{region.server.name}/{region.mr_id}", region.size
            )
            return region

    def withdraw_region(self, provider: str) -> ProcessGenerator:
        """Remove one unleased MR of ``provider`` (local memory pressure).

        Returns the region, or ``None`` if every MR of the provider is
        currently leased — in that case the proxy may escalate with
        :meth:`revoke_one`.
        """
        self._require_up()
        queue = self._available.get(provider)
        if not queue:
            return None
        region = queue.pop()
        yield from self.store.delete(f"regions/{provider}/{region.mr_id}")
        return region

    def revoke_one(self, provider: str) -> ProcessGenerator:
        """Forcibly revoke the oldest lease on ``provider`` (pressure path)."""
        self._require_up()
        victim: Optional[Lease] = None
        for lease in self._leases.values():
            if lease.provider == provider and lease.state is LeaseState.ACTIVE:
                if victim is None or lease.expires_at_us < victim.expires_at_us:
                    victim = lease
        if victim is None:
            return None
        yield from self._terminate(victim, LeaseState.REVOKED)
        return victim

    # -- consumer side ----------------------------------------------------

    def available_regions(self, provider: str | None = None) -> list[MemoryRegion]:
        """Unleased regions, in grant (FIFO) order, optionally per provider."""
        if provider is not None:
            return list(self._available.get(provider, ()))
        return [r for name in sorted(self._available) for r in self._available[name]]

    def available_bytes(self, provider: str | None = None) -> int:
        if provider is not None:
            return sum(r.size for r in self._available.get(provider, ()))
        return sum(r.size for q in self._available.values() for r in q)

    def acquire(
        self,
        holder: str,
        bytes_needed: int,
        providers: Iterable[str] | None = None,
        spread: bool = False,
        avoid: Iterable[str] = (),
    ) -> ProcessGenerator:
        """Lease MRs totalling at least ``bytes_needed``.

        ``providers`` restricts the candidate memory servers; ``spread``
        round-robins across providers instead of draining one at a time
        (used by the multi-memory-server experiments, Figures 5 and 12b).
        ``avoid`` names providers to steer clear of (e.g. quarantined by
        a circuit breaker) — honoured only while the remaining providers
        can still cover the request, so availability beats purity.
        """
        with self.sim.tracer.span(
            "broker.acquire", cat="rpc", holder=holder, bytes=bytes_needed
        ):
            return (
                yield from self._acquire(holder, bytes_needed, providers, spread, avoid)
            )

    def _acquire(
        self,
        holder: str,
        bytes_needed: int,
        providers: Iterable[str] | None = None,
        spread: bool = False,
        avoid: Iterable[str] = (),
    ) -> ProcessGenerator:
        self._require_up()
        candidates = list(providers) if providers is not None else sorted(self._available)
        candidates = [c for c in candidates if self._available.get(c)]
        shunned = set(avoid)
        if shunned:
            preferred = [c for c in candidates if c not in shunned]
            if sum(self.available_bytes(c) for c in preferred) >= bytes_needed:
                candidates = preferred
        if self.available_bytes() < bytes_needed or not candidates:
            if sum(self.available_bytes(c) for c in candidates) < bytes_needed:
                raise InsufficientMemory(
                    f"{holder} wants {bytes_needed} bytes; cluster has "
                    f"{self.available_bytes()} available"
                )
        leases: list[Lease] = []
        granted = 0
        cursor = 0
        while granted < bytes_needed:
            if spread:
                tried = 0
                while tried < len(candidates) and not self._available.get(
                    candidates[cursor % len(candidates)]
                ):
                    cursor += 1
                    tried += 1
                provider = candidates[cursor % len(candidates)]
                cursor += 1
            else:
                live = [c for c in candidates if self._available.get(c)]
                provider = None
                if self.placement is not None and live:
                    provider = self.placement(holder, live, self)
                    if provider is not None and not self._available.get(provider):
                        provider = None  # hook picked an empty/unknown provider
                if provider is None:
                    provider = live[0] if live else None
            if provider is None or not self._available.get(provider):
                # Give back what we took: all-or-nothing semantics.
                for lease in leases:
                    yield from self._terminate(lease, LeaseState.RELEASED)
                raise InsufficientMemory(
                    f"{holder}: ran out of providers at {granted}/{bytes_needed} bytes"
                )
            region = self._available[provider].popleft()
            lease = Lease(
                region=region,
                holder=holder,
                expires_at_us=self.sim.now + self.lease_duration_us,
                duration_us=self.lease_duration_us,
            )
            self._leases[lease.lease_id] = lease
            yield from self.store.put(
                f"leases/{lease.lease_id}",
                {"holder": holder, "provider": provider, "size": region.size},
            )
            leases.append(lease)
            granted += region.size
        return leases

    def renew(self, lease: Lease) -> ProcessGenerator:
        """Extend the lease; returns False if it can no longer be renewed."""
        with self.sim.tracer.span("broker.renew", cat="rpc", lease=lease.lease_id):
            self._require_up()
            if lease.state is not LeaseState.ACTIVE or self.sim.now >= lease.expires_at_us:
                self._expire_if_needed(lease)
                return False
            yield from self.store.put(
                f"leases/{lease.lease_id}", {"renewed_at": self.sim.now}
            )
            lease.expires_at_us = self.sim.now + lease.duration_us
            return True

    def release(self, lease: Lease) -> ProcessGenerator:
        """Voluntary release: the MR returns to the available pool."""
        with self.sim.tracer.span("broker.release", cat="rpc", lease=lease.lease_id):
            self._require_up()
            if lease.state is LeaseState.ACTIVE:
                yield from self._terminate(lease, LeaseState.RELEASED)

    def check_expiry(self) -> list[Lease]:
        """Mark overdue leases expired; returns the newly-expired ones.

        No-op while the broker is down: expiry is enforced by the broker
        process, so a dead broker simply stops sweeping until recovery.
        """
        if not self.alive:
            return []
        expired = []
        for lease in list(self._leases.values()):
            if lease.state is LeaseState.ACTIVE and self.sim.now >= lease.expires_at_us:
                self._expire_if_needed(lease)
                expired.append(lease)
        return expired

    def expiry_daemon(self, period_us: float = 1e6) -> ProcessGenerator:
        """Spawn with ``sim.spawn`` to sweep for expired leases."""
        while True:
            yield self.sim.timeout(period_us)
            self.check_expiry()

    # -- internals ---------------------------------------------------------

    def _expire_if_needed(self, lease: Lease) -> None:
        if lease.state is LeaseState.ACTIVE and self.sim.now >= lease.expires_at_us:
            lease.state = LeaseState.EXPIRED
            lease.region.clear()
            self._available.setdefault(lease.provider, deque()).append(lease.region)
            del self._leases[lease.lease_id]
            self._notify(lease)

    def _terminate(self, lease: Lease, state: LeaseState) -> ProcessGenerator:
        lease.state = state
        lease.region.clear()
        self._available.setdefault(lease.provider, deque()).append(lease.region)
        self._leases.pop(lease.lease_id, None)
        yield from self.store.delete(f"leases/{lease.lease_id}")
        if state is LeaseState.REVOKED:
            self._notify(lease)

    def _notify(self, lease: Lease) -> None:
        for listener in tuple(self._revocation_listeners.get(lease.holder, ())):
            listener(lease)

    @property
    def active_leases(self) -> list[Lease]:
        return [
            lease for lease in self._leases.values() if lease.state is LeaseState.ACTIVE
        ]
