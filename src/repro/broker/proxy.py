"""Memory brokering proxy: runs on every server with spare memory.

The proxy (Section 4.2, Figure 1):

* determines memory not committed to local processes,
* carves it into fixed-size MRs, pins them, registers them with the
  local NIC and reports them to the broker,
* subscribes to OS memory-pressure notifications, and on pressure
  withdraws MRs from the broker (forcing lease revocation if every MR
  is leased) so local processes are never paged out.
"""

from __future__ import annotations

from ..cluster import Server
from ..net.rdma import MemoryRegion, RdmaRegistrar
from ..sim.kernel import ProcessGenerator
from ..storage import MB
from .broker import MemoryBroker

__all__ = ["MemoryProxy", "DEFAULT_MR_BYTES"]

#: Fixed MR granularity ("configurable fixed-sized memory regions").
DEFAULT_MR_BYTES = 16 * MB


class MemoryProxy:
    """One server's brokering agent."""

    def __init__(
        self,
        server: Server,
        broker: MemoryBroker,
        mr_bytes: int = DEFAULT_MR_BYTES,
        reserve_bytes: int = 0,
    ):
        self.server = server
        self.broker = broker
        self.mr_bytes = mr_bytes
        #: Memory the proxy never offers (headroom for local spikes).
        self.reserve_bytes = reserve_bytes
        self.registrar = RdmaRegistrar(server)
        self.offered: list[MemoryRegion] = []
        #: What the proxy had brokered when its host crashed, owed
        #: back to the cluster by :meth:`reoffer`.
        self.crashed_offer_bytes = 0

    @property
    def offered_bytes(self) -> int:
        return sum(region.size for region in self.offered)

    def ping(self, initiator: Server) -> ProcessGenerator:
        """Liveness probe: control round trip plus a sliver of proxy CPU.

        Used by the reliability layer to test a quarantined provider
        before re-admitting it.  Raises :class:`NetworkDown` when either
        endpoint is dark, like any other traffic.
        """
        yield initiator.nic.send_control(self.server.nic)
        yield from self.server.cpu.compute(1.0)
        yield self.server.nic.send_control(initiator.nic)
        return True

    def offer_available(self, limit_bytes: int | None = None) -> ProcessGenerator:
        """Pin, register and broker all (or up to ``limit_bytes``) spare memory."""
        spare = self.server.memory_available - self.reserve_bytes
        if limit_bytes is not None:
            spare = min(spare, limit_bytes)
        count = spare // self.mr_bytes
        regions = []
        for _ in range(int(count)):
            region = yield from self.registrar.register(self.mr_bytes)
            yield from self.broker.register_region(region)
            self.offered.append(region)
            regions.append(region)
        return regions

    def crash(self) -> None:
        """The host server crashed: every pinned MR is gone.

        Instantaneous (the server is dead — nobody pays CPU for it):
        registration state is wiped and the pinned memory is returned to
        the (now empty) server so a later :meth:`offer_available` after
        :meth:`repro.cluster.Server.restore` can re-pin from scratch.
        The broker learns about the crash separately through
        :meth:`~repro.broker.MemoryBroker.fail_provider`.
        """
        self.crashed_offer_bytes += self.offered_bytes
        for region in self.offered:
            self.registrar.regions.pop(region.mr_id, None)
            region.registered = False
            region.clear()
            self.server.release_memory(region.size)
        self.offered.clear()

    def reoffer(self) -> ProcessGenerator:
        """The host is back: broker what it had offered when it crashed
        (not the whole, now empty, server).  Returns the regions."""
        limit, self.crashed_offer_bytes = self.crashed_offer_bytes, 0
        return (yield from self.offer_available(limit_bytes=limit))

    def handle_memory_pressure(self, bytes_needed: int) -> ProcessGenerator:
        """OS pressure notification: withdraw MRs until demand is met.

        Prefers unleased MRs; revokes leases only if necessary.  Returns
        the number of bytes returned to the OS.
        """
        reclaimed = 0
        while reclaimed < bytes_needed and self.offered:
            region = yield from self.broker.withdraw_region(self.server.name)
            if region is None:
                lease = yield from self.broker.revoke_one(self.server.name)
                if lease is None:
                    break
                region = yield from self.broker.withdraw_region(self.server.name)
                if region is None:
                    break
            # Revocation legitimately races in-flight reads from lease
            # holders: doom them (they fail with RdmaError on resume)
            # rather than let them touch freed memory.
            yield from self.registrar.deregister(region, force=True)
            self.offered.remove(region)
            reclaimed += region.size
        return reclaimed

    def pressure_monitor(
        self, period_us: float = 1e6, watermark_bytes: int = 0
    ) -> ProcessGenerator:
        """Daemon: keep at least ``watermark_bytes`` free for local use."""
        while True:
            yield self.server.sim.timeout(period_us)
            shortfall = watermark_bytes - self.server.memory_available
            if shortfall > 0:
                yield from self.handle_memory_pressure(shortfall)
