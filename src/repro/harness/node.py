"""One database node and one memory pool: how a set-up is assembled.

Every topology here is one shape repeated: DB servers with an HDD
array and an SSD whose buffer pools extend, through the lightweight
file API, into remote memory that memory servers lease out through one
broker.  :class:`Topology` owns the cluster and that pool;
:class:`Node` assembles one DB server.  ``build_database`` (one node),
``build_dist`` (N nodes over an exchange fabric), ``build_fleet``
(tenant replicas over one marketplace pool), the I/O targets and the
Figure-25 benchmark compose them.

A caller passes what differs between topologies (server name, cores,
memory, spindles, HDD rng stream, staging schedulers, access policy,
reliability layer, file naming, spread) and keeps its own *order* of
simulated bootstrap steps — what runs inside which process fixes
absolute virtual time.  Which store class backs which tier, which file
id it gets and how the stores become an extension and a
:class:`~repro.engine.Database` is decided here.  How large the pool
is and when it offers its memory stay with the callers: creating
servers, proxies or a broker schedules no event, offering does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..broker import MemoryBroker, MemoryProxy
from ..cluster import Cluster, Server
from ..engine import (
    BufferPoolExtension,
    Database,
    DevicePageFile,
    PageStore,
    RemotePageFile,
)
from ..engine.page import PAGE_SIZE
from ..net import Network, SmbFileServer
from ..reliability import ReliabilityLayer
from ..remotefile import AccessPolicy, RemoteMemoryFilesystem, StagingPool
from ..sim.kernel import ProcessGenerator, Simulator
from ..storage import GB, Raid0Array, SsdDevice
from ..telemetry import MetricsRegistry
from ..tiers import ResolvedTier, Tier, TierPlan

__all__ = [
    "SEMCACHE_FILE_ID", "Node", "Topology", "open_remote_store", "rebuild_remote_level",
]

#: File ids reserved for engine-internal files.  Extension tiers are
#: spaced ten apart so multi-tier stacks never collide with TempDB.
BPEXT_FILE_ID = 900
TEMPDB_FILE_ID = 901
SEMCACHE_FILE_ID = 950


def open_remote_store(
    fs: RemoteMemoryFilesystem, file_id: int, name: str, pages: int, spread: bool = False
) -> ProcessGenerator:
    """``yield from``-able: lease, create and open a remote file of
    ``pages`` pages; returns the :class:`~repro.engine.RemotePageFile`."""
    file = yield from fs.create(name, pages * PAGE_SIZE, spread=spread)
    yield from file.open()
    return RemotePageFile(file_id, file, capacity_pages=pages)


def rebuild_remote_level(
    fs: RemoteMemoryFilesystem,
    extension: BufferPoolExtension,
    level: Tier,
    name: str,
    pages: int,
    spread: bool = False,
) -> ProcessGenerator:
    """Point ``level`` at a freshly leased remote file of ``pages`` pages.

    ``yield from``-able; shared by post-crash recovery
    (:func:`~repro.harness.rebuild_extension`) and fleet resizes.  The
    level restarts empty and re-warms as clean pages are evicted into
    it.  Releasing the old file is the caller's move: recovery drops it
    afterwards, a resize must relinquish it *first* so reclaim can never
    deadlock on a full pool.  Returns the new store.
    """
    store = yield from open_remote_store(fs, level.store.file_id, name, pages, spread)
    extension.replace_store(level, store)
    return store


@dataclass(kw_only=True)
class Topology:
    """A cluster and its memory pool: memory servers whose proxies lease
    spare DRAM through one broker.

    Every set-up (``DbSetup``, ``DistSetup``, ``FleetSetup``,
    ``IoTarget``) is one.  Designs that reach remote memory over SMB
    have memory servers but no proxies, and ``broker is None``.
    """

    cluster: Cluster
    network: Network
    memory_servers: list[Server] = field(default_factory=list)
    broker: Optional[MemoryBroker] = None
    #: Memory-brokering proxies by server name, in ``memory_servers`` order.
    proxies: dict[str, MemoryProxy] = field(default_factory=dict)
    #: Every instrument in the set-up adopted into one registry.
    metrics: Optional[MetricsRegistry] = None

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    def run(self, generator):
        return self.sim.run_until_complete(self.sim.spawn(generator))

    def add_memory_servers(
        self, count: int, *, memory_bytes: int, mr_bytes: Optional[int]
    ) -> None:
        """Add ``count`` memory servers ``mem{i}`` on the network, each
        with a :class:`~repro.broker.MemoryProxy` carving ``mr_bytes``
        regions for the broker (created here unless the caller brought
        one).  ``mr_bytes=None`` adds the servers only (SMB designs)."""
        if mr_bytes is not None and self.broker is None:
            self.broker = MemoryBroker(self.sim)
        for index in range(count):
            server = self.cluster.add_server(f"mem{index}", memory_bytes=memory_bytes)
            self.network.attach(server)
            self.memory_servers.append(server)
            if mr_bytes is not None:
                self.proxies[server.name] = MemoryProxy(
                    server, self.broker, mr_bytes=mr_bytes
                )

    def offer_memory(self, limit_bytes: Optional[int]) -> ProcessGenerator:
        """``yield from``-able: every proxy, in order, offers up to
        ``limit_bytes`` (``None``: all its spare memory) to the broker.
        Returns the regions offered."""
        regions = []
        for proxy in self.proxies.values():
            regions += yield from proxy.offer_available(limit_bytes=limit_bytes)
        return regions


class Node:
    """One DB server under assembly: hardware now, stores and engine later."""

    def __init__(
        self,
        cluster: Cluster,
        network: Network,
        name: str,
        *,
        cores: int,
        memory_bytes: int,
        spindles: int,
        hdd_stream: str,
    ):
        sim = cluster.sim
        self.server: Server = cluster.add_server(
            name, cores=cores, memory_bytes=memory_bytes
        )
        network.attach(self.server)
        self.media = {
            "hdd": self.server.attach_device(
                "hdd",
                Raid0Array(sim, spindles=spindles, rng=cluster.rng.stream(hdd_stream)),
            ),
            "ssd": self.server.attach_device("ssd", SsdDevice(sim)),
        }
        #: NDSPI transport: set by :meth:`attach_remote_fs`.
        self.fs: Optional[RemoteMemoryFilesystem] = None
        #: SMB transport: ``(file_server, client_cls)``, set by :meth:`attach_smb`.
        self._smb: Optional[tuple] = None
        #: Remote files opened by :meth:`open_remote_stores`, by store name.
        self._opened: dict[str, PageStore] = {}

    def attach_remote_fs(
        self,
        broker: MemoryBroker,
        *,
        schedulers: int,
        policy: AccessPolicy,
        reliability: Optional[ReliabilityLayer] = None,
    ) -> RemoteMemoryFilesystem:
        """Give the node its lightweight-file-API endpoint (NDSPI plans)."""
        self.fs = RemoteMemoryFilesystem(
            self.server, broker, StagingPool(self.server, schedulers=schedulers),
            policy=policy, reliability=reliability,
        )
        return self.fs

    def attach_smb(self, file_server: SmbFileServer, client_cls: type) -> None:
        """Remote stores live on ``file_server``'s RamDrive behind
        ``client_cls`` (SMB or SMB Direct); every store gets its own client."""
        self._smb = (file_server, client_cls)

    def open_remote_stores(
        self, plan: TierPlan, *, file_name: Callable[[str], str], spread: bool
    ) -> ProcessGenerator:
        """``yield from``-able: lease and open a remote file for every
        store the plan places in remote memory (extension tiers in
        order, then TempDB).  ``file_name`` maps a store's name (the
        tier name, or ``"tempdb"``) to its file name."""
        for index, tier in enumerate(plan.extension):
            if tier.medium == "remote":
                self._opened[tier.name] = yield from open_remote_store(
                    self.fs, BPEXT_FILE_ID + 10 * index, file_name(tier.name),
                    tier.capacity_pages, spread,
                )
        if plan.tempdb.medium == "remote" and plan.tempdb.capacity_pages:
            self._opened["tempdb"] = yield from open_remote_store(
                self.fs, TEMPDB_FILE_ID, file_name("tempdb"),
                plan.tempdb.capacity_pages, spread,
            )

    def _store(self, file_id: int, tier: ResolvedTier, linear: bool = False) -> PageStore:
        store = self._opened.pop(tier.name, None)
        if store is not None:
            return store
        if tier.medium == "remote":
            if self._smb is None:
                raise ValueError(
                    f"remote store {tier.name!r} was neither opened over NDSPI"
                    " nor given an SMB file server"
                )
            # The remote RamDrive is an ordinary data file behind the client.
            file_server, client_cls = self._smb
            return DevicePageFile(
                file_id, self.server, client_cls(self.server, file_server),
                capacity_pages=tier.capacity_pages, chunk_pages=None,
            )
        # Linear files are preallocated contiguously, away from the data files.
        layout = {"base_offset": 512 * GB, "chunk_pages": None} if linear else {}
        return DevicePageFile(
            file_id, self.server, self.media[tier.medium],
            capacity_pages=tier.capacity_pages, **layout,
        )

    def build_database(
        self,
        plan: TierPlan,
        *,
        bp_pages: int,
        workspace_bytes: Optional[int] = None,
    ) -> Database:
        """Walk the plan: one store per extension tier, TempDB and the log
        on their media, and the engine over them.  A plan with no
        extension tier builds no extension; a zero-page TempDB is no
        TempDB."""
        tiers = [
            Tier(
                name=tier.name, store=self._store(BPEXT_FILE_ID + 10 * index, tier),
                medium=tier.medium, promote_on_hit=tier.promote_on_hit,
            )
            for index, tier in enumerate(plan.extension)
        ]
        tempdb = (
            self._store(TEMPDB_FILE_ID, plan.tempdb, linear=True)
            if plan.tempdb.capacity_pages else None
        )
        return Database(
            self.server,
            bp_pages=bp_pages,
            data_device=self.media["hdd"],
            log_device=self.media[plan.wal.medium],
            extension=BufferPoolExtension(tiers) if tiers else None,
            tempdb_store=tempdb,
            workspace_bytes=workspace_bytes,
        )
