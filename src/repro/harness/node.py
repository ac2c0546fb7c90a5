"""One database node: how a :class:`~repro.tiers.TierPlan` becomes an engine.

Every topology here is one shape repeated: a DB server with an HDD
array and an SSD whose buffer pool extends, through the lightweight
file API, into brokered remote memory.  This module assembles that
shape once; ``build_database`` (one node), ``build_dist`` (N nodes over
an exchange fabric), ``build_fleet`` (tenant replicas over one
marketplace pool) and the Figure-25 benchmark compose it.

A caller passes what differs between topologies (server name, cores,
memory, spindles, HDD rng stream, staging schedulers, access policy,
reliability layer, file naming, spread) and keeps its own *order* of
simulated bootstrap steps — what runs inside which process fixes
absolute virtual time.  Which store class backs which tier, which file
id it gets and how the stores become an extension and a
:class:`~repro.engine.Database` is decided here.  Memory servers,
broker and proxies are the *pool*, not the node, and stay with the
callers, which size and order them differently.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..broker import MemoryBroker
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
from ..sim.kernel import ProcessGenerator
from ..storage import GB, Raid0Array, SsdDevice
from ..tiers import ResolvedTier, Tier, TierPlan

__all__ = ["SEMCACHE_FILE_ID", "Node", "open_remote_store", "rebuild_remote_level"]

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
                medium=tier.medium, latency_class=tier.latency_class,
                promote_on_hit=tier.promote_on_hit,
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
