"""Build a full engine instance from a declarative tier spec.

``build_database`` assembles the cluster (DB server + memory servers),
the storage devices, the remote-memory machinery for the plans that
need it, and a :class:`~repro.engine.Database` wired to the right media
for BPExt and TempDB.  Workload modules then load tables into it.

The builder never branches on design names: a :class:`~repro.harness.Design`
is looked up in :data:`~repro.harness.TIER_SPECS` and the resulting
:class:`~repro.tiers.TierPlan` is walked mechanically — pass a
:class:`~repro.tiers.TierSpec` directly to build a topology that has no
enum entry at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..broker import MemoryBroker, MemoryProxy
from ..cluster import Cluster, Server
from ..engine import Database, DevicePageFile, cost_model_for
from ..net import Network, SmbClient, SmbDirectClient, SmbFileServer
from ..reliability import ReliabilityLayer, ReliabilityPolicy
from ..remotefile import AccessPolicy, RemoteMemoryFilesystem
from ..storage import GB, MB, PAGE_SIZE, RamDrive
from ..telemetry import MetricsRegistry
from ..telemetry.attach import (
    register_cluster,
    register_pool,
    register_reliability,
    register_remote_file,
)
from ..tiers import TierPlan, TierSpec
from .designs import Design, TIER_SPECS
from .node import SEMCACHE_FILE_ID, Node, open_remote_store, rebuild_remote_level

__all__ = [
    "DbSetup",
    "build_database",
    "prewarm_extension",
    "prewarm_pool",
    "rebuild_extension",
]


@dataclass
class DbSetup:
    """Everything a benchmark needs to drive one configuration."""

    design: Optional[Design]
    cluster: Cluster
    db_server: Server
    database: Database
    memory_servers: list[Server] = field(default_factory=list)
    broker: Optional[MemoryBroker] = None
    remote_fs: Optional[RemoteMemoryFilesystem] = None
    network: Optional[Network] = None
    #: Memory-brokering proxies by server name (NDSPI plans only).
    proxies: dict[str, MemoryProxy] = field(default_factory=dict)
    #: Reliability policy layer (NDSPI plans, opt-in): deadlines,
    #: retries, circuit breakers, hedged reads, admission control.
    reliability: Optional[ReliabilityLayer] = None
    #: Every instrument in the setup (devices, NICs, CPUs, buffer pool,
    #: remote files, reliability) adopted into one registry.
    metrics: Optional[MetricsRegistry] = None
    #: The declarative topology this setup was built from, and the
    #: resolved plan (concrete capacities, analytic rule applied).
    spec: Optional[TierSpec] = None
    plan: Optional[TierPlan] = None

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def pool(self):
        return self.database.pool

    @property
    def databases(self) -> list[Database]:
        return [self.database]

    def run(self, generator):
        return self.sim.run_until_complete(self.sim.spawn(generator))

    def execute_plan(
        self,
        plan,
        tables: dict,
        schemas: Optional[dict] = None,
        memory_bytes: int = 8 * MB,
        memory_consumers: Optional[int] = None,
        cost_model="auto",
    ):
        """Lower a :mod:`repro.plan` IR tree on this database and run it.

        The single-node counterpart of
        :func:`repro.dist.planner.execute_plan`: the same logical plan a
        distributed setup fragments runs here as one operator tree.  By
        default the lowering consults the §3.3 cost model matching where
        this setup's indexes land (``cost_model="auto"``); pass ``None``
        to force hash joins everywhere (the strategy-comparable shape).
        Returns the engine's :class:`~repro.engine.QueryResult`.
        """
        from ..plan import Aggregate, Join, TopN, count_nodes, lower_single

        if schemas is None:
            from ..workloads import TPCH_SCHEMAS
            schemas = TPCH_SCHEMAS
        if cost_model == "auto":
            cost_model = cost_model_for(self.database)
        op = lower_single(plan, tables, schemas, cost_model)
        if memory_consumers is None:
            memory_consumers = max(1, count_nodes(plan, Join, Aggregate, TopN))
        return self.run(self.database.execute(
            op, requested_memory_bytes=memory_bytes,
            memory_consumers=memory_consumers,
        ))

    def cache_store(self, capacity_pages: int, name: str = "semcache"):
        """``yield from``-able: a page store on the spec's semcache medium.

        Benchmarks that build semantic-cache indexes (Section 3.3) route
        their store placement through the spec instead of hand-picking a
        medium per design.
        """
        medium = self.spec.semcache if self.spec is not None else "ssd"
        if medium == "remote":
            if self.remote_fs is None:
                raise ValueError("spec places the semantic cache remotely "
                                 "but the setup has no remote filesystem")
            return (yield from open_remote_store(
                self.remote_fs, SEMCACHE_FILE_ID, name, capacity_pages,
                spread=len(self.memory_servers) > 1,
            ))
        device = self.db_server.devices[medium]
        return DevicePageFile(
            SEMCACHE_FILE_ID, self.db_server, device, capacity_pages=capacity_pages
        )


def build_database(
    design: Design | TierSpec,
    bp_pages: int,
    bpext_pages: int = 0,
    tempdb_pages: int = 4096,
    data_spindles: int = 20,
    n_memory_servers: int = 1,
    analytic: bool = False,
    workspace_bytes: Optional[int] = None,
    local_memory_bonus_pages: int = 0,
    seed: int = 0,
    db_cores: int = 20,
    reliability: ReliabilityPolicy | bool | None = None,
) -> DbSetup:
    """Assemble one design alternative from its tier spec.

    ``design`` is a Table-5 :class:`~repro.harness.Design` (resolved via
    :data:`~repro.harness.TIER_SPECS`) or a bare
    :class:`~repro.tiers.TierSpec` for ad-hoc topologies.
    ``analytic=True`` applies the paper's rule of disabling BPExt for
    sequential workloads on the HDD/HDD+SSD baselines (Section 5.3) —
    the rule itself lives in :meth:`~repro.tiers.TierSpec.resolve`.
    ``local_memory_bonus_pages`` grows the pool for specs with
    ``pool_absorbs_extension`` (*Local Memory*) by the amount other
    designs get as remote memory.  ``reliability`` (NDSPI plans only)
    threads a :class:`~repro.reliability.ReliabilityLayer` through the
    remote path: pass ``True`` for the default policy or a
    :class:`~repro.reliability.ReliabilityPolicy` to tune it.
    """
    if isinstance(design, TierSpec):
        spec, design_key = design, None
    else:
        spec, design_key = TIER_SPECS[design], design
    plan = spec.resolve(
        analytic=analytic, bpext_pages=bpext_pages, tempdb_pages=tempdb_pages
    )

    cluster = Cluster(seed=seed)
    sim = cluster.sim
    network = Network(sim)
    node = Node(
        cluster, network, "db", cores=db_cores, memory_bytes=384 * GB,
        spindles=data_spindles, hdd_stream="hdd",
    )
    setup = DbSetup(
        design=design_key, cluster=cluster, db_server=node.server,
        database=None, network=network,  # type: ignore[arg-type]
        spec=spec, plan=plan,
    )

    if plan.needs_remote:
        remote_bytes_needed = (bpext_pages + tempdb_pages) * PAGE_SIZE + 64 * MB
        per_server = remote_bytes_needed // n_memory_servers + 32 * MB
        for index in range(n_memory_servers):
            server = cluster.add_server(
                f"mem{index}", memory_bytes=max(384 * GB, per_server + 64 * GB)
            )
            network.attach(server)
            setup.memory_servers.append(server)

        if plan.protocol in ("smb", "smbdirect"):
            mem = setup.memory_servers[0]
            drive = mem.attach_device("ramdrive", RamDrive(sim, name=f"{mem.name}.ramdrive"))
            node.attach_smb(
                SmbFileServer(mem, drive),
                SmbClient if plan.protocol == "smb" else SmbDirectClient,
            )
        else:  # ndspi
            broker = MemoryBroker(sim)
            layer = None
            if reliability:
                reliability_policy = (
                    reliability
                    if isinstance(reliability, ReliabilityPolicy)
                    else ReliabilityPolicy()
                )
                layer = ReliabilityLayer(
                    sim, cluster.rng.stream("reliability"), reliability_policy
                )
                setup.reliability = layer
            fs = node.attach_remote_fs(
                broker, schedulers=db_cores,
                policy=AccessPolicy.SYNC if spec.sync_remote_io else AccessPolicy.ASYNC,
                reliability=layer,
            )
            setup.broker = broker
            setup.remote_fs = fs

            def bootstrap():
                yield from fs.initialize()
                for server in setup.memory_servers:
                    proxy = MemoryProxy(server, broker, mr_bytes=64 * MB)
                    setup.proxies[server.name] = proxy
                    yield from proxy.offer_available(limit_bytes=per_server + 128 * MB)
                yield from node.open_remote_stores(
                    plan, file_name=lambda store: store, spread=n_memory_servers > 1
                )

            setup.run(bootstrap())

    total_bp_pages = bp_pages
    if spec.pool_absorbs_extension:
        total_bp_pages += local_memory_bonus_pages
    database = node.build_database(
        plan, bp_pages=total_bp_pages, workspace_bytes=workspace_bytes
    )
    if setup.reliability is not None:
        database.pool.attach_reliability(setup.reliability)
    setup.database = database

    label = design_key.name.lower() if design_key is not None else spec.name.lower()
    registry = MetricsRegistry(f"dbbench.{label}")
    register_cluster(registry, cluster)
    register_pool(registry, "bp", database.pool)
    if setup.remote_fs is not None:
        for file in setup.remote_fs.files.values():
            register_remote_file(registry, f"rfile.{file.name}", file)
    if setup.reliability is not None:
        register_reliability(registry, "reliability", setup.reliability)
    setup.metrics = registry
    return setup


def prewarm_extension(target, max_pages: Optional[int] = None) -> int:
    """Install every base-file page into the BPExt (steady-state setup).

    Long-running systems reach a state where the extension holds the
    whole working set; benchmarks call this instead of burning wall
    clock replaying hours of warm-up traffic.  ``target`` is a
    :class:`DbSetup` or a :class:`~repro.engine.Database` (repro.dist
    warms each shard's engine).  Returns pages installed.
    """
    pool = target.pool
    extension = pool.extension
    if extension is None:
        return 0
    installed = 0
    budget = extension.capacity_pages if max_pages is None else min(
        extension.capacity_pages, max_pages
    )
    for store in pool.files.values():
        for _slot, page in store.iter_pages():
            if installed >= budget:
                return installed
            if not extension.adopt(page):
                return installed  # extension full
            installed += 1
    return installed


def prewarm_pool(target, max_pages: Optional[int] = None) -> int:
    """Fill the buffer pool with base-file pages (steady-state setup).

    Used chiefly for the *Local Memory* design, whose pool is large
    enough to hold the database: benchmarks measure steady state, not
    the hours of traffic it takes to get there.  ``target`` as for
    :func:`prewarm_extension`.  Returns pages cached.
    """
    pool = target.pool
    budget = pool.capacity_pages if max_pages is None else min(pool.capacity_pages, max_pages)
    installed = 0
    for store in pool.files.values():
        for _slot, page in store.iter_pages():
            if installed >= budget - 1:
                return installed
            if pool.adopt(page):
                installed += 1
    return installed


def rebuild_extension(setup: DbSetup, name: Optional[str] = None):
    """Re-acquire remote memory for the BPExt after a provider crash.

    ``yield from``-able: leases a fresh remote file (new leases, new
    queue pairs), points the extension's remote level at it
    (:func:`~repro.harness.node.rebuild_remote_level`) and drops the
    dead file.  The level starts empty and re-warms as clean pages are
    evicted into it — the recovery curve of the fault-injection
    experiments.  Returns the new store.
    """
    extension = setup.database.pool.extension
    if extension is None or setup.remote_fs is None:
        raise ValueError("rebuild_extension needs an NDSPI-plan setup")
    level = extension.level_for("remote")
    if level is None:
        raise ValueError("the extension has no remote-memory tier")
    old_file = level.store.remote_file
    new_store = yield from rebuild_remote_level(
        setup.remote_fs, extension, level,
        name if name is not None else f"{old_file.name}.r{len(setup.remote_fs.files)}",
        level.capacity_pages, spread=len(setup.memory_servers) > 1,
    )
    yield from setup.remote_fs.delete(old_file)
    return new_store
