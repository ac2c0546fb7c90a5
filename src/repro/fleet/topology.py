"""Fleet topology: N database servers × M memory servers as pure data.

The paper stops at a handful of servers (Figures 5/6/25); the fleet
layer instantiates *tens* from declarative specs.  A :class:`FleetSpec`
names M memory servers and a set of :class:`TenantSpec`\\ s; every
tenant gets ``replicas`` database servers, each running its own engine
over the tenant's :class:`~repro.tiers.TierSpec` (the PR-5 grammar:
remote tiers lease from the shared broker through a per-replica
:class:`~repro.remotefile.RemoteMemoryFilesystem`, local tiers attach
devices).  All tenants share one simulator, network, broker and
metadata store — one elastic pool, many databases.

:func:`build_fleet` is the builder; :func:`run_fleet` drives a full
scenario (tenant workloads × optional marketplace × optional fault
plan) and returns a :class:`FleetReport` whose ``as_dict()`` is exactly
reproducible for a given seed — the determinism contract the fleet CI
smoke job asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..broker import MemoryBroker
from ..cluster import Cluster, Server
from ..engine import Database
from ..engine.page import PAGE_SIZE
from ..faults import FaultEngine, FaultPlan
from ..harness.node import Node, Topology, rebuild_remote_level
from ..net import Network
from ..remotefile import AccessPolicy, RemoteFile, RemoteMemoryFilesystem
from ..sim import LatencyRecorder
from ..sim.kernel import ProcessGenerator
from ..storage import GB, MB
from ..telemetry import MetricsRegistry
from ..tiers import Tier, TierDef, TierSpec
from ..workloads import build_customer_table, run_clients
from .marketplace import Marketplace, MarketplacePolicy, QosClass
from .tenants import SteadyShape, TenantWorkload, TrafficShape

__all__ = [
    "DEFAULT_TENANT_TIER",
    "FleetReport",
    "FleetSetup",
    "FleetSpec",
    "TenantRuntime",
    "TenantSpec",
    "build_fleet",
    "run_fleet",
]

#: The classic NDSPI single-tier remote extension, per tenant.
DEFAULT_TENANT_TIER = TierSpec(
    name="fleet-ndspi",
    extension=(TierDef(medium="remote"),),
    tempdb="hdd",
    wal="hdd",
    semcache="ssd",
    protocol="ndspi",
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: QoS class, replica count, data, traffic, tier shape."""

    name: str
    qos: QosClass = QosClass.SILVER
    #: Database servers running this tenant (round-robin multiplexed).
    replicas: int = 1
    #: Offered-load intensity over virtual time.
    shape: TrafficShape = field(default_factory=SteadyShape)
    #: Queries issued per epoch at intensity 1.0 (whole tenant).
    peak_queries_per_epoch: int = 200
    #: Concurrent query lanes per replica.
    workers: int = 8
    #: DRAM buffer-pool pages per replica.
    bp_pages: int = 96
    #: Initial extension pages (whole tenant; the static partition).
    ext_pages: int = 1024
    #: Marketplace floor — never reclaimed below this (``None`` =
    #: half the initial allocation).
    floor_pages: Optional[int] = None
    #: Rows in the per-replica Customer table.
    n_rows: int = 10_000
    range_size: int = 100
    update_fraction: float = 0.0
    #: Run rangescan updates inside real transactions (2PL + undo +
    #: retry, see :mod:`repro.txn`) instead of the legacy single-record
    #: autocommit path.  Off by default: the legacy path is the golden
    #: baseline for existing fleet scenarios.
    transactional: bool = False
    #: Memory-hierarchy topology (PR-5 grammar) for every replica.
    tier: TierSpec = DEFAULT_TENANT_TIER

    def resolved_floor(self) -> int:
        return self.floor_pages if self.floor_pages is not None else self.ext_pages // 2


@dataclass(frozen=True)
class FleetSpec:
    """The whole fleet, declaratively."""

    tenants: tuple[TenantSpec, ...]
    name: str = "fleet"
    memory_servers: int = 4
    #: MR granularity for the whole pool (small, so reallocation is fine-grained).
    mr_bytes: int = 2 * MB
    seed: int = 0
    #: Long leases: fleet scenarios exercise *reallocation*, not expiry
    #: (the fault layer force-expires when a storm wants it).
    lease_duration_us: float = 600e6
    db_cores: int = 8
    spindles: int = 8

    def __post_init__(self):
        if not self.tenants:
            raise ValueError("a fleet needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")

    @property
    def db_servers(self) -> int:
        return sum(tenant.replicas for tenant in self.tenants)

    def total_initial_ext_bytes(self) -> int:
        return sum(tenant.ext_pages for tenant in self.tenants) * PAGE_SIZE


class TenantReplica:
    """One database server's worth of a tenant."""

    def __init__(self, index: int, server: Server, fs: RemoteMemoryFilesystem):
        self.index = index
        self.server = server
        self.fs = fs
        self.database: Database = None  # type: ignore[assignment]
        self.table = None
        #: The remote extension level the marketplace resizes (None for
        #: tenants whose tier spec keeps everything local).
        self.remote_level: Optional[Tier] = None
        self.file: Optional[RemoteFile] = None
        self.ext_pages: int = 0
        #: False between a torn-down old store and an opened new one
        #: (e.g. a broker restart interrupting a rebuild).
        self.healthy: bool = True


class TenantRuntime:
    """Live state of one tenant: replicas, telemetry, resize machinery."""

    def __init__(
        self,
        spec: TenantSpec,
        cluster: Cluster,
        registry: MetricsRegistry,
        mr_pages: int,
    ):
        self.spec = spec
        self.cluster = cluster
        self.sim = cluster.sim
        self.registry = registry
        self.mr_pages = mr_pages
        self.replicas: list[TenantReplica] = []
        self.resizes = 0
        self.leases_revoked = 0
        self._file_seq = 0
        prefix = f"fleet.tenant.{spec.name}"
        self.latency = registry.register(f"{prefix}.latency", LatencyRecorder(f"{prefix}.latency"))
        registry.gauge(f"{prefix}.queries", lambda: float(self.latency.count))
        registry.gauge(f"{prefix}.leases_revoked", lambda: float(self.leases_revoked))
        registry.gauge(f"{prefix}.ext_pages", lambda: float(self.ext_pages))
        registry.gauge(f"{prefix}.resizes", lambda: float(self.resizes))
        for stat in (
            "begins", "commits", "aborts", "deadlock_aborts", "doom_aborts",
            "dooms", "retries", "exhausted", "deadlocks_detected",
            "lock_waits", "lock_wait_us",
        ):
            registry.gauge(
                f"{prefix}.txn.{stat}",
                lambda stat=stat: float(self.txn_stats().get(stat, 0.0)),
            )

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def qos(self) -> QosClass:
        return self.spec.qos

    @property
    def floor_pages(self) -> int:
        return self.spec.resolved_floor()

    def holders(self) -> list[str]:
        """Broker holder names (one per replica database server)."""
        return [replica.server.name for replica in self.replicas]

    # -- extension accounting ---------------------------------------------

    @property
    def resizable(self) -> bool:
        return any(replica.remote_level is not None for replica in self.replicas)

    @property
    def ext_pages(self) -> int:
        return sum(
            replica.ext_pages
            for replica in self.replicas
            if replica.remote_level is not None
        )

    @property
    def needs_repair(self) -> bool:
        return any(
            replica.remote_level is not None and not replica.healthy
            for replica in self.replicas
        )

    def txn_stats(self) -> dict[str, float]:
        """Transaction counters summed over replicas (0s when no
        replica ever started a transaction — the gauges always exist)."""
        totals: dict[str, float] = {}
        for replica in self.replicas:
            manager = getattr(replica.database, "_txn_manager", None)
            if manager is None:
                continue
            for key, value in manager.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def ext_counters(self) -> tuple[int, int]:
        """(hits, misses) summed over every replica's extension stack."""
        hits = misses = 0
        for replica in self.replicas:
            extension = replica.database.pool.extension
            if extension is not None:
                hits += extension.hits
                misses += extension.misses
        return hits, misses

    # -- telemetry hooks ---------------------------------------------------

    def record_query(self, latency_us: float) -> None:
        self.latency.record(latency_us)

    def on_lease_revoked(self, lease) -> None:
        """Marketplace revocation observer: invalidate parked pages on
        the revoked lease's provider for the replica that held it."""
        self.leases_revoked += 1
        for replica in self.replicas:
            if replica.server.name == lease.holder and replica.remote_level is not None:
                replica.database.pool.extension.on_fault(provider=lease.provider)

    # -- resizing ----------------------------------------------------------

    def _per_replica(self, pages: int, n_replicas: Optional[int] = None) -> int:
        if n_replicas is None:
            n_replicas = len([r for r in self.replicas if r.remote_level is not None])
        per = pages // max(1, n_replicas)
        return max(self.mr_pages, (per // self.mr_pages) * self.mr_pages)

    def set_extension_pages(self, pages: int) -> ProcessGenerator:
        """Resize every replica's remote extension to its share of
        ``pages`` — release-then-acquire, idempotent, re-runnable.

        The old file's leases are relinquished *before* the new file is
        created (reclaim must never deadlock on a full pool), so the
        extension restarts cold and re-warms — the cost the
        marketplace's cooldown exists to amortize.  If the broker dies
        mid-rebuild the replica is left disabled-but-consistent
        (``healthy=False``) and the next call finishes the job.
        """
        per = self._per_replica(pages)
        changed = 0
        for replica in self.replicas:
            if replica.remote_level is None:
                continue
            if replica.ext_pages == per and replica.healthy:
                continue
            yield from self._rebuild_replica(replica, per)
            changed += 1
        if changed:
            self.resizes += 1
        return changed

    def _rebuild_replica(self, replica: TenantReplica, per: int) -> ProcessGenerator:
        level = replica.remote_level
        level.enabled = False
        replica.healthy = False
        if replica.file is not None:
            # Re-runnable: release() skips non-ACTIVE leases, so a retry
            # after a broker restart only relinquishes the remainder.
            yield from replica.fs.delete(replica.file)
            replica.file = None
        name = f"{self.name}.{replica.index}.ext.{self._file_seq}"
        self._file_seq += 1
        store = yield from rebuild_remote_level(
            replica.fs, replica.database.pool.extension, level, name, per
        )
        replica.file = store.remote_file
        replica.ext_pages = per
        replica.healthy = True


@dataclass(kw_only=True)
class FleetSetup(Topology):
    """Everything a fleet scenario needs to run."""

    spec: FleetSpec
    tenants: dict[str, TenantRuntime] = field(default_factory=dict)
    marketplace: Optional[Marketplace] = None

    @property
    def databases(self) -> list[Database]:
        """Every replica's database: tenants by name, replicas by index."""
        return [
            replica.database
            for _name, runtime in sorted(self.tenants.items())
            for replica in runtime.replicas
        ]


def build_fleet(
    spec: FleetSpec,
    marketplace: MarketplacePolicy | bool | None = None,
    metrics: MetricsRegistry | None = None,
) -> FleetSetup:
    """Assemble the fleet: shared pool, brokered tenants, telemetry.

    With ``marketplace=None`` the fleet is *statically partitioned*:
    every tenant keeps its initial ``ext_pages`` forever (leases spread
    across providers, Figure-5 style).  Passing a
    :class:`~repro.fleet.MarketplacePolicy` (or ``True`` for defaults)
    installs the marketplace **before** any lease is placed, so
    anti-affinity governs initial placement too.
    """
    cluster = Cluster(seed=spec.seed)
    sim = cluster.sim
    network = Network(sim)
    registry = metrics if metrics is not None else MetricsRegistry(f"fleet.{spec.name}")
    broker = MemoryBroker(sim, lease_duration_us=spec.lease_duration_us)

    # The pool is 2.5x the tenants' initial extension footprint: room
    # for the marketplace to triple a share.
    pool_bytes = int(spec.total_initial_ext_bytes() * 2.5)
    per_server_bytes = (
        math.ceil(pool_bytes / spec.memory_servers / spec.mr_bytes) * spec.mr_bytes
    )

    setup = FleetSetup(
        spec=spec, cluster=cluster, network=network, broker=broker, metrics=registry
    )

    market = None
    if marketplace:
        policy = marketplace if isinstance(marketplace, MarketplacePolicy) else None
        market = Marketplace(
            sim, broker, policy=policy, registry=registry, mr_bytes=spec.mr_bytes
        )
        setup.marketplace = market

    setup.add_memory_servers(
        spec.memory_servers, memory_bytes=per_server_bytes + 64 * GB,
        mr_bytes=spec.mr_bytes,
    )
    for proxy in setup.proxies.values():
        setup.run(proxy.offer_available(limit_bytes=per_server_bytes))

    mr_pages = max(1, spec.mr_bytes // PAGE_SIZE)
    spread_initial = market is None and spec.memory_servers > 1
    for tenant in spec.tenants:
        runtime = TenantRuntime(tenant, cluster, registry, mr_pages)
        per_replica = runtime._per_replica(tenant.ext_pages, n_replicas=tenant.replicas)
        plan = tenant.tier.resolve(
            analytic=False, bpext_pages=per_replica, tempdb_pages=0
        )
        for index in range(tenant.replicas):
            node = Node(
                cluster, network, f"{tenant.name}-{index}", cores=spec.db_cores,
                memory_bytes=64 * GB, spindles=spec.spindles,
                hdd_stream=f"hdd.{tenant.name}.{index}",
            )
            fs = node.attach_remote_fs(broker, schedulers=8, policy=AccessPolicy.SYNC)
            setup.run(fs.initialize())
            replica = TenantReplica(index, node.server, fs)
            if plan.remote_extension_tiers():
                setup.run(node.open_remote_stores(
                    plan,
                    file_name=lambda store: f"{tenant.name}.{index}.{store}.0",
                    spread=spread_initial,
                ))
            database = node.build_database(plan, bp_pages=tenant.bp_pages)
            replica.database = database

            # The remote level the marketplace resizes (if any).
            extension = database.pool.extension
            level = extension.level_for("remote") if extension is not None else None
            if level is not None:
                replica.remote_level = level
                replica.file = level.store.remote_file
                replica.ext_pages = level.capacity_pages

            replica.table = build_customer_table(database, tenant.n_rows)
            runtime.replicas.append(replica)

        setup.tenants[tenant.name] = runtime
        if market is not None:
            market.adopt(runtime)
    return setup


@dataclass
class FleetReport:
    """One scenario's results: per-tenant and fleet-wide."""

    name: str
    seed: int
    elapsed_us: float
    tenants: dict[str, dict]
    aggregate_qps: float
    marketplace: Optional[dict] = None
    consistency: Optional[dict] = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "elapsed_us": round(self.elapsed_us, 3),
            "aggregate_qps": round(self.aggregate_qps, 6),
            "tenants": self.tenants,
            "marketplace": self.marketplace,
            "consistency": self.consistency,
        }


def run_fleet(
    setup: FleetSetup,
    epochs: int,
    epoch_us: float = 2e6,
    fault_plan: Optional[FaultPlan] = None,
) -> FleetReport:
    """Drive every tenant for ``epochs`` epochs; returns the report.

    Spawns the marketplace rebalance daemon (when installed) and an
    optional fault plan alongside the tenant workloads, waits for every
    workload to finish, then verifies broker/metadata consistency —
    whatever storm just happened, the lease table must balance.
    """
    sim = setup.sim
    workloads = {
        name: TenantWorkload(
            runtime, epochs=epochs, epoch_us=epoch_us, marketplace=setup.marketplace
        )
        for name, runtime in sorted(setup.tenants.items())
    }
    if setup.marketplace is not None:
        sim.spawn(setup.marketplace.rebalance_daemon(), name="fleet.marketplace")
    if fault_plan is not None:
        engine = FaultEngine.for_setup(setup, rng=setup.cluster.rng.stream("fleet.faults"))
        engine.run_plan(fault_plan)
    elapsed = run_clients(sim, [[workload.run] for workload in workloads.values()]).elapsed_us

    tenants: dict[str, dict] = {}
    aggregate = 0.0
    for name, workload in workloads.items():
        runtime = setup.tenants[name]
        summary = workload.report.as_dict()
        summary["qos"] = runtime.qos.name
        summary["ext_pages_final"] = runtime.ext_pages
        summary["resizes"] = runtime.resizes
        summary["leases_revoked"] = runtime.leases_revoked
        if runtime.spec.transactional:
            summary["txn"] = runtime.txn_stats()
        tenants[name] = summary
        aggregate += workload.report.throughput_qps

    market = setup.marketplace
    market_summary = None
    if market is not None:
        market_summary = {
            "rounds": market.rounds,
            "resizes": market.resizes,
            "reclaimed_pages": market.reclaimed_pages,
            "granted_pages": market.granted_pages,
            "grow_deferred": market.grow_deferred,
            "aborted_rounds": market.aborted_rounds,
            "revocations": market.revocations_seen,
        }
    consistency = setup.broker.verify(setup.proxies)
    return FleetReport(
        name=setup.spec.name,
        seed=setup.spec.seed,
        elapsed_us=elapsed,
        tenants=tenants,
        aggregate_qps=round(aggregate, 6),
        marketplace=market_summary,
        consistency=consistency,
    )
