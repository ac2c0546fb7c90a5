"""Horizontal partitioning + multi-server topology for distributed plans.

The single-node engine owns *all* pages of every table; query shipping
("The End of Slow Networks", Binnig et al.) instead gives each of N DB
servers one horizontal shard with its own buffer pool and tier stack,
and moves *tuples* between servers at exchange boundaries.  This module
supplies both halves of that story:

* a declarative partitioning grammar (:class:`PartitionSpec` — hash or
  range on one key column) with a **stable** hash function, because
  Python's built-in ``hash`` is salted per process and would shard
  differently on every run;
* :func:`build_dist`, the cluster builder: N identical DB servers
  (HDD array + SSD + local TempDB each), optional memory servers with a
  shared broker for NAM-style remote shards, and the exchange fabric
  bootstrapped over pre-registered staging buffers.

Loaders reuse the TPC-H generator split
(:func:`~repro.workloads.tpch.generate_tpch_rows`): one canonical row
set is generated once, then either installed whole on server 0
(page shipping) or sharded by the partitioning map (query shipping /
hybrid) — so all strategies query byte-identical data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Optional

import numpy as np

from ..cluster import Cluster, Server
from ..engine import Database, Schema
from ..harness import prewarm_extension, prewarm_pool
from ..harness.node import Node, Topology
from ..net import Network
from ..remotefile import AccessPolicy, RemoteMemoryFilesystem
from ..storage import GB, MB, PAGE_SIZE
from ..telemetry import MetricsRegistry
from ..telemetry.attach import register_cluster, register_pool
from ..tiers import TierDef, TierSpec
from ..workloads import TPCH_SCHEMAS, TpchScale, generate_tpch_rows, install_tpch_tables
from .exchange import ExchangeRuntime

__all__ = [
    "PartitionSpec",
    "DistSpec",
    "DistSetup",
    "TPCH_PARTITIONING",
    "stable_hash",
    "stable_hashes",
    "partition_rows",
    "build_dist",
    "load_tpch_single",
    "load_tpch_partitioned",
    "prewarm_dist",
]


def stable_hash(value: Any) -> int:
    """Process-stable 64-bit hash (splitmix64 finalizer / CRC for str).

    Partitioning and Bloom filters must place the same key on the same
    server in every run; Python's ``hash`` is salted per interpreter.
    """
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    x = int(value) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0xFFFFFFFFFFFFFFFF


def stable_hashes(values: list) -> np.ndarray:
    """:func:`stable_hash` of every value, as one ``uint64`` array.

    All-integer input inside 64 bits is mixed in one vectorised pass:
    ``uint64`` arithmetic wraps exactly as the masked Python arithmetic
    does (and a negative ``int64`` reinterprets as its two's complement,
    which is what ``& 0xFFFF...`` yields).  Anything else — ``str``,
    ``float``, ``bool``, mixed or wider keys — is hashed value by value
    (a non-``int`` first value decides that without building an array).
    """
    x = np.asarray(values) if values and type(values[0]) is int else None
    if x is None or x.dtype.kind not in "iu":
        return np.fromiter(map(stable_hash, values), dtype=np.uint64, count=len(values))
    x = x.astype(np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class PartitionSpec:
    """How one table is split across N servers.

    ``hash``: row goes to ``stable_hash(key) % n``.
    ``range``: ``bounds`` holds n-1 ascending split points; row goes to
    the first partition whose bound exceeds its key (last otherwise).
    """

    table: str
    key: str
    method: str = "hash"
    bounds: tuple = ()

    def __post_init__(self):
        if self.method not in ("hash", "range"):
            raise ValueError(f"unknown partition method {self.method!r}")
        if self.method == "range" and list(self.bounds) != sorted(self.bounds):
            raise ValueError("range bounds must be ascending")

    def owner(self, value: Any, n: int) -> int:
        """Which of ``n`` servers owns a row with this key value."""
        if n == 1:
            return 0
        if self.method == "hash":
            return stable_hash(value) % n
        if len(self.bounds) != n - 1:
            raise ValueError(
                f"range partitioning of {self.table!r} needs {n - 1} bounds,"
                f" got {len(self.bounds)}"
            )
        for index, bound in enumerate(self.bounds):
            if value < bound:
                return index
        return n - 1

    def owners(self, values: list, n: int) -> list[int]:
        """:meth:`owner` of every value — the contract exchanges and
        loaders route by: one call per batch, never one per row."""
        if n > 1 and self.method == "hash":
            return (stable_hashes(values) % np.uint64(n)).tolist()
        return [self.owner(value, n) for value in values]


def partition_rows(
    rows: list, schema: Schema, spec: PartitionSpec, n: int
) -> list[list]:
    """Split one table's rows into ``n`` shards by the spec's key."""
    keys = list(map(itemgetter(schema.index_of(spec.key)), rows))
    shards: list[list] = [[] for _ in range(n)]
    for owner, row in zip(spec.owners(keys, n), rows):
        shards[owner].append(row)
    return shards


#: Default TPC-H co-location: each table is partitioned on its most
#: join-relevant key so every two-table join has exactly one shuffling
#: side (the build side is always local to its shard).
TPCH_PARTITIONING: dict[str, PartitionSpec] = {
    "customer": PartitionSpec("customer", "custkey"),
    "orders": PartitionSpec("orders", "orderkey"),
    "lineitem": PartitionSpec("lineitem", "partkey"),
    "part": PartitionSpec("part", "partkey"),
    "supplier": PartitionSpec("supplier", "suppkey"),
}


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


#: Every DB server spills and logs to its own SSD; one with a remote
#: page budget adds a single tier leased from the shared broker.
NODE_TIER = TierSpec(
    name="dist-node", extension=(TierDef(medium="remote"),),
    tempdb="ssd", wal="ssd", protocol="ndspi",
)


@dataclass(frozen=True)
class DistSpec:
    """Declarative distributed topology: N identical DB servers.

    ``ext_pages`` is per-DB-server remote BPExt capacity (0 = no remote
    tier on that server); page-shipping setups put the whole extension
    on server 0, NAM-style hybrids give every server a slice.
    """

    name: str
    db_servers: int = 2
    memory_servers: int = 1
    bp_pages: int = 256
    ext_pages: tuple = ()
    tempdb_pages: int = 1024
    data_spindles: int = 8
    db_cores: int = 8
    seed: int = 0
    credits: int = 4
    slot_bytes: int = 64 * 1024
    workspace_bytes: int = 64 * MB

    def resolved_ext(self) -> tuple:
        ext = tuple(self.ext_pages) if self.ext_pages else (0,) * self.db_servers
        if len(ext) != self.db_servers:
            raise ValueError(
                f"ext_pages needs {self.db_servers} entries, got {len(ext)}"
            )
        return ext


@dataclass(kw_only=True)
class DistSetup(Topology):
    """Everything a distributed benchmark needs to drive one topology."""

    spec: DistSpec
    db_servers: list[Server]
    databases: list[Database]
    runtime: ExchangeRuntime
    remote_fs: dict[str, RemoteMemoryFilesystem] = field(default_factory=dict)
    #: Per-DB-server table dicts (loader output); page-shipping setups
    #: populate index 0 only.
    tables: list = field(default_factory=list)
    #: Partitioning map when the load was sharded, else None.
    partitioning: Optional[dict[str, PartitionSpec]] = None


def build_dist(spec: DistSpec) -> DistSetup:
    """Assemble the virtual cluster for one distributed topology."""
    ext_pages = spec.resolved_ext()
    cluster = Cluster(seed=spec.seed)
    network = Network(cluster.sim)

    nodes = [
        Node(
            cluster, network, f"db{index}", cores=spec.db_cores,
            memory_bytes=384 * GB, spindles=spec.data_spindles,
            hdd_stream=f"hdd{index}",
        )
        for index in range(spec.db_servers)
    ]
    db_servers = [node.server for node in nodes]

    setup = DistSetup(
        spec=spec, cluster=cluster, network=network,
        db_servers=db_servers, databases=[],
        runtime=ExchangeRuntime(
            db_servers, credits=spec.credits, slot_bytes=spec.slot_bytes
        ),
    )

    if any(pages > 0 for pages in ext_pages):
        # Leases hand out whole MRs, so each server's bpext file consumes
        # at least one full region — size the offer by region count, not
        # raw bytes, or a many-small-shards hybrid starves the last file.
        mr_bytes = 64 * MB
        regions_needed = sum(
            -(-pages * PAGE_SIZE // mr_bytes) for pages in ext_pages if pages > 0
        )
        per_memory_server = -(-regions_needed // max(1, spec.memory_servers)) + 1
        setup.add_memory_servers(
            spec.memory_servers, memory_bytes=384 * GB, mr_bytes=mr_bytes
        )
        setup.run(setup.offer_memory(per_memory_server * mr_bytes))

    for node, pages in zip(nodes, ext_pages):
        plan = NODE_TIER.resolve(
            analytic=False, bpext_pages=pages, tempdb_pages=spec.tempdb_pages
        )
        if pages > 0:
            fs = node.attach_remote_fs(
                setup.broker, schedulers=spec.db_cores, policy=AccessPolicy.SYNC
            )
            setup.remote_fs[node.server.name] = fs

            def bootstrap(node=node, fs=fs, plan=plan):
                yield from fs.initialize()
                yield from node.open_remote_stores(
                    plan, file_name=lambda _store: f"bpext.{node.server.name}",
                    spread=spec.memory_servers > 1,
                )

            setup.run(bootstrap())
        setup.databases.append(
            node.build_database(
                plan, bp_pages=spec.bp_pages, workspace_bytes=spec.workspace_bytes
            )
        )

    setup.run(setup.runtime.bootstrap())

    registry = MetricsRegistry(f"dist.{spec.name}")
    register_cluster(registry, cluster)
    for index, database in enumerate(setup.databases):
        register_pool(registry, f"db{index}.bp", database.pool)
    setup.metrics = registry
    return setup


# ---------------------------------------------------------------------------
# Loaders
# ---------------------------------------------------------------------------


def load_tpch_single(
    setup: DistSetup, scale: TpchScale = TpchScale(), seed: int = 0
) -> None:
    """Install the whole TPC-H row set on DB server 0 (page shipping)."""
    rows = generate_tpch_rows(scale, seed)
    setup.tables = [install_tpch_tables(setup.databases[0], rows, scale)]
    setup.partitioning = None


def load_tpch_partitioned(
    setup: DistSetup,
    partitioning: dict[str, PartitionSpec] | None = None,
    scale: TpchScale = TpchScale(),
    seed: int = 0,
) -> None:
    """Shard the canonical TPC-H row set across every DB server."""
    partitioning = dict(partitioning or TPCH_PARTITIONING)
    n = len(setup.databases)
    rows = generate_tpch_rows(scale, seed)
    shards: list[dict[str, list]] = [{} for _ in range(n)]
    for name, schema in TPCH_SCHEMAS.items():
        spec = partitioning.get(name)
        if spec is None:
            raise ValueError(f"no PartitionSpec for table {name!r}")
        for index, shard in enumerate(partition_rows(rows[name], schema, spec, n)):
            shards[index][name] = shard
    setup.tables = [
        install_tpch_tables(db, shard, scale)
        for db, shard in zip(setup.databases, shards)
    ]
    setup.partitioning = partitioning


def prewarm_dist(setup: DistSetup) -> int:
    """Steady-state warm-up: extension if the server has one, else pool."""
    installed = 0
    for database in setup.databases[: len(setup.tables)]:
        if database.pool.extension is not None:
            installed += prewarm_extension(database)
        else:
            installed += prewarm_pool(database)
    return installed
