"""Builders for the I/O micro-benchmark targets (Figures 3-6).

``build_io_target`` assembles the simulated cluster for one design
alternative and returns a uniform target with ``read(offset, size)`` /
``write(offset, size)`` generator methods, so :func:`repro.workloads.sqlio.
run_sqlio` can drive any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Cluster, Server
from ..net import Network, SmbClient, SmbDirectClient, SmbFileServer
from ..remotefile import AccessPolicy, RemoteFile, RemoteMemoryFilesystem, StagingPool
from ..storage import GB, MB, RamDrive, Raid0Array, SsdDevice
from ..telemetry import MetricsRegistry
from ..telemetry.attach import register_cluster, register_remote_file
from .node import Topology

__all__ = ["IoTarget", "build_io_target", "build_custom_multi", "IO_DESIGNS"]

#: Designs understood by :func:`build_io_target` (Figure 3/4 x-axis).
IO_DESIGNS = (
    "HDD(4)",
    "HDD(8)",
    "HDD(20)",
    "SSD",
    "SMB+RamDrive",
    "SMBDirect+RamDrive",
    "Custom",
)

#: Address span the micro-benchmark sweeps (matches the paper's setup
#: where the RamDrive/remote file far exceeds any cache).
DEFAULT_SPAN = 64 * GB


@dataclass
class IoTarget(Topology):
    """A uniform read/write target plus the cluster behind it."""

    name: str
    span_bytes: int
    #: Anything with ``read``/``write(offset, size)`` generators: a
    #: :class:`~repro.storage.BlockDevice` or a remote-file adapter.
    _reader: object
    db_server: Server | None = None

    def read(self, offset: int, size: int):
        yield from self._reader.read(offset, size)

    def write(self, offset: int, size: int):
        yield from self._reader.write(offset, size)


class _RemoteFileAdapter:
    """Presents a RemoteFile as a (offset, size) target (timing-only).

    Block devices (local disks, SMB clients) are targets as they are.
    """

    def __init__(self, file: RemoteFile):
        self.file = file

    def read(self, offset: int, size: int):
        yield from self.file.read_nodata(offset, size)

    def write(self, offset: int, size: int):
        yield from self.file.write_nodata(offset, size)


def _bind_metrics(target: IoTarget) -> IoTarget:
    """Adopt every instrument behind ``target`` into one registry."""
    registry = MetricsRegistry(target.name)
    register_cluster(registry, target.cluster)
    file = getattr(target._reader, "file", None)
    if file is not None:
        register_remote_file(registry, f"rfile.{file.name}", file)
    target.metrics = registry
    return target


def _base_pool(seed: int) -> tuple[Topology, Server]:
    """A cluster with one DB server on the network and no memory servers yet."""
    cluster = Cluster(seed=seed)
    pool = Topology(cluster=cluster, network=Network(cluster.sim))
    db = cluster.add_server("db")
    pool.network.attach(db)
    return pool, db


def build_io_target(design: str, span_bytes: int = DEFAULT_SPAN, seed: int = 0) -> IoTarget:
    """Build the cluster + target for one Figure-3/4 design alternative."""
    if design == "Custom":
        target = build_custom_multi(1, span_bytes, seed)
        target.name = target.metrics.name = design
        return target
    pool, db = _base_pool(seed)
    sim = pool.sim
    if design.startswith("HDD("):
        spindles = int(design[4:-1])
        reader = db.attach_device("data", Raid0Array(
            sim, spindles=spindles, name=design, rng=pool.cluster.rng.stream("hdd"),
        ))
    elif design == "SSD":
        reader = db.attach_device("ssd", SsdDevice(sim, name="ssd"))
    elif design in ("SMB+RamDrive", "SMBDirect+RamDrive"):
        pool.add_memory_servers(
            1, memory_bytes=max(384 * GB, span_bytes + 64 * GB), mr_bytes=None
        )
        mem = pool.memory_servers[0]
        drive = mem.attach_device("ramdrive", RamDrive(sim, name="mem0.ramdrive"))
        client_cls = SmbClient if design == "SMB+RamDrive" else SmbDirectClient
        reader = client_cls(db, SmbFileServer(mem, drive))
    else:
        raise ValueError(f"unknown design {design!r}; expected one of {IO_DESIGNS}")
    return _bind_metrics(IoTarget(design, span_bytes, reader, db, **vars(pool)))


def build_custom_multi(
    n_memory_servers: int,
    span_bytes: int = DEFAULT_SPAN,
    seed: int = 0,
    policy: AccessPolicy = AccessPolicy.SYNC,
) -> IoTarget:
    """Custom design with remote memory pooled from N servers (Figure 5)."""
    pool, db = _base_pool(seed)
    mr_bytes = 256 * MB
    pool.add_memory_servers(
        n_memory_servers, memory_bytes=max(384 * GB, span_bytes + 64 * GB),
        mr_bytes=mr_bytes,
    )
    fs = RemoteMemoryFilesystem(db, pool.broker, StagingPool(db), policy=policy)

    def setup():
        yield from fs.initialize()
        yield from pool.offer_memory(-(-span_bytes // n_memory_servers) + mr_bytes)
        file = yield from fs.create(
            "iobench", span_bytes, providers=list(pool.proxies),
            spread=n_memory_servers > 1,
        )
        yield from file.open()
        return file

    file = pool.run(setup())
    return _bind_metrics(IoTarget(
        f"Custom x{n_memory_servers}", span_bytes, _RemoteFileAdapter(file), db,
        **vars(pool),
    ))


def build_multi_db(
    n_db_servers: int,
    per_db_span: int = 8 * GB,
    seed: int = 0,
    policy: AccessPolicy = AccessPolicy.SYNC,
) -> list[IoTarget]:
    """N database servers sharing one memory server (Figure 6/25 setup).

    Each DB server gets its own staging pool and remote file of
    ``per_db_span`` bytes, all leased from the single provider.
    """
    cluster = Cluster(seed=seed)
    pool = Topology(cluster=cluster, network=Network(cluster.sim))
    pool.add_memory_servers(
        1, memory_bytes=max(384 * GB, n_db_servers * per_db_span + 64 * GB),
        mr_bytes=256 * MB,
    )
    pool.run(pool.offer_memory(n_db_servers * per_db_span + 512 * MB))
    targets = []
    for index in range(n_db_servers):
        db = cluster.add_server(f"db{index}")
        pool.network.attach(db)
        fs = RemoteMemoryFilesystem(db, pool.broker, StagingPool(db), policy=policy)

        def setup(fs=fs, index=index):
            yield from fs.initialize()
            file = yield from fs.create(f"iobench{index}", per_db_span)
            yield from file.open()
            return file

        file = pool.run(setup())
        # Every target shares the one pool.
        targets.append(IoTarget(
            f"db{index}", per_db_span, _RemoteFileAdapter(file), db, **vars(pool)
        ))
    # Bind after the loop so every registry sees the full cluster.
    return [_bind_metrics(target) for target in targets]
