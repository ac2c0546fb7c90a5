"""Builders for the I/O micro-benchmark targets (Figures 3-6).

``build_io_target`` assembles the simulated cluster for one design
alternative and returns a uniform target with ``read(offset, size)`` /
``write(offset, size)`` generator methods, so :func:`repro.workloads.sqlio.
run_sqlio` can drive any of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..broker import MemoryBroker, MemoryProxy
from ..cluster import Cluster, Server
from ..net import Network, SmbClient, SmbDirectClient, SmbFileServer
from ..remotefile import AccessPolicy, RemoteFile, RemoteMemoryFilesystem, StagingPool
from ..storage import GB, MB, RamDrive, Raid0Array, SsdDevice
from ..telemetry import MetricsRegistry
from ..telemetry.attach import register_cluster, register_remote_file

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
class IoTarget:
    """A uniform read/write target plus the cluster behind it."""

    name: str
    cluster: Cluster
    span_bytes: int
    #: Anything with ``read``/``write(offset, size)`` generators: a
    #: :class:`~repro.storage.BlockDevice` or a remote-file adapter.
    _reader: object
    db_server: Server | None = None
    memory_servers: tuple[Server, ...] = ()
    #: Every instrument behind the target (devices, NICs, CPUs, remote
    #: file) adopted into one registry; populated by the builders.
    metrics: MetricsRegistry | None = None

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


def _base_cluster(seed: int = 0) -> tuple[Cluster, Network, Server]:
    cluster = Cluster(seed=seed)
    network = Network(cluster.sim)
    db = cluster.add_server("db")
    network.attach(db)
    return cluster, network, db


def build_io_target(design: str, span_bytes: int = DEFAULT_SPAN, seed: int = 0) -> IoTarget:
    """Build the cluster + target for one Figure-3/4 design alternative."""
    cluster, network, db = _base_cluster(seed)
    sim = cluster.sim

    if design.startswith("HDD("):
        spindles = int(design[4:-1])
        device = Raid0Array(sim, spindles=spindles, name=design,
                            rng=cluster.rng.stream("hdd"))
        db.attach_device("data", device)
        return _bind_metrics(IoTarget(design, cluster, span_bytes, device, db_server=db))

    if design == "SSD":
        device = SsdDevice(sim, name="ssd")
        db.attach_device("ssd", device)
        return _bind_metrics(IoTarget(design, cluster, span_bytes, device, db_server=db))

    mem = cluster.add_server("mem0", memory_bytes=max(384 * GB, span_bytes + 64 * GB))
    network.attach(mem)

    if design in ("SMB+RamDrive", "SMBDirect+RamDrive"):
        drive = RamDrive(sim, name="mem0.ramdrive")
        mem.attach_device("ramdrive", drive)
        file_server = SmbFileServer(mem, drive)
        if design == "SMB+RamDrive":
            client = SmbClient(db, file_server)
        else:
            client = SmbDirectClient(db, file_server)
        return _bind_metrics(IoTarget(
            design, cluster, span_bytes, client, db_server=db, memory_servers=(mem,)
        ))

    if design == "Custom":
        target = _build_custom(cluster, db, [mem], span_bytes)
        return _bind_metrics(IoTarget(
            design, cluster, span_bytes, target, db_server=db, memory_servers=(mem,)
        ))

    raise ValueError(f"unknown design {design!r}; expected one of {IO_DESIGNS}")


def _build_custom(
    cluster: Cluster,
    db: Server,
    memory_servers: list[Server],
    span_bytes: int,
    policy: AccessPolicy = AccessPolicy.SYNC,
    mr_bytes: int = 256 * MB,
) -> _RemoteFileAdapter:
    sim = cluster.sim
    broker = MemoryBroker(sim)
    fs = RemoteMemoryFilesystem(db, broker, StagingPool(db), policy=policy)
    per_server = -(-span_bytes // len(memory_servers))  # ceil division

    def setup():
        yield from fs.initialize()
        for server in memory_servers:
            proxy = MemoryProxy(server, broker, mr_bytes=mr_bytes)
            yield from proxy.offer_available(limit_bytes=per_server + mr_bytes)
        file = yield from fs.create(
            "iobench", span_bytes,
            providers=[s.name for s in memory_servers],
            spread=len(memory_servers) > 1,
        )
        yield from file.open()
        return file

    file = sim.run_until_complete(sim.spawn(setup()))
    return _RemoteFileAdapter(file)


def build_custom_multi(
    n_memory_servers: int,
    span_bytes: int = DEFAULT_SPAN,
    seed: int = 0,
    policy: AccessPolicy = AccessPolicy.SYNC,
) -> IoTarget:
    """Custom design with remote memory pooled from N servers (Figure 5)."""
    cluster, network, db = _base_cluster(seed)
    memory_servers = []
    for index in range(n_memory_servers):
        server = cluster.add_server(
            f"mem{index}", memory_bytes=max(384 * GB, span_bytes + 64 * GB)
        )
        network.attach(server)
        memory_servers.append(server)
    target = _build_custom(cluster, db, memory_servers, span_bytes, policy=policy)
    return _bind_metrics(IoTarget(
        f"Custom x{n_memory_servers}", cluster, span_bytes, target,
        db_server=db, memory_servers=tuple(memory_servers),
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
    network = Network(cluster.sim)
    mem = cluster.add_server(
        "mem0", memory_bytes=max(384 * GB, n_db_servers * per_db_span + 64 * GB)
    )
    network.attach(mem)
    broker = MemoryBroker(cluster.sim)
    sim = cluster.sim

    def offer():
        proxy = MemoryProxy(mem, broker, mr_bytes=256 * MB)
        yield from proxy.offer_available(
            limit_bytes=n_db_servers * per_db_span + 512 * MB
        )

    sim.run_until_complete(sim.spawn(offer()))
    targets = []
    for index in range(n_db_servers):
        db = cluster.add_server(f"db{index}")
        network.attach(db)
        fs = RemoteMemoryFilesystem(db, broker, StagingPool(db), policy=policy)

        def setup(fs=fs, index=index):
            yield from fs.initialize()
            file = yield from fs.create(f"iobench{index}", per_db_span)
            yield from file.open()
            return file

        file = sim.run_until_complete(sim.spawn(setup()))
        targets.append(
            IoTarget(
                f"db{index}", cluster, per_db_span, _RemoteFileAdapter(file),
                db_server=db, memory_servers=(mem,),
            )
        )
    # Bind after the loop so every registry sees the full cluster.
    return [_bind_metrics(target) for target in targets]
