"""Tests for the lightweight file API over remote memory (Table 2)."""

import pytest

from repro.broker import MemoryBroker, MemoryProxy
from repro.cluster import Cluster
from repro.net import Network
from repro.remotefile import (
    AccessPolicy,
    RemoteFileError,
    RemoteMemoryFilesystem,
    RemoteMemoryUnavailable,
    StagingPool,
)
from repro.storage import GB, KB, MB


def make_fs(memory_servers=2, spare_gb=2, policy=AccessPolicy.SYNC):
    cluster = Cluster()
    network = Network(cluster.sim)
    db = cluster.add_server("db", memory_bytes=32 * GB)
    network.attach(db)
    broker = MemoryBroker(cluster.sim)
    proxies = []
    for index in range(memory_servers):
        server = cluster.add_server(f"mem{index}", memory_bytes=64 * GB)
        network.attach(server)
        server.commit_memory(server.memory_bytes - spare_gb * GB)
        proxy = MemoryProxy(server, broker, mr_bytes=16 * MB)
        proxies.append(proxy)
    fs = RemoteMemoryFilesystem(db, broker, StagingPool(db), policy=policy)
    sim = cluster.sim

    def setup():
        yield from fs.initialize()
        for proxy in proxies:
            yield from proxy.offer_available()

    sim.run_until_complete(sim.spawn(setup()))
    return cluster, fs, broker, proxies


def complete(sim, generator):
    return sim.run_until_complete(sim.spawn(generator))


def create_open(cluster, fs, name="f", size=64 * MB, **kwargs):
    file = complete(cluster.sim, fs.create(name, size, **kwargs))
    complete(cluster.sim, file.open())
    return file


class TestLifecycle:
    def test_create_leases_cover_size(self):
        cluster, fs, broker, _ = make_fs()
        file = complete(cluster.sim, fs.create("f", 100 * MB))
        assert file.size >= 100 * MB
        assert len(broker.active_leases) == len(file.leases)

    def test_open_connects_to_all_providers(self):
        cluster, fs, _broker, _ = make_fs(memory_servers=3)
        file = create_open(cluster, fs, size=64 * MB, spread=True)
        assert set(file._qps) == set(file.providers)
        assert len(file.providers) == 3

    def test_delete_releases_leases(self):
        cluster, fs, broker, _ = make_fs()
        file = create_open(cluster, fs)
        before = broker.available_bytes()
        complete(cluster.sim, fs.delete(file))
        assert broker.available_bytes() == before + file.size
        assert not file.is_open

    def test_duplicate_name_rejected(self):
        cluster, fs, _broker, _ = make_fs()
        complete(cluster.sim, fs.create("f", 16 * MB))
        with pytest.raises(RemoteFileError):
            complete(cluster.sim, fs.create("f", 16 * MB))

    def test_read_requires_open(self):
        cluster, fs, _broker, _ = make_fs()
        file = complete(cluster.sim, fs.create("f", 16 * MB))
        with pytest.raises(RemoteFileError):
            complete(cluster.sim, file.read(0, 8 * KB))


class TestDataPath:
    def test_write_spanning_regions(self):
        cluster, fs, _broker, _ = make_fs()
        file = create_open(cluster, fs, size=32 * MB)
        # A timing-only write and read across the 16 MB region boundary.
        offset = 16 * MB - 32 * KB
        complete(cluster.sim, file.write_nodata(offset, 64 * KB))
        complete(cluster.sim, file.read_nodata(offset, 64 * KB))
        assert (file.writes, file.reads) == (1, 1)

    def test_object_roundtrip(self):
        cluster, fs, _broker, _ = make_fs()
        file = create_open(cluster, fs)
        page = {"page_id": 7, "rows": [(1, "a"), (2, "b")]}
        complete(cluster.sim, file.write(8 * KB, 8 * KB, page))
        got = complete(cluster.sim, file.read(8 * KB, 8 * KB))
        assert got is page
        # Installed without simulated I/O, read back like any extent.
        start = cluster.sim.now
        file.install(16 * KB, 8 * KB, "installed")
        assert cluster.sim.now == start
        assert complete(cluster.sim, file.read(16 * KB, 8 * KB)) == "installed"

    def test_object_must_not_span_regions(self):
        cluster, fs, _broker, _ = make_fs()
        file = create_open(cluster, fs, size=32 * MB)
        with pytest.raises(RemoteFileError):
            complete(cluster.sim, file.write(16 * MB - 4 * KB, 8 * KB, object()))
        with pytest.raises(RemoteFileError):
            complete(cluster.sim, file.read(16 * MB - 4 * KB, 8 * KB))
        with pytest.raises(RemoteFileError):
            file.install(16 * MB - 4 * KB, 8 * KB, object())

    def test_object_write_needs_an_object(self):
        cluster, fs, _broker, _ = make_fs()
        file = create_open(cluster, fs)
        with pytest.raises(RemoteFileError):
            complete(cluster.sim, file.write(0, 8 * KB, None))
        assert file.writes == 0

    def test_out_of_range_rejected(self):
        cluster, fs, _broker, _ = make_fs()
        file = create_open(cluster, fs, size=16 * MB)
        with pytest.raises(RemoteFileError):
            complete(cluster.sim, file.read(16 * MB - 4 * KB, 8 * KB))

    def test_8k_read_latency_is_rdma_class(self):
        cluster, fs, _broker, _ = make_fs()
        file = create_open(cluster, fs)
        complete(cluster.sim, file.write(0, 8 * KB, "page"))
        start = cluster.sim.now
        complete(cluster.sim, file.read(0, 8 * KB))
        latency = cluster.sim.now - start
        # RDMA read + two memcpys + staging: ~10-20 us, far from the
        # ~600 us of the SSD or ~4500 us of the HDD.
        assert latency < 25

    def test_sync_policy_does_not_context_switch(self):
        cluster, fs, _broker, _ = make_fs(policy=AccessPolicy.SYNC)
        file = create_open(cluster, fs)
        file.install(0, 8 * KB, "page")
        db_cpu = fs.owner.cpu
        complete(cluster.sim, file.read(0, 8 * KB))
        assert db_cpu.context_switches == 0

    def test_async_policy_pays_context_switch(self):
        cluster, fs, _broker, _ = make_fs(policy=AccessPolicy.ASYNC)
        file = create_open(cluster, fs)
        file.install(0, 8 * KB, "page")
        db_cpu = fs.owner.cpu
        complete(cluster.sim, file.read(0, 8 * KB))
        assert db_cpu.context_switches >= 1

    def test_async_slower_than_sync(self):
        def one_read(policy):
            cluster, fs, _broker, _ = make_fs(policy=policy)
            file = create_open(cluster, fs)
            file.install(0, 8 * KB, "page")
            start = cluster.sim.now
            complete(cluster.sim, file.read(0, 8 * KB))
            return cluster.sim.now - start

        assert one_read(AccessPolicy.ASYNC) > one_read(AccessPolicy.SYNC)

    def test_adaptive_policy_fast_path(self):
        cluster, fs, _broker, _ = make_fs(policy=AccessPolicy.ADAPTIVE)
        file = create_open(cluster, fs)
        file.install(0, 8 * KB, "page")
        db_cpu = fs.owner.cpu
        complete(cluster.sim, file.read(0, 8 * KB))
        # An unloaded 8K RDMA read finishes inside the spin budget.
        assert db_cpu.context_switches == 0


class TestFaultTolerance:
    def test_expired_lease_raises_unavailable(self):
        cluster, fs, broker, _ = make_fs()
        file = create_open(cluster, fs, size=16 * MB)
        file.install(0, 8 * KB, "page")
        cluster.sim.run(until=cluster.sim.now + broker.lease_duration_us + 1)
        with pytest.raises(RemoteMemoryUnavailable):
            complete(cluster.sim, file.read(0, 8 * KB))

    def test_revocation_raises_unavailable(self):
        cluster, fs, broker, proxies = make_fs(memory_servers=1, spare_gb=1)
        file = create_open(cluster, fs, size=1 * GB)  # take everything
        for offset in range(0, file.size, 16 * MB):
            file.install(offset, 8 * KB, "page")
        complete(cluster.sim, proxies[0].handle_memory_pressure(16 * MB))
        with pytest.raises(RemoteMemoryUnavailable):
            # Some region of the file is gone; probing all of it must fail.
            for offset in range(0, file.size, 16 * MB):
                complete(cluster.sim, file.read(offset, 8 * KB))

    def test_renewal_daemon_keeps_file_alive(self):
        cluster, fs, broker, _ = make_fs()
        broker.lease_duration_us = 1e6
        file = create_open(cluster, fs, size=16 * MB)
        file.install(0, 8 * KB, "page")
        cluster.sim.spawn(fs.renewal_daemon(file))
        cluster.sim.run(until=cluster.sim.now + 5e6)
        assert complete(cluster.sim, file.read(0, 8 * KB)) == "page"  # still there
        assert file.leases[0].is_valid(cluster.sim.now)
