"""Tests for staging-pool mechanics and waiting-policy edge cases."""

import pytest

from repro.broker import MemoryBroker, MemoryProxy
from repro.cluster import Cluster
from repro.net import Network
from repro.remotefile import (
    AccessPolicy,
    RemoteMemoryFilesystem,
    StagingPool,
)
from repro.remotefile.api import ADAPTIVE_SPIN_US
from repro.storage import GB, KB, MB


def make_rig(policy=AccessPolicy.SYNC, schedulers=2, buffer_bytes=64 * 1024):
    cluster = Cluster()
    network = Network(cluster.sim)
    db = cluster.add_server("db")
    mem = cluster.add_server("mem0")
    network.attach(db)
    network.attach(mem)
    broker = MemoryBroker(cluster.sim)
    proxy = MemoryProxy(mem, broker, mr_bytes=64 * MB)
    staging = StagingPool(db, schedulers=schedulers, buffer_bytes=buffer_bytes)
    fs = RemoteMemoryFilesystem(db, broker, staging, policy=policy)
    sim = cluster.sim

    def setup():
        yield from fs.initialize()
        yield from proxy.offer_available(limit_bytes=1 * GB)
        file = yield from fs.create("f", 128 * MB)
        yield from file.open()
        return file

    file = sim.run_until_complete(sim.spawn(setup()))
    return cluster, db, file, staging


def complete(sim, generator):
    return sim.run_until_complete(sim.spawn(generator))


class TestStagingPool:
    def test_initialize_registers_one_region_per_scheduler(self):
        cluster, _db, _file, staging = make_rig(schedulers=2)
        assert len(staging.regions) == 2
        assert all(region.registered for region in staging.regions)

    def test_slots_bound_outstanding_transfers(self):
        # 2 schedulers x 64K buffers = 16 slots of 8K.
        cluster, _db, file, staging = make_rig(schedulers=2, buffer_bytes=64 * 1024)
        assert staging.slots.capacity == 16
        sim = cluster.sim
        done = []

        def reader(tag):
            yield from file.read_nodata(tag * 8 * KB, 8 * KB)
            done.append(tag)

        for tag in range(40):
            sim.spawn(reader(tag))
        sim.run()
        assert len(done) == 40  # all complete despite the slot cap

    def test_uninitialized_pool_rejected(self):
        cluster = Cluster()
        server = cluster.add_server("s")
        staging = StagingPool(server)
        with pytest.raises(RuntimeError):
            complete(cluster.sim, staging.acquire(8 * KB))

    def test_slot_math(self):
        cluster = Cluster()
        server = cluster.add_server("s")
        staging = StagingPool(server)
        assert staging.slots_for(1) == 1
        assert staging.slots_for(8 * KB) == 1
        assert staging.slots_for(8 * KB + 1) == 2
        assert staging.memcpy_us(8 * KB) == pytest.approx(2.0, rel=0.1)


class TestAdaptivePolicy:
    def test_adaptive_spins_for_fast_transfers(self):
        cluster, db, file, _staging = make_rig(policy=AccessPolicy.ADAPTIVE)
        complete(cluster.sim, file.read_nodata(0, 8 * KB))
        assert db.cpu.context_switches == 0

    def test_adaptive_falls_back_for_slow_transfers(self):
        cluster, db, file, _staging = make_rig(
            policy=AccessPolicy.ADAPTIVE, schedulers=8, buffer_bytes=1024 * 1024
        )
        # A transfer far larger than the spin budget can cover.
        size = 4 * MB  # ~750 us on the wire >> ADAPTIVE_SPIN_US
        assert size / (5.4 * 1024) > ADAPTIVE_SPIN_US  # sanity: slower than budget
        complete(cluster.sim, file.read_nodata(0, size))
        assert db.cpu.context_switches >= 1

    def test_fire_and_forget_write_returns_after_memcpy(self):
        cluster, db, file, staging = make_rig()
        sim = cluster.sim
        start = sim.now
        complete(sim, file.write(0, 8 * KB, {"page": 1}, background=True))
        # Returned after slot + memcpy, well before the RDMA completes.
        assert sim.now - start < 5.0
        sim.run(until=sim.now + 1000)
        # The slot was released by the completion callback.
        assert staging.slots.in_use == 0
        got = complete(sim, file.read(0, 8 * KB))
        assert got == {"page": 1}
