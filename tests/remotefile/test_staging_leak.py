"""Regression: interrupted transfers must not leak staging slots.

The old ``StagingPool.acquire`` yielded a bare resource request; a
process interrupted while *queued* (deadline expiry, NIC death) left the
request behind, the kernel granted it to the dead process, and the slots
were gone forever.  Enough brown-out rounds drained the whole pool.
"""

from repro.broker import MemoryBroker, MemoryProxy
from repro.cluster import Cluster
from repro.net import Network
from repro.reliability import ReliabilityLayer, ReliabilityPolicy
from repro.remotefile import RemoteMemoryFilesystem, StagingPool
from repro.storage import GB, KB, MB


def make_pool(schedulers=1, buffer_bytes=16 * KB):
    cluster = Cluster()
    db = cluster.add_server("db", memory_bytes=4 * GB)
    pool = StagingPool(db, schedulers=schedulers, buffer_bytes=buffer_bytes)
    sim = cluster.sim
    sim.run_until_complete(sim.spawn(pool.initialize()))
    return sim, pool


def complete(sim, generator):
    return sim.run_until_complete(sim.spawn(generator))


class TestAcquireInterruptSafety:
    def test_interrupted_waiter_releases_nothing_and_leaks_nothing(self):
        sim, pool = make_pool()  # 2 slots total
        held = []

        def holder():
            slots = yield from pool.acquire(16 * KB)
            held.append(slots)
            yield sim.event()  # hold until the test releases explicitly

        sim.spawn(holder())
        sim.run(until=sim.now + 1.0)
        assert pool.slots.in_use == 2

        def waiter():
            yield from pool.acquire(16 * KB)

        victim = sim.spawn(waiter())
        sim.run(until=sim.now + 2.0)
        assert pool.slots.queue_length == 1
        victim.interrupt(cause="deadline")
        sim.run(until=sim.now + 3.0)
        assert pool.slots.queue_length == 0

        pool.release(held[0])
        assert pool.slots.in_use == 0

        # The freed capacity is actually usable again.
        acquired = []

        def late():
            slots = yield from pool.acquire(16 * KB)
            acquired.append(slots)
            pool.release(slots)

        sim.spawn(late())
        sim.run(until=sim.now + 4.0)
        assert acquired == [2]

    def test_interrupt_after_grant_returns_slots(self):
        sim, pool = make_pool()

        def slow_holder():
            slots = yield from pool.acquire(16 * KB)
            try:
                yield sim.timeout(1_000.0)
            except BaseException:
                pool.release(slots)
                raise

        victim = sim.spawn(slow_holder())
        sim.run(until=sim.now + 1.0)
        assert pool.slots.in_use == 2
        victim.interrupt(cause="teardown")
        sim.run(until=sim.now + 2.0)
        assert pool.slots.in_use == 0


class TestDeadlineStormLeavesPoolIntact:
    def test_repeated_deadline_expiry_never_drains_the_pool(self):
        """End-to-end: reads time out under a browned-out NIC for many
        rounds; afterwards the staging pool is fully free and healthy
        reads still succeed."""
        cluster = Cluster(seed=5)
        sim = cluster.sim
        network = Network(sim)
        db = cluster.add_server("db", memory_bytes=32 * GB)
        network.attach(db)
        mem = cluster.add_server("mem0", memory_bytes=64 * GB)
        network.attach(mem)
        mem.commit_memory(mem.memory_bytes - 2 * GB)
        broker = MemoryBroker(sim)
        proxy = MemoryProxy(mem, broker, mr_bytes=16 * MB)
        policy = ReliabilityPolicy(
            read_deadline_us=200.0, retry_attempts=0,
            breaker_failure_threshold=1000,  # keep the path open for the storm
            per_provider_inflight=0,
        )
        layer = ReliabilityLayer(sim, cluster.rng.stream("reliability"), policy)
        staging = StagingPool(db, schedulers=1, buffer_bytes=32 * KB)  # 4 slots
        fs = RemoteMemoryFilesystem(db, broker, staging, reliability=layer)

        def setup():
            yield from fs.initialize()
            yield from proxy.offer_available()
            file = yield from fs.create("f", 16 * MB)
            yield from file.open()
            return file

        file = complete(sim, setup())
        page = {"page": 0}
        complete(sim, file.write(0, 16 * KB, page))

        mem.nic.degrade(latency_multiplier=500.0)
        outcomes = []

        def reader():
            try:
                yield from file.read(0, 16 * KB)
            except Exception as exc:  # DeadlineExceeded expected
                outcomes.append(type(exc).__name__)

        for round_no in range(6):
            for _ in range(3):  # more transfers than staging slots
                sim.spawn(reader())
            sim.run(until=sim.now + 5_000.0)
        assert outcomes.count("DeadlineExceeded") >= 6
        assert staging.slots.in_use == 0
        assert staging.slots.queue_length == 0

        mem.nic.restore_link()
        assert complete(sim, file.read(0, 16 * KB)) is page
