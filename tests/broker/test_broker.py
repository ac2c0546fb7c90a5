"""Unit tests for the memory broker, leases, proxy and metadata store."""

import pytest

from repro.broker import (
    BrokerUnavailable,
    InsufficientMemory,
    LeaseState,
    MemoryBroker,
    MemoryProxy,
    MetadataStore,
)
from repro.cluster import Cluster
from repro.net import Network
from repro.storage import GB, MB


def make_cluster(memory_servers=2, spare_gb=4):
    cluster = Cluster()
    network = Network(cluster.sim)
    db = cluster.add_server("db", memory_bytes=32 * GB)
    network.attach(db)
    broker = MemoryBroker(cluster.sim)
    proxies = []
    for index in range(memory_servers):
        server = cluster.add_server(f"mem{index}", memory_bytes=64 * GB)
        network.attach(server)
        # Commit all but `spare_gb` to local processes.
        server.commit_memory(server.memory_bytes - spare_gb * GB)
        proxies.append(MemoryProxy(server, broker, mr_bytes=16 * MB))
    return cluster, db, broker, proxies


def complete(sim, generator):
    return sim.run_until_complete(sim.spawn(generator))


class TestMetadataStore:
    def test_put_get_roundtrip(self):
        cluster = Cluster()
        store = MetadataStore(cluster.sim)
        complete(cluster.sim, store.put("k", {"v": 1}))
        assert store.peek("k") == {"v": 1}

    def test_operations_cost_latency(self):
        cluster = Cluster()
        store = MetadataStore(cluster.sim, op_latency_us=200)
        complete(cluster.sim, store.put("k", 1))
        assert cluster.sim.now == pytest.approx(200)

    def test_keys_prefix_listing(self):
        cluster = Cluster()
        store = MetadataStore(cluster.sim)
        complete(cluster.sim, store.put("leases/1", 1))
        complete(cluster.sim, store.put("leases/2", 1))
        complete(cluster.sim, store.put("regions/x", 1))
        assert complete(cluster.sim, store.keys("leases/")) == ["leases/1", "leases/2"]


class TestProxyOffer:
    def test_offer_carves_fixed_size_regions(self):
        cluster, _db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        regions = complete(cluster.sim, proxies[0].offer_available())
        assert len(regions) == 64  # 1 GB / 16 MB
        assert broker.available_bytes("mem0") == 1 * GB

    def test_offer_respects_reserve(self):
        cluster, _db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        proxies[0].reserve_bytes = 512 * MB
        complete(cluster.sim, proxies[0].offer_available())
        assert broker.available_bytes("mem0") == 512 * MB

    def test_offered_memory_is_pinned(self):
        cluster, _db, _broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        server = proxies[0].server
        before = server.memory_available
        complete(cluster.sim, proxies[0].offer_available())
        assert server.memory_available == before - 1 * GB


class TestLeasing:
    def test_acquire_grants_enough_bytes(self):
        cluster, db, broker, proxies = make_cluster()
        for proxy in proxies:
            complete(cluster.sim, proxy.offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 100 * MB))
        assert sum(l.region.size for l in leases) >= 100 * MB
        assert all(l.state is LeaseState.ACTIVE for l in leases)
        assert all(l.holder == "db" for l in leases)

    def test_acquire_spread_round_robins_providers(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=4)
        for proxy in proxies:
            complete(cluster.sim, proxy.offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 256 * MB, spread=True))
        providers = {lease.provider for lease in leases}
        assert providers == {"mem0", "mem1", "mem2", "mem3"}

    def test_acquire_insufficient_memory(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        with pytest.raises(InsufficientMemory):
            complete(cluster.sim, broker.acquire("db", 2 * GB))

    def test_lease_exclusive_until_released(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 1 * GB))
        assert broker.available_bytes() == 0
        for lease in leases:
            complete(cluster.sim, broker.release(lease))
        assert broker.available_bytes() == 1 * GB
        assert all(l.state is LeaseState.RELEASED for l in leases)

    def test_renewal_extends_expiry(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        (lease, *_rest) = complete(cluster.sim, broker.acquire("db", 16 * MB))
        old_expiry = lease.expires_at_us
        cluster.sim.run(until=cluster.sim.now + 1e6)
        assert complete(cluster.sim, broker.renew(lease)) is True
        assert lease.expires_at_us > old_expiry

    def test_expired_lease_cannot_renew(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        (lease, *_rest) = complete(cluster.sim, broker.acquire("db", 16 * MB))
        cluster.sim.run(until=cluster.sim.now + broker.lease_duration_us + 1)
        assert complete(cluster.sim, broker.renew(lease)) is False
        assert lease.state is LeaseState.EXPIRED

    def test_expiry_returns_region_to_pool(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        complete(cluster.sim, broker.acquire("db", 1 * GB))
        cluster.sim.run(until=cluster.sim.now + broker.lease_duration_us + 1)
        broker.check_expiry()
        assert broker.available_bytes() == 1 * GB

    def test_provider_restriction(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=3)
        for proxy in proxies:
            complete(cluster.sim, proxy.offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB, providers=["mem2"]))
        assert {l.provider for l in leases} == {"mem2"}


class TestMemoryPressure:
    def test_pressure_withdraws_unleased_regions(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=2)
        proxy = proxies[0]
        complete(cluster.sim, proxy.offer_available())
        reclaimed = complete(cluster.sim, proxy.handle_memory_pressure(256 * MB))
        assert reclaimed >= 256 * MB
        assert proxy.server.memory_available >= 256 * MB

    def test_pressure_revokes_leases_when_all_leased(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        proxy = proxies[0]
        complete(cluster.sim, proxy.offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 1 * GB))
        revoked_seen = []
        broker.add_revocation_listener("db", revoked_seen.append)
        reclaimed = complete(cluster.sim, proxy.handle_memory_pressure(32 * MB))
        assert reclaimed >= 32 * MB
        assert revoked_seen, "holder must be notified of revocation"
        assert any(l.state is LeaseState.REVOKED for l in leases)

    def test_db_continues_after_revocation(self):
        """Correctness is unaffected: revoked lease just becomes invalid."""
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        proxy = proxies[0]
        complete(cluster.sim, proxy.offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 1 * GB))
        complete(cluster.sim, proxy.handle_memory_pressure(16 * MB))
        revoked = [l for l in leases if l.state is LeaseState.REVOKED]
        assert revoked
        assert not revoked[0].is_valid(cluster.sim.now)


class TestBrokerMetadata:
    def test_leases_are_recorded_in_replicated_store(self):
        """The broker's state lives in the metadata store (the paper's
        Zookeeper argument: a broker crash loses nothing)."""
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        keys = complete(cluster.sim, broker.store.keys("leases/"))
        assert len(keys) == len(leases)
        for lease in leases:
            record = broker.store.peek(f"leases/{lease.lease_id}")
            assert record["holder"] == "db"
            assert record["provider"] == lease.provider

    def test_release_removes_lease_records(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        for lease in leases:
            complete(cluster.sim, broker.release(lease))
        assert complete(cluster.sim, broker.store.keys("leases/")) == []

    def test_regions_catalogued_per_provider(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=2, spare_gb=1)
        for proxy in proxies:
            complete(cluster.sim, proxy.offer_available())
        keys = complete(cluster.sim, broker.store.keys("regions/"))
        assert any(key.startswith("regions/mem0/") for key in keys)
        assert any(key.startswith("regions/mem1/") for key in keys)

    def test_broker_not_in_data_path(self):
        """After the lease grant, transfers never touch the broker: the
        store's operation count stays flat during reads."""
        from repro.remotefile import RemoteMemoryFilesystem, StagingPool

        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        fs = RemoteMemoryFilesystem(db, broker, StagingPool(db))

        def setup():
            yield from fs.initialize()
            yield from proxies[0].offer_available()
            file = yield from fs.create("f", 64 * MB)
            yield from file.open()
            return file

        file = complete(cluster.sim, setup())
        before = broker.store.operations
        for _ in range(25):
            complete(cluster.sim, file.read_nodata(0, 8192))
        assert broker.store.operations == before


class TestDaemons:
    def test_expiry_daemon_sweeps_overdue_leases(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        broker.lease_duration_us = 2e6
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        cluster.sim.spawn(broker.expiry_daemon(period_us=0.5e6))
        cluster.sim.run(until=cluster.sim.now + 3e6)
        assert all(lease.state is LeaseState.EXPIRED for lease in leases)
        assert broker.available_bytes() == 1 * GB

    def test_pressure_monitor_keeps_watermark_free(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=2)
        proxy = proxies[0]
        complete(cluster.sim, proxy.offer_available())
        server = proxy.server
        assert server.memory_available < 512 * MB  # everything offered
        cluster.sim.spawn(proxy.pressure_monitor(period_us=0.5e6,
                                                 watermark_bytes=512 * MB))
        cluster.sim.run(until=cluster.sim.now + 2e6)
        assert server.memory_available >= 512 * MB

class TestExpiryMechanics:
    def test_check_expiry_returns_only_newly_expired(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 32 * MB))
        cluster.sim.run(until=cluster.sim.now + broker.lease_duration_us + 1)
        first = broker.check_expiry()
        assert sorted(l.lease_id for l in first) == sorted(l.lease_id for l in leases)
        assert broker.check_expiry() == []  # second sweep finds nothing new

    def test_renewal_race_with_expiry_sweep(self):
        """A renew that arrives after the sweep at the expiry instant
        loses: the lease is already EXPIRED and cannot be revived."""
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        (lease, *_rest) = complete(cluster.sim, broker.acquire("db", 16 * MB))
        cluster.sim.run(until=lease.expires_at_us + 1)
        broker.check_expiry()
        assert lease.state is LeaseState.EXPIRED
        assert complete(cluster.sim, broker.renew(lease)) is False
        assert lease.state is LeaseState.EXPIRED

    def test_renewal_just_before_expiry_wins(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        (lease, *_rest) = complete(cluster.sim, broker.acquire("db", 16 * MB))
        cluster.sim.run(until=lease.expires_at_us - 300)
        assert complete(cluster.sim, broker.renew(lease)) is True
        broker.check_expiry()
        assert lease.state is LeaseState.ACTIVE

    def test_revoke_one_prefers_oldest_lease(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        first = complete(cluster.sim, broker.acquire("db", 16 * MB))[0]
        second = complete(cluster.sim, broker.acquire("db", 16 * MB))[0]
        revoked = complete(cluster.sim, broker.revoke_one("mem0"))
        assert revoked is first
        assert first.state is LeaseState.REVOKED
        assert second.state is LeaseState.ACTIVE

    def test_revoke_one_without_leases_returns_none(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        assert complete(cluster.sim, broker.revoke_one("mem0")) is None

    def test_force_expire_returns_regions_to_pool(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        before = broker.available_bytes("mem0")
        expired = broker.force_expire(leases)
        assert len(expired) == len(leases)
        assert broker.available_bytes("mem0") == before + 64 * MB

    def test_expiry_during_inflight_transfer(self):
        """One-sided RDMA in flight when the lease expires still lands;
        the *next* access sees the invalid lease and fails cleanly."""
        from repro.engine.files import RemoteMemoryUnavailable
        from repro.remotefile import RemoteMemoryFilesystem, StagingPool

        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        fs = RemoteMemoryFilesystem(db, broker, StagingPool(db))

        def setup():
            yield from fs.initialize()
            yield from proxies[0].offer_available()
            file = yield from fs.create("f", 64 * MB)
            yield from file.open()
            return file

        file = complete(cluster.sim, setup())
        outcomes = []

        def reader():
            try:
                yield from file.read_nodata(0, 4 * MB)  # long transfer
                outcomes.append("ok")
            except RemoteMemoryUnavailable:
                outcomes.append("failed")

        def expirer():
            yield cluster.sim.timeout(50)  # mid-transfer
            broker.force_expire(broker.leases_for(holder="db"))

        process = cluster.sim.spawn(reader())
        cluster.sim.spawn(expirer())
        cluster.sim.run_until_complete(process)
        assert outcomes == ["ok"]

        def reader_again():
            yield from file.read_nodata(0, 8192)

        with pytest.raises(RemoteMemoryUnavailable):
            complete(cluster.sim, reader_again())


class TestBrokerFailover:
    def test_rpcs_fail_while_broker_down(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        broker.fail()
        with pytest.raises(BrokerUnavailable):
            complete(cluster.sim, broker.acquire("db", 16 * MB))

    def test_dead_broker_stops_expiry_sweeps(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 16 * MB))
        broker.fail()
        cluster.sim.run(until=cluster.sim.now + broker.lease_duration_us + 1)
        assert broker.check_expiry() == []
        assert leases[0].state is LeaseState.ACTIVE  # nobody swept it

    def test_recover_with_replay_keeps_active_leases(self):
        """Paper Section 4.2: broker state lives in the replicated
        metadata store, so a new broker instance re-learns the leases."""
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        broker.fail()
        survivors = complete(cluster.sim, broker.recover(replay=True))
        assert sorted(l.lease_id for l in survivors) == sorted(l.lease_id for l in leases)
        assert all(l.state is LeaseState.ACTIVE for l in leases)
        assert broker.alive

    def test_recover_without_replay_revokes_everything(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        broker.fail()
        survivors = complete(cluster.sim, broker.recover(replay=False))
        assert survivors == []
        assert all(l.state is LeaseState.REVOKED for l in leases)

    def test_recover_sweeps_leases_that_expired_during_downtime(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        leases = complete(cluster.sim, broker.acquire("db", 16 * MB))
        broker.fail()
        cluster.sim.run(until=cluster.sim.now + broker.lease_duration_us + 1)
        survivors = complete(cluster.sim, broker.recover(replay=True))
        assert survivors == []
        assert leases[0].state is LeaseState.EXPIRED

    def test_fail_provider_revokes_without_recycling_regions(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=2, spare_gb=1)
        for proxy in proxies:
            complete(cluster.sim, proxy.offer_available())
        leases = complete(
            cluster.sim, broker.acquire("db", 32 * MB, providers=["mem0"])
        )
        revoked = complete(cluster.sim, broker.fail_provider("mem0"))
        assert sorted(l.lease_id for l in revoked) == sorted(l.lease_id for l in leases)
        assert all(l.state is LeaseState.REVOKED for l in leases)
        # Dead regions must NOT return to the available pool...
        assert broker.available_bytes("mem0") == 0
        # ...and the survivor provider is untouched.
        assert broker.available_bytes("mem1") == 1 * GB

    def test_fail_provider_notifies_holder(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
        complete(cluster.sim, proxies[0].offer_available())
        complete(cluster.sim, broker.acquire("db", 16 * MB))
        seen = []
        broker.add_revocation_listener("db", seen.append)
        complete(cluster.sim, broker.fail_provider("mem0"))
        assert len(seen) == 1
