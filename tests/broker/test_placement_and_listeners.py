"""Satellite regressions: multi-listener revocations, pluggable
placement, and broker restarts racing in-flight reallocation."""

import pytest

from repro.broker import BrokerUnavailable, MemoryBroker, MemoryProxy
from repro.cluster import Cluster
from repro.net import Network
from repro.remotefile import RemoteMemoryFilesystem, StagingPool
from repro.storage import GB, MB


def make_cluster(memory_servers=2, mr_mb=16, spare_gb=4):
    cluster = Cluster()
    network = Network(cluster.sim)
    db = cluster.add_server("db", memory_bytes=32 * GB)
    network.attach(db)
    broker = MemoryBroker(cluster.sim)
    proxies = {}
    for index in range(memory_servers):
        server = cluster.add_server(f"mem{index}", memory_bytes=64 * GB)
        network.attach(server)
        server.commit_memory(server.memory_bytes - spare_gb * GB)
        proxies[server.name] = MemoryProxy(server, broker, mr_bytes=mr_mb * MB)
    return cluster, db, broker, proxies


def complete(sim, generator):
    return sim.run_until_complete(sim.spawn(generator))


def offer_all(cluster, proxies):
    for _name, proxy in sorted(proxies.items()):
        complete(cluster.sim, proxy.offer_available())


class TestRevocationListeners:
    def test_two_listeners_both_fire_in_registration_order(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1)
        offer_all(cluster, proxies)
        leases = complete(cluster.sim, broker.acquire("db", 16 * MB))
        fired = []
        broker.add_revocation_listener("db", lambda lease: fired.append("first"))
        broker.add_revocation_listener("db", lambda lease: fired.append("second"))
        complete(cluster.sim, broker.fail_provider("mem0"))
        assert fired == ["first", "second"]
        assert len(leases) == 1

    def test_duplicate_registration_fires_once(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=1)
        offer_all(cluster, proxies)
        complete(cluster.sim, broker.acquire("db", 16 * MB))
        fired = []

        def listener(lease):
            fired.append(lease.lease_id)

        broker.add_revocation_listener("db", listener)
        broker.add_revocation_listener("db", listener)
        complete(cluster.sim, broker.fail_provider("mem0"))
        assert len(fired) == 1


class TestPlacementHook:
    def test_default_behavior_drains_first_provider_fifo(self):
        # No hook installed: grants drain providers in sorted-name FIFO
        # order, exactly the pre-hook behavior.
        cluster, db, broker, proxies = make_cluster(memory_servers=2)
        offer_all(cluster, proxies)
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        assert [lease.provider for lease in leases] == ["mem0"] * 4

    def test_hook_drives_provider_choice_per_mr(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=2)
        offer_all(cluster, proxies)
        picks = []

        def round_robin(holder, candidates, broker_ref):
            picks.append(tuple(candidates))
            return candidates[len(picks) % len(candidates)]

        broker.placement = round_robin
        leases = complete(cluster.sim, broker.acquire("db", 64 * MB))
        assert sorted(lease.provider for lease in leases) == [
            "mem0", "mem0", "mem1", "mem1",
        ]
        assert len(picks) == 4  # consulted once per MR

    def test_hook_returning_none_falls_back_to_default(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=2)
        offer_all(cluster, proxies)
        broker.placement = lambda holder, candidates, broker_ref: None
        leases = complete(cluster.sim, broker.acquire("db", 32 * MB))
        assert [lease.provider for lease in leases] == ["mem0", "mem0"]

    def test_hook_picking_unknown_provider_falls_back(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=2)
        offer_all(cluster, proxies)
        broker.placement = lambda holder, candidates, broker_ref: "mem99"
        leases = complete(cluster.sim, broker.acquire("db", 16 * MB))
        assert leases[0].provider == "mem0"


class TestBrokerRestartRace:
    """A broker restart racing an in-flight reallocation must leave the
    lease table consistent with the metadata store: no double-grant, no
    orphaned MR, and the interrupted resize re-runnable to completion."""

    def _fs(self, cluster, db, broker):
        fs = RemoteMemoryFilesystem(db, broker, StagingPool(db))
        complete(cluster.sim, fs.initialize())
        return fs

    def test_restart_mid_reallocation_is_recoverable(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=2)
        sim = cluster.sim
        offer_all(cluster, proxies)
        fs = self._fs(cluster, db, broker)
        old = complete(sim, fs.create("ext.0", 48 * MB))

        outcome = {}

        def reallocate():
            # The fleet resize protocol: relinquish, then re-acquire.
            try:
                yield from fs.delete(old)
                file = yield from fs.create("ext.1", 64 * MB)
                outcome["file"] = file
            except BrokerUnavailable:
                outcome["aborted"] = True

        def saboteur():
            # Fail the broker while the delete's release RPCs are still
            # draining metadata-store writes (200us per operation).
            yield sim.timeout(300)
            broker.fail()

        proc = sim.spawn(reallocate())
        sim.spawn(saboteur())
        sim.run_until_complete(proc)
        assert outcome.get("aborted") is True

        survivors = complete(sim, broker.recover(replay=True))
        # Replay rebuilt exactly the recorded leases; invariants hold
        # even with the reallocation torn mid-flight.
        broker.verify(proxies)
        assert all(str(l.lease_id) in {
            key.rsplit("/", 1)[-1] for key in broker.store.peek_keys("leases/")
        } for l in survivors)

        # The resize is re-runnable after recovery and converges.
        def retry():
            yield from fs.delete(old)
            return (yield from fs.create("ext.1", 64 * MB))

        file = complete(sim, retry())
        counts = broker.verify(proxies)
        assert counts["active_leases"] == len(file.leases) == 4
        assert counts["recorded_leases"] == 4

    def test_restart_without_replay_revokes_and_stays_consistent(self):
        cluster, db, broker, proxies = make_cluster(memory_servers=2)
        sim = cluster.sim
        offer_all(cluster, proxies)
        fs = self._fs(cluster, db, broker)
        complete(sim, fs.create("ext.0", 48 * MB))
        broker.fail()
        with pytest.raises(BrokerUnavailable):
            complete(sim, broker.acquire("db", 16 * MB))
        survivors = complete(sim, broker.recover(replay=False))
        assert survivors == []
        counts = broker.verify()
        assert counts["active_leases"] == 0 and counts["recorded_leases"] == 0
