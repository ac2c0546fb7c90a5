"""Injector tests: each fault kind driven through the public layer hooks."""

import numpy as np
import pytest

from repro.broker import BrokerUnavailable, LeaseState, MemoryBroker, MemoryProxy
from repro.cluster import Cluster
from repro.engine.files import RemoteMemoryUnavailable
from repro.faults import FaultEngine, FaultKind, FaultPlan, FaultSpec, RecoveryMonitor
from repro.net import Network
from repro.remotefile import RemoteMemoryFilesystem, StagingPool
from repro.storage import GB, MB


class Fabric:
    """A DB server, two memory servers, broker, remote FS and one file."""

    def __init__(self, memory_servers=2, spare_gb=1, file_mb=64):
        self.cluster = Cluster(seed=7)
        self.sim = self.cluster.sim
        network = Network(self.sim)
        self.db = self.cluster.add_server("db", memory_bytes=32 * GB)
        network.attach(self.db)
        self.broker = MemoryBroker(self.sim)
        self.proxies = {}
        for index in range(memory_servers):
            server = self.cluster.add_server(f"mem{index}", memory_bytes=64 * GB)
            network.attach(server)
            server.commit_memory(server.memory_bytes - spare_gb * GB)
            self.proxies[server.name] = MemoryProxy(server, self.broker, mr_bytes=16 * MB)
        self.fs = RemoteMemoryFilesystem(self.db, self.broker, StagingPool(self.db))

        def setup():
            yield from self.fs.initialize()
            for proxy in self.proxies.values():
                yield from proxy.offer_available()
            file = yield from self.fs.create(
                "f", file_mb * MB, spread=memory_servers > 1
            )
            yield from file.open()
            return file

        self.file = self.run(setup())
        self.restored = []
        self.monitor = RecoveryMonitor(self.sim)
        self.engine = FaultEngine(
            sim=self.sim,
            servers=dict(self.cluster.servers),
            broker=self.broker,
            proxies=self.proxies,
            rng=np.random.default_rng(11),
            on_provider_restored=self.restored.append,
        )

    def run(self, generator):
        return self.sim.run_until_complete(self.sim.spawn(generator))

    def fire(self, spec):
        return self.run(self.engine.fire(spec))

    def settle(self, delay_us):
        self.sim.run(until=self.sim.now + delay_us)


class TestMemoryServerCrash:
    def test_crash_revokes_leases_and_darkens_server(self):
        fabric = Fabric()
        leases = [l for l in fabric.file.leases if l.provider == "mem0"]
        assert leases
        details = fabric.fire(FaultSpec(0, FaultKind.MEMORY_SERVER_CRASH, "mem0"))
        server = fabric.cluster.servers["mem0"]
        assert not server.alive and not server.nic.alive
        assert all(l.state is LeaseState.REVOKED for l in leases)
        assert details["revoked_leases"] == len(leases)
        # Crashed regions are gone, not back in the pool.
        assert fabric.broker.available_bytes("mem0") == 0
        assert fabric.proxies["mem0"].offered == []

    def test_crash_aborts_inflight_transfer(self):
        fabric = Fabric(memory_servers=1)
        outcomes = []

        def reader():
            try:
                yield from fabric.file.read_nodata(0, 4 * MB)
                outcomes.append("ok")
            except RemoteMemoryUnavailable:
                outcomes.append("aborted")

        def crasher():
            yield fabric.sim.timeout(40)  # mid-transfer
            yield from fabric.engine.fire(
                FaultSpec(0, FaultKind.MEMORY_SERVER_CRASH, "mem0")
            )

        process = fabric.sim.spawn(reader())
        fabric.sim.spawn(crasher())
        fabric.sim.run_until_complete(process)
        assert outcomes == ["aborted"]

    def test_access_after_crash_fails_cleanly(self):
        fabric = Fabric(memory_servers=1)
        fabric.fire(FaultSpec(0, FaultKind.MEMORY_SERVER_CRASH, "mem0"))
        with pytest.raises(RemoteMemoryUnavailable):
            fabric.run(fabric.file.read_nodata(0, 8192))

    def test_timed_crash_restores_server_and_reoffers_memory(self):
        fabric = Fabric()
        offered_before = fabric.proxies["mem0"].offered_bytes
        fabric.fire(
            FaultSpec(0, FaultKind.MEMORY_SERVER_CRASH, "mem0", duration_us=10_000)
        )
        assert fabric.broker.available_bytes("mem0") == 0
        fabric.settle(2_000_000)  # restore window + re-pin/re-offer RPCs
        server = fabric.cluster.servers["mem0"]
        assert server.alive and server.nic.alive
        assert fabric.proxies["mem0"].offered_bytes == offered_before
        assert fabric.broker.available_bytes("mem0") == offered_before
        assert fabric.restored == ["mem0"]

    def test_unknown_target_rejected(self):
        fabric = Fabric()
        with pytest.raises(KeyError):
            fabric.fire(FaultSpec(0, FaultKind.MEMORY_SERVER_CRASH, "nosuch"))


class TestLinkDegradation:
    def read_time(self, fabric):
        begin = fabric.sim.now
        fabric.run(fabric.file.read_nodata(0, 256 * 1024))
        return fabric.sim.now - begin

    def test_latency_multiplier_slows_transfers(self):
        fabric = Fabric(memory_servers=1)
        baseline = self.read_time(fabric)
        fabric.fire(
            FaultSpec(
                0,
                FaultKind.LINK_DEGRADATION,
                "mem0",
                duration_us=1e9,
                params={"latency_multiplier": 8.0},
            )
        )
        degraded = self.read_time(fabric)
        assert degraded > baseline * 2

    def test_packet_loss_pays_retransmissions(self):
        fabric = Fabric(memory_servers=1)
        nic = fabric.cluster.servers["mem0"].nic
        fabric.fire(
            FaultSpec(
                0,
                FaultKind.LINK_DEGRADATION,
                "mem0",
                duration_us=1e9,
                params={"drop_probability": 0.4},
            )
        )
        for _ in range(20):
            fabric.run(fabric.file.read_nodata(0, 8192))
        assert nic.retransmits > 0

    def test_restore_returns_to_baseline(self):
        fabric = Fabric(memory_servers=1)
        baseline = self.read_time(fabric)
        fabric.fire(
            FaultSpec(
                0,
                FaultKind.LINK_DEGRADATION,
                "mem0",
                duration_us=5_000,
                params={"latency_multiplier": 8.0},
            )
        )
        fabric.settle(10_000)  # past the restore point
        healed = self.read_time(fabric)
        assert healed == pytest.approx(baseline, rel=0.01)


class TestLeaseExpiryStorm:
    def test_fraction_of_leases_expired(self):
        fabric = Fabric()
        active_before = len(fabric.broker.leases_for())
        assert active_before >= 4
        details = fabric.fire(
            FaultSpec(0, FaultKind.LEASE_EXPIRY_STORM, "", params={"fraction": 0.5})
        )
        assert details["expired_leases"] == round(0.5 * active_before)
        assert len(fabric.broker.leases_for()) == active_before - details["expired_leases"]

    def test_storm_scoped_to_provider(self):
        fabric = Fabric()
        mem1_before = len(fabric.broker.leases_for(provider="mem1"))
        fabric.fire(
            FaultSpec(0, FaultKind.LEASE_EXPIRY_STORM, "mem0", params={"fraction": 1.0})
        )
        assert fabric.broker.leases_for(provider="mem0") == []
        assert len(fabric.broker.leases_for(provider="mem1")) == mem1_before

    def test_storm_subset_is_seeded(self):
        survivors = []
        for _ in range(2):
            fabric = Fabric()
            before = fabric.broker.leases_for()  # id-ordered
            fabric.fire(
                FaultSpec(0, FaultKind.LEASE_EXPIRY_STORM, "", params={"fraction": 0.5})
            )
            survivors.append(
                [index for index, lease in enumerate(before)
                 if lease.state is LeaseState.ACTIVE]
            )
        assert survivors[0] and survivors[0] == survivors[1]

    def test_storm_with_no_leases_is_noop(self):
        fabric = Fabric()
        fabric.run(fabric.fs.delete(fabric.file))
        details = fabric.fire(
            FaultSpec(0, FaultKind.LEASE_EXPIRY_STORM, "", params={"fraction": 1.0})
        )
        assert details == {"expired_leases": 0}


class TestBrokerRestart:
    def test_rpcs_fail_until_restore(self):
        fabric = Fabric()
        fabric.fire(FaultSpec(0, FaultKind.BROKER_RESTART, "", duration_us=5_000))
        with pytest.raises(BrokerUnavailable):
            fabric.run(fabric.broker.acquire("db", 16 * MB))
        fabric.settle(100_000)
        assert fabric.broker.alive
        fabric.run(fabric.broker.acquire("db", 16 * MB))  # works again

    def test_replay_preserves_leases(self):
        fabric = Fabric()
        leases = list(fabric.file.leases)
        fabric.fire(
            FaultSpec(0, FaultKind.BROKER_RESTART, "", duration_us=5_000,
                      params={"replay": True})
        )
        fabric.settle(100_000)
        assert all(l.state is LeaseState.ACTIVE for l in leases)

    def test_no_replay_revokes_leases(self):
        fabric = Fabric()
        leases = list(fabric.file.leases)
        fabric.fire(
            FaultSpec(0, FaultKind.BROKER_RESTART, "", duration_us=5_000,
                      params={"replay": False})
        )
        fabric.settle(100_000)
        assert all(l.state is LeaseState.REVOKED for l in leases)


class TestPlanDriver:
    def test_plan_fires_at_scheduled_virtual_times(self):
        fabric = Fabric()
        monitor = fabric.monitor
        base = fabric.sim.now  # setup already burned virtual time
        plan = (
            FaultPlan()
            .degrade_link(base + 2_000, "mem0", 1_000, latency_multiplier=2.0)
            .lease_storm(base + 5_000, fraction=0.25)
        )
        fabric.engine.run_plan(plan)
        fabric.settle(10_000)
        assert [r.injected_at_us for r in monitor.records] == [base + 2_000, base + 5_000]
        assert fabric.engine.faults_fired == 2

    def test_overdue_specs_fire_immediately(self):
        fabric = Fabric()
        plan = FaultPlan().lease_storm(100, fraction=0.25)  # already past
        now = fabric.sim.now
        assert now > 100
        fabric.engine.run_plan(plan)
        fabric.settle(1_000)
        assert fabric.monitor.records[0].injected_at_us == now


class TestRandomStormReplay:
    """Continuous random faults are a pre-drawn ``random_storm`` replayed
    by ``run_plan``: every drawn fault fires, in virtual time."""

    def test_run_plan_fires_every_storm_fault_within_the_horizon(self):
        fabric = Fabric()
        horizon = 3e6
        plan = FaultPlan.random_storm(
            np.random.default_rng(5), horizon, mean_interval_us=0.2e6,
            targets=["mem0", "mem1"], mean_duration_us=0.5e6,
        )
        assert len(plan) >= 3
        end = fabric.sim.now + horizon  # specs already due fire at once
        fabric.engine.run_plan(plan)
        fabric.settle(horizon)
        records = fabric.monitor.records
        assert fabric.engine.faults_fired == len(records) == len(plan)
        assert [r.spec for r in records] == plan.sorted_specs()
        assert all(r.spec.at_us <= r.injected_at_us < end for r in records)

    def test_kinds_without_crash_never_crash_a_server(self):
        fabric = Fabric()
        kinds = [
            FaultKind.LINK_DEGRADATION,
            FaultKind.LEASE_EXPIRY_STORM,
            FaultKind.BROKER_RESTART,
        ]
        plan = FaultPlan.random_storm(
            np.random.default_rng(5), 5e6, mean_interval_us=0.1e6,
            targets=["mem0", "mem1"], kinds=kinds, mean_duration_us=0.5e6,
        )
        assert len(plan) >= 10
        fabric.engine.run_plan(plan)
        fabric.settle(5e6)
        fired = [r.spec.kind for r in fabric.monitor.records]
        assert len(fired) == len(plan)
        assert FaultKind.MEMORY_SERVER_CRASH not in fired
        assert all(fabric.cluster.servers[name].alive for name in ("mem0", "mem1"))
