"""Fleet topology, marketplace rebalancing, and fault-storm behavior."""

import pytest

from repro.faults import FaultEngine, FaultPlan
from repro.fleet import (
    DiurnalShape,
    FleetSpec,
    FlashCrowdShape,
    MarketplacePolicy,
    QosClass,
    SteadyShape,
    TenantSpec,
    build_fleet,
    run_fleet,
)
from repro.tiers import TierSpec


def two_tenant_spec(**overrides) -> FleetSpec:
    defaults = dict(
        name="test",
        memory_servers=2,
        tenants=(
            TenantSpec(name="acme", replicas=1, ext_pages=512, bp_pages=48,
                       peak_queries_per_epoch=30, n_rows=2000, workers=4),
            TenantSpec(name="zen", replicas=1, ext_pages=512, bp_pages=48,
                       peak_queries_per_epoch=30, n_rows=2000, workers=4,
                       qos=QosClass.GOLD),
        ),
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestTopology:
    def test_build_counts_servers_and_tenants(self):
        spec = two_tenant_spec()
        setup = build_fleet(spec)
        assert [s.name for s in setup.memory_servers] == ["mem0", "mem1"]
        assert sorted(setup.tenants) == ["acme", "zen"]
        assert spec.db_servers == 2
        # Every replica starts with its static share, MR-rounded.
        for runtime in setup.tenants.values():
            assert runtime.ext_pages == 512

    def test_replicas_split_the_tenant_share(self):
        spec = two_tenant_spec(
            tenants=(
                TenantSpec(name="acme", replicas=2, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=30, n_rows=2000),
            ),
        )
        setup = build_fleet(spec)
        runtime = setup.tenants["acme"]
        assert len(runtime.replicas) == 2
        assert [replica.ext_pages for replica in runtime.replicas] == [512, 512]

    def test_databases_order_and_fault_targets(self):
        """Tenants by sorted name, replicas by index; a crash sweeps only
        the replicas that have an extension."""
        spec = two_tenant_spec(
            tenants=(
                TenantSpec(name="zen", replicas=2, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=30, n_rows=2000),
                TenantSpec(name="acme", replicas=1, bp_pages=48,
                           peak_queries_per_epoch=30, n_rows=2000,
                           tier=TierSpec(name="local")),
            ),
        )
        setup = build_fleet(spec)
        acme, zen = setup.tenants["acme"], setup.tenants["zen"]
        expected = [acme.replicas[0], zen.replicas[0], zen.replicas[1]]
        assert setup.databases == [replica.database for replica in expected]
        assert acme.replicas[0].database.pool.extension is None
        engine = FaultEngine.for_setup(setup)
        assert engine.extensions == [
            replica.database.pool.extension for replica in zen.replicas
        ]
        assert engine.proxies is setup.proxies and engine.broker is setup.broker

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            two_tenant_spec(
                tenants=(
                    TenantSpec(name="acme"),
                    TenantSpec(name="acme"),
                ),
            )

    def test_static_fleet_run_is_deterministic(self):
        reports = [
            run_fleet(build_fleet(two_tenant_spec()), epochs=2, epoch_us=1e6).as_dict()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
        assert reports[0]["tenants"]["acme"]["queries"] > 0

    def test_per_tenant_telemetry_registered(self):
        setup = build_fleet(two_tenant_spec())
        run_fleet(setup, epochs=1, epoch_us=1e6)
        flat = setup.metrics.flat()
        assert flat["fleet.tenant.acme.queries"] > 0
        assert flat["fleet.tenant.zen.ext_pages"] == 512.0


class TestMarketplace:
    def test_memory_follows_demand(self):
        # zen flash-crowds while acme idles: the marketplace must move
        # pages from the idle tenant to the loaded one.
        spec = two_tenant_spec(
            memory_servers=2,
            tenants=(
                TenantSpec(name="acme", replicas=1, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=40, n_rows=2000, workers=4,
                           shape=SteadyShape(level=0.05)),
                TenantSpec(name="zen", replicas=1, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=40, n_rows=2000, workers=4,
                           shape=FlashCrowdShape(at_us=0.0, duration_us=1e9),
                           qos=QosClass.GOLD),
            ),
        )
        policy = MarketplacePolicy(period_us=1e6, cooldown_us=2e6, min_delta_pages=64)
        setup = build_fleet(spec, marketplace=policy)
        report = run_fleet(setup, epochs=6, epoch_us=1e6)
        acme, zen = report.tenants["acme"], report.tenants["zen"]
        assert zen["ext_pages_final"] > 1024, "loaded tenant should have grown"
        assert acme["ext_pages_final"] < 1024, "idle tenant should have shrunk"
        assert acme["ext_pages_final"] >= spec.tenants[0].resolved_floor()
        assert report.marketplace["resizes"] > 0

    def test_floor_is_respected(self):
        spec = two_tenant_spec(
            tenants=(
                TenantSpec(name="acme", replicas=1, ext_pages=512, bp_pages=48,
                           peak_queries_per_epoch=20, n_rows=2000,
                           shape=SteadyShape(level=0.0), floor_pages=512),
                TenantSpec(name="zen", replicas=1, ext_pages=512, bp_pages=48,
                           peak_queries_per_epoch=40, n_rows=2000,
                           qos=QosClass.GOLD),
            ),
        )
        policy = MarketplacePolicy(period_us=1e6, cooldown_us=2e6, min_delta_pages=64)
        setup = build_fleet(spec, marketplace=policy)
        report = run_fleet(setup, epochs=5, epoch_us=1e6)
        assert report.tenants["acme"]["ext_pages_final"] >= 512

    def test_anti_affinity_spreads_tenant_leases(self):
        spec = two_tenant_spec(memory_servers=4)
        setup = build_fleet(spec, marketplace=True)
        for name, runtime in setup.tenants.items():
            holders = set(runtime.holders())
            providers = {
                lease.provider
                for lease in setup.broker.active_leases
                if lease.holder in holders
            }
            assert len(providers) > 1, f"{name} concentrated on one provider"

    def test_marketplace_run_is_deterministic(self):
        def once():
            policy = MarketplacePolicy(period_us=1e6, cooldown_us=2e6)
            setup = build_fleet(two_tenant_spec(), marketplace=policy)
            return run_fleet(setup, epochs=3, epoch_us=1e6).as_dict()

        assert once() == once()

    def test_consistency_verified_after_run(self):
        setup = build_fleet(two_tenant_spec(), marketplace=True)
        report = run_fleet(setup, epochs=2, epoch_us=1e6)
        assert report.consistency["active_leases"] == report.consistency["recorded_leases"]


class TestFleetUnderFaults:
    def test_memory_server_crash_degrades_not_destroys(self):
        spec = two_tenant_spec(memory_servers=4)
        policy = MarketplacePolicy(period_us=1e6, cooldown_us=2e6)
        setup = build_fleet(spec, marketplace=policy)
        plan = FaultPlan().crash(1.5e6, "mem0", duration_us=3e6)
        report = run_fleet(setup, epochs=5, epoch_us=1e6, fault_plan=plan)
        for name, tenant in report.tenants.items():
            assert tenant["queries"] > 0, f"{name} starved by a single crash"
        # Anti-affinity means the crash revoked only a slice of each
        # tenant's leases, and the marketplace re-granted afterwards.
        assert report.consistency["active_leases"] > 0

    def test_crash_storm_is_deterministic(self):
        def once():
            policy = MarketplacePolicy(period_us=1e6, cooldown_us=2e6)
            setup = build_fleet(two_tenant_spec(memory_servers=4), marketplace=policy)
            plan = (
                FaultPlan()
                .crash(1.5e6, "mem0", duration_us=2e6)
                .crash(1.7e6, "mem1", duration_us=2e6)
            )
            return run_fleet(setup, epochs=4, epoch_us=1e6, fault_plan=plan).as_dict()

        assert once() == once()

    def test_broker_restart_aborts_round_and_recovers(self):
        spec = two_tenant_spec(
            tenants=(
                TenantSpec(name="acme", replicas=1, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=40, n_rows=2000,
                           shape=SteadyShape(level=0.05)),
                TenantSpec(name="zen", replicas=1, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=40, n_rows=2000,
                           qos=QosClass.GOLD),
            ),
        )
        policy = MarketplacePolicy(period_us=1e6, cooldown_us=2e6, min_delta_pages=64)
        setup = build_fleet(spec, marketplace=policy)
        # Down across the first rebalance rounds, then replayed back.
        plan = FaultPlan().broker_restart(0.9e6, duration_us=2.2e6, replay=True)
        report = run_fleet(setup, epochs=6, epoch_us=1e6, fault_plan=plan)
        # The run finished, the lease table matches the metadata store,
        # and the marketplace caught up after recovery.
        assert report.consistency["active_leases"] == report.consistency["recorded_leases"]
        assert report.tenants["zen"]["queries"] > 0

    def test_diurnal_shift_with_marketplace(self):
        spec = two_tenant_spec(
            memory_servers=4,
            tenants=(
                TenantSpec(name="acme", replicas=2, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=40, n_rows=2000, workers=4,
                           shape=DiurnalShape(period_us=8e6, low=0.1, high=1.0, phase=0.0)),
                TenantSpec(name="zen", replicas=2, ext_pages=1024, bp_pages=48,
                           peak_queries_per_epoch=40, n_rows=2000, workers=4,
                           shape=DiurnalShape(period_us=8e6, low=0.1, high=1.0, phase=0.5),
                           qos=QosClass.GOLD),
            ),
        )
        policy = MarketplacePolicy(period_us=1e6, cooldown_us=2e6, min_delta_pages=64)
        setup = build_fleet(spec, marketplace=policy)
        report = run_fleet(setup, epochs=8, epoch_us=1e6)
        assert report.marketplace["resizes"] > 0
        assert report.marketplace["reclaimed_pages"] > 0
        assert report.marketplace["granted_pages"] > 0
