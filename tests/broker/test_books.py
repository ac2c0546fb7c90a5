"""The broker's books balance after every lease exit.

Regressions for records that outlived their lease (expiry dropped the
lease but kept its ``leases/`` record) or their provider (a crash kept
the ``regions/`` records of leased MRs), and for ids drawn from
process-global counters (two identical set-ups in one process wrote
different keys).
"""

import pytest

from repro.broker import LeaseState
from repro.faults import FaultEngine, FaultPlan
from repro.harness import build_database
from repro.harness.designs import Design
from repro.storage import MB

from .test_broker import complete, make_cluster


def small_custom():
    return build_database(
        Design.CUSTOM, bp_pages=64, bpext_pages=256, tempdb_pages=256, seed=1
    )


def leased_fabric():
    cluster, _db, broker, proxies = make_cluster(memory_servers=1, spare_gb=1)
    complete(cluster.sim, proxies[0].offer_available())
    leases = complete(cluster.sim, broker.acquire("db", 48 * MB))
    return cluster.sim, broker, {proxy.server.name: proxy for proxy in proxies}, leases


def expire_by_force(sim, broker, leases):
    assert broker.force_expire(leases[:2]) == leases[:2]


def expire_by_overdue_renew(sim, broker, leases):
    sim.run(until=leases[0].expires_at_us + 1)
    assert complete(sim, broker.renew(leases[0])) is False


def expire_while_broker_down(sim, broker, leases):
    broker.fail()
    sim.run(until=leases[-1].expires_at_us + 1)
    assert complete(sim, broker.recover(replay=True)) == []


class TestExpiredLeasesLeaveNoRecord:
    @pytest.mark.parametrize(
        "expire",
        [expire_by_force, expire_by_overdue_renew, expire_while_broker_down],
        ids=["force_expire", "overdue_renew", "recover_after_expiry"],
    )
    def test_books_balance_after_expiry(self, expire):
        sim, broker, proxies, leases = leased_fabric()
        expire(sim, broker, leases)
        assert leases[0].state is LeaseState.EXPIRED
        counts = broker.verify(proxies)
        assert counts["recorded_leases"] == counts["active_leases"]

    def test_renewal_racing_expiry_revives_neither_lease_nor_record(self):
        sim, broker, proxies, leases = leased_fabric()
        renewal = sim.spawn(broker.renew(leases[0]))
        sim.run(until=sim.now + broker.store.op_latency_us / 2)
        broker.force_expire(leases[:1])
        assert sim.run_until_complete(renewal) is False
        assert leases[0].state is LeaseState.EXPIRED
        broker.verify(proxies)

    def test_expiry_charges_no_quorum_round(self):
        sim, broker, _proxies, leases = leased_fabric()
        operations, now = broker.store.operations, sim.now
        broker.force_expire(leases)
        assert (broker.store.operations, sim.now) == (operations, now)
        assert broker.store.peek_keys("leases/") == []

    def test_lease_storm_on_a_custom_setup(self):
        setup = small_custom()
        FaultEngine.for_setup(setup).run_plan(
            FaultPlan().lease_storm(setup.sim.now + 1_000, fraction=0.5)
        )
        setup.sim.run(until=setup.sim.now + 2_000)
        counts = setup.broker.verify(setup.proxies)
        assert counts["active_leases"] == counts["recorded_leases"] == 1


class TestCrashedProviderLeavesNoRecord:
    def test_permanent_crash_drops_every_region_record(self):
        setup = small_custom()
        assert setup.broker.leases_for(provider="mem0")
        FaultEngine.for_setup(setup).run_plan(
            FaultPlan().crash(setup.sim.now + 1_000, "mem0")
        )
        setup.sim.run(until=setup.sim.now + 10_000)
        assert setup.broker.store.peek_keys("regions/mem0/") == []
        counts = setup.broker.verify(setup.proxies)
        assert counts == {"active_leases": 0, "available_regions": 0, "recorded_leases": 0}

    def test_lost_lease_drops_both_records_in_one_round(self):
        sim, broker, proxies, leases = leased_fabric()
        operations = broker.store.operations
        available = len(broker.available_regions("mem0"))
        revoked = complete(sim, broker.fail_provider("mem0"))
        assert revoked == leases
        assert broker.store.operations - operations == available + len(leases)
        assert broker.store.peek_keys() == []


class TestIdsComeFromTheirIssuer:
    def test_identical_setups_in_one_process_write_identical_keys(self):
        first = small_custom().broker.store.peek_keys()
        second = small_custom().broker.store.peek_keys()
        assert first == second
        assert "leases/1" in first
