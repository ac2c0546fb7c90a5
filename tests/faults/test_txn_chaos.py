"""The headline robustness scenario: faults mid-transaction.

A memory-server crash sweeps pages out of the buffer-pool extension
while conflict-heavy TPC-C transactions are in flight.  The lock
manager, WAL and broker lease recovery must cooperate: every doomed
transaction rolls back cleanly (no leaked locks, no half-applied
writes), every committed transaction's data survives, and the whole
ordeal replays bit-identically under the same seed.  A lease-expiry
storm, by contrast, is survivable — leases renew under the data, so it
must doom nothing.
"""

from repro.faults import FaultEngine, FaultPlan, RecoveryMonitor
from repro.harness import Design, build_database, prewarm_extension, rebuild_extension
from repro.txn import check_serializable, committed_row_images
from repro.workloads import TpccConfig, TpccScale, build_tpcc_database, run_tpcc


def run_chaos(seed=7, crash=True, storm=True):
    setup = build_database(
        Design.CUSTOM, bp_pages=830, bpext_pages=1650, tempdb_pages=512, seed=seed
    )
    db = setup.database
    state = build_tpcc_database(
        db, TpccScale(warehouses=4, items=200, history_orders=40)
    )
    prewarm_extension(setup)
    manager = db.transactions(record_history=True)
    monitor = RecoveryMonitor(setup.sim)
    engine = FaultEngine.for_setup(
        setup, on_provider_restored=lambda _name: rebuild_extension(setup),
    )
    base = setup.sim.now
    plan = FaultPlan(seed=seed)
    if storm:
        plan.lease_storm(base + 20_000, fraction=0.5)
    if crash:
        plan.crash(base + 50_000, "mem0", duration_us=100_000)
    engine.run_plan(plan)
    config = TpccConfig(
        scale=state.scale, workers=20, transactions_per_worker=15, seed=seed,
        concurrency="2pl", hot_district_fraction=0.8, hot_district_share=0.05,
        record_history=True,
    )
    run, report = run_tpcc(db, state, config)
    tables = [
        state.warehouse, state.district, state.customer,
        state.stock, state.orders, state.order_line,
    ]
    final = committed_row_images(db, tables)
    check = check_serializable(manager.history, final_rows=final)
    return setup, db, manager, monitor, run, report, check


def chaos_fingerprint(seed=7):
    setup, db, manager, monitor, run, report, check = run_chaos(seed=seed)
    return {
        "now": setup.sim.now,
        "txns": run.ops,
        "commits": report.commits,
        "aborts": report.aborts,
        "dooms": report.dooms,
        "deadlocks": report.deadlocks,
        "wal_records": len(db.wal.records),
        "snapshot": monitor.snapshot(),
        "serializable": check.ok,
    }


class TestCrashMidTransaction:
    def test_crash_dooms_and_recovers_with_zero_committed_loss(self):
        _setup, _db, manager, monitor, run, report, check = run_chaos()
        # The crash actually doomed in-flight transactions...
        assert report.dooms > 0
        crash = next(
            record for record in monitor.records
            if record.spec.kind.value == "memory-server-crash"
        )
        assert crash.pages_lost > 0
        assert crash.txns_doomed == report.dooms
        # ...and every one of them retried through to success.
        assert report.commits == run.ops == 300
        assert manager.exhausted == 0
        # Zero leaked locks, zero stuck transactions.
        assert manager.locks.idle
        assert manager.active_count == 0
        # Zero committed-data loss, verified on real row data.
        assert check.ok, check.violations[:5]

    def test_lease_storm_alone_dooms_nothing(self):
        _setup, _db, manager, monitor, run, report, check = run_chaos(crash=False)
        storm = next(
            record for record in monitor.records
            if record.spec.kind.value == "lease-expiry-storm"
        )
        # Leases renew under the data: transactions survive expiry.
        assert storm.txns_doomed == 0
        assert report.dooms == 0
        assert report.commits == run.ops
        assert check.ok, check.violations[:5]

    def test_chaos_replay_is_bit_identical(self):
        assert chaos_fingerprint(seed=7) == chaos_fingerprint(seed=7)

    def test_different_seed_diverges(self):
        assert chaos_fingerprint(seed=7)["now"] != chaos_fingerprint(seed=8)["now"]
