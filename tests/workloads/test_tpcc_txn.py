"""TPC-C under real transactions: 2PL row locks, deadlock recovery,
serializability, and bit-identical seeded replay."""

from repro.harness import Design, build_database
from repro.txn import check_serializable, committed_row_images
from repro.workloads import TpccConfig, TpccScale, build_tpcc_database, run_tpcc


def make(seed=7):
    setup = build_database(
        Design.CUSTOM, bp_pages=830, bpext_pages=1650, tempdb_pages=512, seed=seed
    )
    db = setup.database
    state = build_tpcc_database(
        db, TpccScale(warehouses=4, items=200, history_orders=40)
    )
    return setup, db, state


def conflict_heavy_config(state, seed=7, record_history=False):
    """Hot-district routing concentrates 80% of traffic on 5% of the
    districts — enough contention for real deadlocks."""
    return TpccConfig(
        scale=state.scale, workers=20, transactions_per_worker=10, seed=seed,
        concurrency="2pl", hot_district_fraction=0.8, hot_district_share=0.05,
        record_history=record_history,
    )


def tpcc_tables(state):
    return [
        state.warehouse, state.district, state.customer,
        state.stock, state.orders, state.order_line,
    ]


class TestTwoPhaseLocking:
    def test_conflict_heavy_run_commits_everything(self):
        _setup, db, state = make()
        run, report = run_tpcc(db, state, conflict_heavy_config(state))
        manager = db.transactions()
        assert run.ops == 200
        assert report.commits == 200
        # Real contention: deadlocks happened and every victim retried
        # through to success.
        assert report.deadlocks > 0
        assert report.aborts > 0
        assert report.retries == report.aborts
        assert report.abort_rate > 0
        assert manager.exhausted == 0
        # No leaked locks and no stuck transactions.
        assert manager.locks.idle
        assert manager.active_count == 0

    def test_conflict_heavy_run_is_serializable(self):
        _setup, db, state = make()
        manager = db.transactions(record_history=True)
        run_tpcc(db, state, conflict_heavy_config(state, record_history=True))
        final = committed_row_images(db, tpcc_tables(state))
        result = check_serializable(manager.history, final_rows=final)
        assert result.ok, result.violations[:5]
        assert result.txns > 0

    def test_two_seeded_runs_bit_identical(self):
        def run_once():
            _setup, db, state = make()
            run, report = run_tpcc(db, state, conflict_heavy_config(state))
            return (
                db.sim.now, run.ops, report.commits, report.aborts,
                report.deadlocks, report.retries, report.lock_wait_us,
                len(db.wal.records), state.next_order_id,
            )

        assert run_once() == run_once()

    def test_district_mode_remains_deadlock_free(self):
        _setup, db, state = make()
        config = TpccConfig(
            scale=state.scale, workers=20, transactions_per_worker=10, seed=7,
            hot_district_fraction=0.8, hot_district_share=0.05,
        )
        run, report = run_tpcc(db, state, config)
        assert run.ops == 200
        # District-granularity writers lock one resource each: no
        # cycles are possible, so nothing ever aborts.
        assert report.deadlocks == 0
        assert report.aborts == 0

    def test_2pl_mode_preserves_workload_invariants(self):
        _setup, db, state = make()
        before = state.next_order_id
        rows_before = state.orders.stats.row_count
        config = TpccConfig(
            scale=state.scale, workers=5, transactions_per_worker=10,
            mix={"new_order": 1.0}, concurrency="2pl",
        )
        run, report = run_tpcc(db, state, config)
        # Order ids allocate eagerly per *attempt* (aborted retries burn
        # ids), but exactly one order row lands per committed intent.
        assert report.commits == 50
        assert state.next_order_id == before + 50 + report.aborts
        assert state.orders.stats.row_count == rows_before + 50

        def check():
            rows = yield from state.orders.clustered.search(before)
            return rows

        assert len(db.sim.run_until_complete(db.sim.spawn(check()))) == 1
