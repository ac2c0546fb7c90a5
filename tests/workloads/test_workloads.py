"""Tests for the workload generators and the harness builders."""

import pytest

from repro.harness import TIER_SPECS, Design, build_database, prewarm_extension
from repro.harness.dbbench import prewarm_pool
from repro.workloads import (
    DEFAULT_MIX,
    READ_MOSTLY_MIX,
    RangeScanConfig,
    TpccConfig,
    TpccScale,
    build_customer_table,
    build_tpcc_database,
    build_tpcds_database,
    build_tpch_database,
    run_rangescan,
    run_tpcc,
    run_query_streams,
    improvement_histogram,
)
from repro.workloads.tpcds import TPCDS_QUERIES
from repro.workloads.tpch import TPCH_QUERIES


class TestDesignTable:
    def test_all_six_designs_defined(self):
        # Table 5's six rows plus the spec-only three-tier hierarchy.
        assert set(TIER_SPECS) == set(Design)
        assert len(TIER_SPECS) == 6 + 1

    def test_remote_designs_have_protocols(self):
        assert TIER_SPECS[Design.CUSTOM].protocol == "ndspi"
        assert TIER_SPECS[Design.SMB_RAMDRIVE].protocol == "smb"
        assert TIER_SPECS[Design.SMBDIRECT_RAMDRIVE].protocol == "smbdirect"
        assert TIER_SPECS[Design.HDD].protocol is None

    def test_only_custom_is_synchronous(self):
        sync = [
            d for d, spec in TIER_SPECS.items()
            if spec.sync_remote_io and d is not Design.THREE_TIER
        ]
        assert sync == [Design.CUSTOM]


class TestBuildDatabase:
    @pytest.mark.parametrize("design", list(Design))
    def test_every_design_builds_and_serves(self, design):
        bonus = 512 if design is Design.LOCAL_MEMORY else 0
        setup = build_database(design, bp_pages=128, bpext_pages=512,
                               tempdb_pages=256, local_memory_bonus_pages=bonus)
        db = setup.database
        table = build_customer_table(db, 2000)
        config = RangeScanConfig(n_rows=2000, workers=4, queries_per_worker=5)
        report = run_rangescan(db, table, config)
        assert report.ops == 20
        assert report.throughput > 0

    def test_analytic_flag_disables_bpext_on_disk_designs(self):
        setup = build_database(Design.HDD_SSD, bp_pages=128, bpext_pages=512,
                               tempdb_pages=256, analytic=True)
        assert setup.database.pool.extension is None
        setup = build_database(Design.CUSTOM, bp_pages=128, bpext_pages=512,
                               tempdb_pages=256, analytic=True)
        assert setup.database.pool.extension is not None

    def test_prewarm_extension_installs_pages(self):
        setup = build_database(Design.CUSTOM, bp_pages=128, bpext_pages=512,
                               tempdb_pages=256)
        db = setup.database
        build_customer_table(db, 2000)
        installed = prewarm_extension(setup)
        assert 0 < installed <= 512

    def test_prewarm_pool_fills_frames(self):
        setup = build_database(Design.LOCAL_MEMORY, bp_pages=512,
                               bpext_pages=0, tempdb_pages=256)
        db = setup.database
        build_customer_table(db, 2000)
        cached = prewarm_pool(setup)
        assert cached > 0
        assert db.pool.in_memory_pages == cached


class TestRangeScan:
    def test_hotspot_distribution_concentrates(self):
        import numpy as np
        from repro.workloads.rangescan import _start_keys

        config = RangeScanConfig(n_rows=10_000, distribution="hotspot",
                                 hotspot_fraction=0.2, hotspot_probability=0.99)
        keys = _start_keys(config, np.random.default_rng(0), 2000)
        hot = (keys < 0.2 * (10_000 - config.range_size)).mean()
        assert hot > 0.95

    def test_update_fraction_produces_updates(self):
        setup = build_database(Design.CUSTOM, bp_pages=256, bpext_pages=512,
                               tempdb_pages=256)
        db = setup.database
        table = build_customer_table(db, 3000)
        config = RangeScanConfig(n_rows=3000, workers=4, queries_per_worker=10,
                                 update_fraction=0.5)
        report = run_rangescan(db, table, config)
        assert report.by_label["update"].count > 0
        assert len(db.wal.records) > 0

    def test_updates_actually_change_rows(self):
        setup = build_database(Design.CUSTOM, bp_pages=256, bpext_pages=512,
                               tempdb_pages=256)
        db = setup.database
        table = build_customer_table(db, 1000)
        config = RangeScanConfig(n_rows=1000, workers=2, queries_per_worker=10,
                                 update_fraction=1.0)
        run_rangescan(db, table, config)

        def check():
            rows = yield from table.clustered.range_scan(0, 1000)
            return rows

        rows = db.sim.run_until_complete(db.sim.spawn(check()))
        balance_index = table.schema.index_of("acctbal")
        original_total = sum(float(1000 + k % 9000) for k in range(1000))
        assert sum(row[balance_index] for row in rows) > original_total


    @pytest.mark.parametrize("design", [Design.CUSTOM, Design.HDD_SSD, Design.THREE_TIER],
                             ids=lambda design: design.value)
    @pytest.mark.parametrize("n_rows, bp_pages, ext_pages, workers, fraction, seed", [
        (12_000, 64, 300, 32, 0.5, 1),
        (12_000, 32, 150, 32, 0.5, 1),
        (12_000, 64, 600, 40, 0.3, 2),
        (6_000, 32, 120, 24, 0.5, 3),
    ])
    def test_no_row_update_is_lost(self, design, n_rows, bp_pages, ext_pages, workers,
                                   fraction, seed):
        """Final-balance conservation under hard eviction: a pool of a few
        dozen pages, dozens of writers, the log on four spindles — every
        leaf is evicted, flushed, parked and re-read while it is being
        updated.  Each update bumps ``range_size`` balances by one."""
        from repro.txn.checker import committed_row_images

        setup = build_database(design, bp_pages=bp_pages, bpext_pages=ext_pages,
                               tempdb_pages=256, data_spindles=4, seed=seed)
        db = setup.database
        table = build_customer_table(db, n_rows)
        prewarm_extension(setup)
        prewarm_pool(setup)
        config = RangeScanConfig(n_rows=n_rows, workers=workers, queries_per_worker=12,
                                 update_fraction=fraction, seed=seed)
        report = run_rangescan(db, table, config)
        # Checkpoint first: committed_row_images does not see write-behind
        # images still on their way to the data file.
        setup.run(db.pool.flush_all())
        images = committed_row_images(db, [table])
        balance = table.schema.index_of("acctbal")
        final = [images[("row", table.name, key)][balance] for key in range(n_rows)]
        initial = [1000 + key % 9000 for key in range(n_rows)]
        assert report.by_label["update"].count > 0.2 * fraction * report.ops
        assert all(after >= before and after == int(after)
                   for before, after in zip(initial, final))
        bumps = report.by_label["update"].count * config.range_size
        assert sum(final) - sum(initial) == bumps
        # What the best-effort paths dropped on the way is on the registry.
        gauges = setup.metrics.flat("bp")
        assert gauges["bp.stale_handles"] == db.pool.stale_handles
        assert gauges["bp.ext.parks_cancelled"] == db.pool.extension.parks_cancelled
        assert gauges["bp.ext.stale_slot_reads"] == db.pool.extension.stale_slot_reads


class TestAnalyticsWorkloads:
    def test_tpch_queries_all_run(self):
        setup = build_database(Design.CUSTOM, bp_pages=256, bpext_pages=2600,
                               tempdb_pages=49152, analytic=True)
        db = setup.database
        tables = build_tpch_database(db)
        prewarm_extension(setup)
        report = run_query_streams(db, tables, TPCH_QUERIES, streams=1, seed=3)
        assert report.ops == 22
        assert set(report.by_label) == {spec.name for spec in TPCH_QUERIES}

    def test_tpcds_has_sixty_templates(self):
        assert len(TPCDS_QUERIES) == 60

    def test_tpcds_subset_runs(self):
        setup = build_database(Design.CUSTOM, bp_pages=256, bpext_pages=4600,
                               tempdb_pages=49152, analytic=True)
        db = setup.database
        tables = build_tpcds_database(db)
        prewarm_extension(setup)
        report = run_query_streams(db, tables, TPCDS_QUERIES[:12], streams=2, seed=3)
        assert report.ops == 24

    def test_improvement_histogram_buckets(self):
        from repro.sim import LatencyRecorder
        from repro.workloads import ClientRun

        slow = ClientRun(0.0)
        fast = ClientRun(0.0)
        for name, (s, f) in {"a": (100, 80), "b": (300, 100), "c": (900, 100),
                             "d": (10_000, 100)}.items():
            slow.by_label[name] = LatencyRecorder(name)
            slow.by_label[name].record(s)
            fast.by_label[name] = LatencyRecorder(name)
            fast.by_label[name].record(f)
        histogram = improvement_histogram(slow, fast, buckets=(2, 5, 10))
        assert histogram == {"<2x": 1, "2-5x": 1, "5-10x": 1, ">10x": 1}


class TestTpcc:
    def make(self, design=Design.CUSTOM):
        setup = build_database(design, bp_pages=830, bpext_pages=1650,
                               tempdb_pages=512)
        db = setup.database
        state = build_tpcc_database(db, TpccScale(warehouses=4, items=200,
                                                  history_orders=40))
        return setup, db, state

    def test_transactions_complete(self):
        _setup, db, state = self.make()
        config = TpccConfig(scale=state.scale, workers=10,
                            transactions_per_worker=10)
        run, _report = run_tpcc(db, state, config)
        assert run.ops == 100
        assert run.throughput > 0

    def test_new_order_inserts_rows(self):
        _setup, db, state = self.make()
        before = state.next_order_id
        config = TpccConfig(scale=state.scale, workers=5,
                            transactions_per_worker=10,
                            mix={"new_order": 1.0})
        run_tpcc(db, state, config)
        assert state.next_order_id == before + 50

        def check():
            rows = yield from state.orders.clustered.search(before)
            return rows

        assert len(db.sim.run_until_complete(db.sim.spawn(check()))) == 1

    def test_payment_updates_balance(self):
        _setup, db, state = self.make()
        config = TpccConfig(scale=state.scale, workers=4,
                            transactions_per_worker=10, mix={"payment": 1.0})
        run_tpcc(db, state, config)

        def check():
            total = 0.0
            for c_key in range(state.scale.customers):
                rows = yield from state.customer.clustered.search(c_key)
                total += rows[0][1]
            return total

        total = db.sim.run_until_complete(db.sim.spawn(check()))
        assert total < 100.0 * state.scale.customers  # payments debited

    def test_mixes_are_valid_distributions(self):
        assert abs(sum(DEFAULT_MIX.values()) - 1.0) < 1e-9
        assert abs(sum(READ_MOSTLY_MIX.values()) - 1.0) < 1e-9
        assert READ_MOSTLY_MIX["stock_level"] == 0.9
