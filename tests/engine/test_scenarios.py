"""Tests for the scenario modules: semantic cache, priming, loader, optimizer."""

import pytest

from repro.engine import (
    CostModel,
    Database,
    DevicePageFile,
    JoinChoice,
    LoadSplit,
    MaintenancePolicy,
    Medium,
    RemotePageFile,
    SemanticCache,
    choose_join,
    crossover_selectivity,
    load_splits,
    parallel_load,
    prime_pool_from_file,
    prime_push,
    serialize_pool_to_file,
)
from repro.engine.wal import LogRecord, LogRecordKind
from repro.storage import MB


def make_db(rig, bp_pages=1024):
    return Database(rig.db, bp_pages=bp_pages, data_device=rig.ssd)


class TestSemanticCache:
    def make_view(self, rig, db, rows=None, policy=MaintenancePolicy.SYNC):
        cache = SemanticCache(db)
        rows = rows if rows is not None else [(i, i * 2.0) for i in range(500)]
        store = DevicePageFile(600, rig.db, rig.ssd, capacity_pages=256)
        view = rig.run(cache.create_view("v", "T1", rows, 24, store, policy=policy))
        return cache, view, rows

    def test_match_and_scan_roundtrip(self, rig):
        db = make_db(rig)
        cache, view, rows = self.make_view(rig, db)
        assert cache.match("T1") is view
        assert rig.run(cache.scan_view(view)) == rows

    def test_miss_on_unknown_template(self, rig):
        db = make_db(rig)
        cache, _view, _rows = self.make_view(rig, db)
        assert cache.match("other") is None
        assert cache.misses == 1

    def test_invalidate_policy_drops_view_on_update(self, rig):
        db = make_db(rig)
        cache, view, _rows = self.make_view(rig, db, policy=MaintenancePolicy.INVALIDATE)
        rig.run(cache.on_base_update("T1", (1, 2.0)))
        assert not view.valid
        assert cache.match("T1") is None

    def test_sync_policy_keeps_view_valid(self, rig):
        db = make_db(rig)
        cache, view, _rows = self.make_view(rig, db, policy=MaintenancePolicy.SYNC)
        rig.run(cache.on_base_update("T1", (1, 2.0)))
        assert view.valid

    @pytest.mark.parametrize("loss", ["lease", "page", "deadline"])
    def test_sync_maintenance_drops_the_view_only_on_remote_loss(self, rig, loss):
        """Remote memory lost or out of reach under the read-modify-write
        invalidates the view and is counted; any other error is a bug and
        reaches the caller."""
        from repro.engine.errors import PageNotFound
        from repro.reliability import DeadlineExceeded
        from repro.remotefile import RemoteMemoryUnavailable

        class FailingStore(DevicePageFile):
            error: Exception

            def read_page(self, slot, background=False):
                raise self.error
                yield

        db = make_db(rig)
        cache = SemanticCache(db)
        store = FailingStore(603, rig.db, rig.ssd, capacity_pages=256)
        rows = [(i, i * 2.0) for i in range(500)]
        view = rig.run(cache.create_view("v", "T3", rows, 24, store))

        store.error = ValueError("bug in the view's maintenance")
        with pytest.raises(ValueError):
            rig.run(cache.on_base_update("T3", (1, 2.0)))
        assert view.valid and cache.invalidations == 0

        store.error = {
            "lease": RemoteMemoryUnavailable("lease gone"),
            "page": PageNotFound("slot dropped mid-read"),
            "deadline": DeadlineExceeded("read budget spent"),
        }[loss]
        rig.run(cache.on_base_update("T3", (1, 2.0)))
        assert not view.valid
        assert cache.invalidations == 1

    def test_remote_view_invalidates_on_lease_loss(self, rig):
        from repro.remotefile import RemoteMemoryUnavailable

        db = make_db(rig)
        cache = SemanticCache(db)
        file = rig.make_remote_file("mv", 16 * MB)
        store = RemotePageFile(601, file, capacity_pages=512)
        rows = [(i,) for i in range(100)]
        view = rig.run(cache.create_view("v", "T2", rows, 24, store, timed=True))
        rig.sim.run(until=rig.sim.now + rig.broker.lease_duration_us + 1)
        with pytest.raises(RemoteMemoryUnavailable):
            rig.run(cache.scan_view(view))
        assert not view.valid

    def test_recovery_replays_log_tail(self, rig):
        db = make_db(rig)
        cache, view, rows = self.make_view(rig, db)
        rig.run(db.wal.checkpoint())
        view.checkpoint_lsn = db.wal.checkpoint_lsn
        for key in (3, 5):
            db.wal.records.append(LogRecord(
                lsn=db.wal.next_lsn(), kind=LogRecordKind.UPDATE,
                table="v", key=key, row=(key, -1.0),
            ))
        new_store = DevicePageFile(602, rig.db, rig.ssd, capacity_pages=256)
        applied = rig.run(cache.recover_view("T1", new_store, rows))
        assert applied == 2
        recovered = rig.run(cache.scan_view(view))
        assert (3, -1.0) in recovered and (5, -1.0) in recovered
        assert view.valid


class TestPriming:
    def test_serialize_then_prime_transfers_pool(self, rig):
        source = make_db(rig, bp_pages=256)
        target = Database(rig.db, bp_pages=256, data_device=rig.hdd)
        table = source.create_table(
            "t", __import__("repro.workloads.rangescan", fromlist=["CUSTOMER_SCHEMA"]).CUSTOMER_SCHEMA,
            [(k, "n", "a", 0, "p", 1.0, "m", "c") for k in range(2000)],
        )
        # Warm the source pool.
        rig.run(table.clustered.range_scan(0, 2000))
        file = rig.make_remote_file("prime", 8 * MB)
        report = rig.run(serialize_pool_to_file(source, file))
        assert report.pages == source.pool.in_memory_pages
        primed = rig.run(prime_pool_from_file(target, file, report.pages))
        assert primed.pages == report.pages
        assert target.pool.in_memory_pages == report.pages

    def test_prime_push_direct(self, rig):
        from repro.workloads.rangescan import CUSTOMER_SCHEMA

        source = make_db(rig, bp_pages=128)
        target = Database(rig.db, bp_pages=128, data_device=rig.hdd)
        table = source.create_table(
            "t", CUSTOMER_SCHEMA,
            [(k, "n", "a", 0, "p", 1.0, "m", "c") for k in range(1000)],
        )
        rig.run(table.clustered.range_scan(0, 1000))
        report = rig.run(prime_push(source, target))
        assert report.pages > 0
        assert target.pool.in_memory_pages >= min(report.pages, 127)


class TestLoader:
    def test_single_server_load_time_scales_with_bytes(self, rig):
        small = rig.run(load_splits(rig.db, [LoadSplit(0, 1 * MB)]))
        big = rig.run(load_splits(rig.db, [LoadSplit(0, 4 * MB)]))
        assert 3.0 < big.load_us / small.load_us < 5.0

    def test_parallel_load_offloads_and_copy_is_cheap(self, rig):
        splits = [LoadSplit(i, 2 * MB) for i in range(16)]
        single = rig.run(load_splits(rig.db, splits))
        # Offload to the (one) idle remote server: same load time on an
        # identical machine, plus a negligible RDMA copy.
        multi = rig.run(parallel_load(rig.db, [rig.mem], splits))
        assert multi.load_us <= single.load_us * 1.05
        assert multi.copy_us < 0.2 * multi.load_us
        assert multi.bytes_loaded == single.bytes_loaded


class TestOptimizer:
    def make_table(self, rig):
        db = make_db(rig)
        from repro.engine import Column, Schema

        schema = Schema(columns=(Column("k", "int", 8), Column("v", "int", 8)), key="k")
        return db.create_table("t", schema, [(i, i) for i in range(5000)])

    def test_inlj_wins_for_few_rows(self, rig):
        table = self.make_table(rig)
        model = CostModel(index_medium=Medium.REMOTE_MEMORY)
        choice, _inlj, _hash = choose_join(model, outer_rows=5, inner_table=table)
        assert choice is JoinChoice.INDEX_NESTED_LOOP

    def test_hash_wins_for_many_rows(self, rig):
        table = self.make_table(rig)
        model = CostModel(index_medium=Medium.HDD)
        choice, _inlj, _hash = choose_join(model, outer_rows=5000, inner_table=table)
        assert choice is JoinChoice.HASH_JOIN

    def test_crossover_moves_with_medium(self, rig):
        table = self.make_table(rig)
        crossovers = {
            medium: crossover_selectivity(CostModel(index_medium=medium), table, 100_000)
            for medium in (Medium.HDD, Medium.SSD, Medium.REMOTE_MEMORY, Medium.LOCAL_MEMORY)
        }
        assert (
            crossovers[Medium.HDD]
            < crossovers[Medium.SSD]
            < crossovers[Medium.REMOTE_MEMORY]
            < crossovers[Medium.LOCAL_MEMORY]
        )


class TestReactivePriming:
    def test_lookup_serves_pages_on_demand(self, rig):
        from repro.engine import ReactivePrimer
        from repro.workloads.rangescan import CUSTOMER_SCHEMA

        source = make_db(rig, bp_pages=300)
        target = Database(rig.db, bp_pages=300, data_device=rig.hdd)
        table = source.create_table(
            "t", CUSTOMER_SCHEMA,
            [(k, "n", "a", 0, "p", 1.0, "m", "c") for k in range(3000)],
        )
        rig.run(table.clustered.range_scan(0, 3000))  # warm source
        file = rig.make_remote_file("prime", 8 * MB)
        primer = rig.run(ReactivePrimer.build(source, target, file))
        # A hot page fetches on demand ...
        hot_id = source.pool.cached_pages()[0].page_id
        page = rig.run(primer.lookup(hot_id))
        assert page is not None and page.page_id == hot_id
        assert target.pool.is_cached(hot_id)
        assert primer.hits == 1
        # ... a never-cached page misses to the data file path.
        assert rig.run(primer.lookup((999, 999))) is None
        assert primer.misses == 1

    def test_reactive_fetch_is_rdma_fast(self, rig):
        from repro.engine import ReactivePrimer
        from repro.workloads.rangescan import CUSTOMER_SCHEMA

        source = make_db(rig, bp_pages=200)
        target = Database(rig.db, bp_pages=200, data_device=rig.hdd)
        table = source.create_table(
            "t", CUSTOMER_SCHEMA,
            [(k, "n", "a", 0, "p", 1.0, "m", "c") for k in range(2000)],
        )
        rig.run(table.clustered.range_scan(0, 2000))
        file = rig.make_remote_file("prime", 8 * MB)
        primer = rig.run(ReactivePrimer.build(source, target, file))
        hot_id = source.pool.cached_pages()[10].page_id
        start = rig.sim.now
        rig.run(primer.lookup(hot_id))
        # A 1MB batch fetch over RDMA: far below one HDD seek.
        assert rig.sim.now - start < 1500
