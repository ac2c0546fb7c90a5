"""Tests for the Database facade: DDL, DML, execution, grants wiring."""

import pytest

from repro.engine import Column, Database, DevicePageFile, Schema, TableScan
from repro.engine.tempdb import EXTENT_PAGES
from repro.engine.wal import LogRecordKind

SCHEMA = Schema(columns=(Column("k", "int", 8), Column("v", "str", 40)), key="k")


def make_db(rig, **kwargs):
    tempdb_store = DevicePageFile(500, rig.db, rig.ssd,
                                  capacity_pages=EXTENT_PAGES * 8)
    return Database(rig.db, bp_pages=512, data_device=rig.ssd,
                    log_device=rig.hdd, tempdb_store=tempdb_store, **kwargs)


class TestDdl:
    def test_create_table_sorts_and_stats(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(3, "c"), (1, "a"), (2, "b")])
        assert table.stats.row_count == 3
        assert table.stats.min_key == 1 and table.stats.max_key == 3
        rows = rig.run(table.clustered.range_scan(0, 10))
        assert [r[0] for r in rows] == [1, 2, 3]

    def test_duplicate_table_rejected(self, rig):
        from repro.engine.errors import EngineError

        db = make_db(rig)
        db.create_table("t", SCHEMA, [])
        with pytest.raises(EngineError):
            db.create_table("t", SCHEMA, [])

    def test_secondary_index_matches_base(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(k, f"v{k % 5}") for k in range(100)])
        index = db.create_secondary_index(table, "v")
        entries = rig.run(index.search("v3"))
        assert sorted(pk for _key, pk in entries) == [k for k in range(100) if k % 5 == 3]

    def test_duplicate_index_rejected(self, rig):
        from repro.engine.errors import EngineError

        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(1, "a")])
        db.create_secondary_index(table, "v")
        with pytest.raises(EngineError):
            db.create_secondary_index(table, "v")


class TestDml:
    """Autocommit has one statement, ``update_range``; inserts and
    deletes are one-statement transactions."""

    def test_insert_then_visible(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(k, "x") for k in range(10)])
        rig.run(db.transactions().run(lambda txn: txn.insert(table, (42, "new"))))
        assert rig.run(table.clustered.search(42)) == [(42, "new")]
        assert table.stats.row_count == 11

    def test_update_by_key(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(k, "x") for k in range(10)])
        changed = rig.run(db.update_range(table, 7, 8, lambda row: (row[0], "y")))
        assert changed == 1
        assert rig.run(table.clustered.search(7)) == [(7, "y")]

    def test_update_range_spans_leaves_and_stops_at_the_bound(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(k, "x") for k in range(2000)])
        assert table.clustered.leaf_count > 2
        changed = rig.run(db.update_range(table, 100, 1900, lambda row: (row[0], "y")))
        assert changed == 1800
        rows = rig.run(table.clustered.range_scan(0, 2000))
        assert [row[0] for row in rows if row[1] == "y"] == list(range(100, 1900))

    def test_delete_by_key(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(k, "x") for k in range(10)])
        removed = rig.run(db.transactions().run(lambda txn: txn.delete(table, 4)))
        assert removed == 1
        assert rig.run(table.clustered.search(4)) == []
        assert table.stats.row_count == 9

    def test_dml_is_logged_and_committed(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(1, "a")])
        rig.run(db.transactions().run(lambda txn: txn.insert(table, (2, "b"))))
        rig.run(db.update_range(table, 1, 2, lambda row: (1, "a2")))
        kinds = [record.kind for record in db.wal.records]
        assert kinds.count(LogRecordKind.INSERT) == 1
        assert kinds.count(LogRecordKind.UPDATE) == 1
        assert kinds.count(LogRecordKind.COMMIT) == 2


class TestExecution:
    def test_execute_counts_queries_and_releases_grant(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(k, "x") for k in range(50)])
        result = rig.run(db.execute(TableScan(table), requested_memory_bytes=1024))
        assert len(result) == 50
        assert db.queries_executed == 1
        assert db.grants.in_use == 0

    def test_execute_charges_setup_cpu(self, rig):
        db = make_db(rig, query_setup_cpu_us=1000.0)
        table = db.create_table("t", SCHEMA, [(1, "a")])
        start = rig.sim.now
        rig.run(db.execute(TableScan(table)))
        assert rig.sim.now - start >= 1000.0

    def test_grant_released_even_on_operator_error(self, rig):
        db = make_db(rig)
        table = db.create_table("t", SCHEMA, [(1, "a")])

        class Exploding(TableScan):
            def run(self, ctx):
                raise RuntimeError("boom")
                yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            rig.run(db.execute(Exploding(table), requested_memory_bytes=4096))
        assert db.grants.in_use == 0
