"""Tests for physical operators: correctness and spill behaviour."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    Column,
    Database,
    ExternalSort,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexRangeScan,
    IndexSeek,
    Schema,
    TableScan,
)
from repro.engine.files import DevicePageFile
from repro.engine.operators import Operator
from repro.engine.tempdb import EXTENT_PAGES
from repro.storage import MB

TWO_COL = Schema(columns=(Column("id", "int", 8), Column("val", "int", 8)), key="id")
WIDE = Schema(
    columns=(Column("id", "int", 8), Column("grp", "int", 8), Column("pad", "str", 180)),
    key="id",
)


def make_db(rig, workspace_bytes=64 * MB, bp_pages=4096):
    tempdb_store = DevicePageFile(500, rig.db, rig.ssd, capacity_pages=EXTENT_PAGES * 256)
    return Database(
        rig.db,
        bp_pages=bp_pages,
        data_device=rig.ssd,
        log_device=rig.hdd,
        tempdb_store=tempdb_store,
        workspace_bytes=workspace_bytes,
    )


class TestScans:
    def test_table_scan_returns_all_rows(self, rig):
        db = make_db(rig)
        table = db.create_table("t", TWO_COL, [(i, i * 10) for i in range(500)])
        result = rig.run(db.execute(TableScan(table)))
        assert len(result.rows) == 500

    def test_table_scan_predicate_and_project(self, rig):
        db = make_db(rig)
        table = db.create_table("t", TWO_COL, [(i, i * 10) for i in range(100)])
        plan = TableScan(table, predicate=lambda r: r[0] < 10, project=lambda r: (r[1],))
        result = rig.run(db.execute(plan))
        assert result.rows == [(i * 10,) for i in range(10)]

    def test_index_range_scan(self, rig):
        db = make_db(rig)
        table = db.create_table("t", TWO_COL, [(i, i) for i in range(1000)])
        plan = IndexRangeScan(table.clustered, 100, 200)
        result = rig.run(db.execute(plan))
        assert [r[0] for r in result.rows] == list(range(100, 200))

    def test_index_seek(self, rig):
        db = make_db(rig)
        table = db.create_table("t", TWO_COL, [(i, i) for i in range(100)])
        result = rig.run(db.execute(IndexSeek(table.clustered, 42)))
        assert result.rows == [(42, 42)]


class TestHashJoin:
    def setup_join(self, rig, n_left=200, n_right=400, workspace=64 * MB):
        db = make_db(rig, workspace_bytes=workspace)
        left = db.create_table("l", TWO_COL, [(i, i % 50) for i in range(n_left)])
        right = db.create_table("r", TWO_COL, [(i, i % n_left) for i in range(n_right)])
        plan = HashJoin(
            build=TableScan(left),
            probe=TableScan(right),
            build_key=lambda r: r[0],
            probe_key=lambda r: r[1],
        )
        return db, plan

    def reference_join(self, n_left, n_right):
        left = [(i, i % 50) for i in range(n_left)]
        right = [(i, i % n_left) for i in range(n_right)]
        by_key = {row[0]: row for row in left}
        return sorted(by_key[r[1]] + r for r in right if r[1] in by_key)

    def test_in_memory_join_correct(self, rig):
        db, plan = self.setup_join(rig)
        result = rig.run(db.execute(plan, requested_memory_bytes=16 * MB))
        assert sorted(result.rows) == self.reference_join(200, 400)
        assert result.metrics.spilled_runs == 0

    def test_grace_join_spills_and_matches(self, rig):
        # Tiny workspace: the build side cannot fit, forcing grace hash.
        db, plan = self.setup_join(rig, n_left=2000, n_right=2000, workspace=64 * 1024)
        result = rig.run(db.execute(plan, requested_memory_bytes=64 * 1024))
        assert result.metrics.spilled_runs > 0
        assert result.metrics.tempdb_writes > 0
        assert sorted(result.rows) == self.reference_join(2000, 2000)

    def test_spill_charges_tempdb_time(self, rig):
        db, spill_plan = self.setup_join(rig, n_left=2000, n_right=2000, workspace=64 * 1024)
        start = rig.sim.now
        rig.run(db.execute(spill_plan, requested_memory_bytes=64 * 1024))
        spill_time = rig.sim.now - start
        db2, mem_plan = self.setup_join(rig, n_left=2000, n_right=2000)
        start = rig.sim.now
        rig.run(db2.execute(mem_plan, requested_memory_bytes=16 * MB))
        mem_time = rig.sim.now - start
        assert spill_time > mem_time


class TestExternalSort:
    def test_in_memory_sort(self, rig):
        db = make_db(rig)
        table = db.create_table("t", TWO_COL, [(i, (i * 37) % 1000) for i in range(1000)])
        plan = ExternalSort(TableScan(table), key=lambda r: r[1])
        result = rig.run(db.execute(plan, requested_memory_bytes=16 * MB))
        values = [r[1] for r in result.rows]
        assert values == sorted(values)
        assert result.metrics.spilled_runs == 0

    def test_external_sort_spills_and_sorts(self, rig):
        db = make_db(rig, workspace_bytes=32 * 1024)
        rows = [(i, (i * 7919) % 100000) for i in range(5000)]
        table = db.create_table("t", TWO_COL, rows)
        plan = ExternalSort(TableScan(table), key=lambda r: r[1])
        result = rig.run(db.execute(plan, requested_memory_bytes=32 * 1024))
        assert result.metrics.spilled_runs > 1
        values = [r[1] for r in result.rows]
        assert values == sorted(values)
        assert len(values) == 5000

    def test_descending_sort(self, rig):
        db = make_db(rig, workspace_bytes=32 * 1024)
        table = db.create_table("t", TWO_COL, [(i, i % 977) for i in range(3000)])
        plan = ExternalSort(TableScan(table), key=lambda r: r[1], reverse=True)
        result = rig.run(db.execute(plan, requested_memory_bytes=32 * 1024))
        values = [r[1] for r in result.rows]
        assert values == sorted(values, reverse=True)

    def test_top_n_truncates(self, rig):
        db = make_db(rig, workspace_bytes=32 * 1024)
        table = db.create_table("t", TWO_COL, [(i, (i * 31) % 5000) for i in range(5000)])
        plan = ExternalSort(TableScan(table), key=lambda r: r[1], top_n=100)
        result = rig.run(db.execute(plan, requested_memory_bytes=32 * 1024))
        assert len(result.rows) == 100
        all_sorted = sorted(((i * 31) % 5000) for i in range(5000))
        assert [r[1] for r in result.rows] == all_sorted[:100]


    def test_no_key_sorts_by_the_whole_row_in_memory_and_spilled(self, rig):
        db = make_db(rig, workspace_bytes=32 * 1024)
        rows = [((i * 31) % 50, -i) for i in range(3000)]
        table = db.create_table("t", TWO_COL, rows)
        for memory, reverse in ((16 * MB, False), (32 * 1024, False), (32 * 1024, True)):
            plan = ExternalSort(
                TableScan(table, project=lambda r: (r[0] % 7, r[1])), key=None,
                reverse=reverse, top_n=500,
            )
            result = rig.run(db.execute(plan, requested_memory_bytes=memory))
            expected = sorted(((k % 7, v) for k, v in rows), reverse=reverse)[:500]
            assert result.rows == expected
        assert result.metrics.spilled_runs > 1


class TestOtherOperators:
    def test_inlj_matches_hash_join(self, rig):
        db = make_db(rig)
        left = db.create_table("l", TWO_COL, [(i, i % 20) for i in range(100)])
        right = db.create_table("r", TWO_COL, [(i, i) for i in range(20)])
        inlj = IndexNestedLoopJoin(
            outer=TableScan(left),
            inner_tree=right.clustered,
            outer_key=lambda r: r[1],
        )
        hj = HashJoin(
            build=TableScan(right),
            probe=TableScan(left),
            build_key=lambda r: r[0],
            probe_key=lambda r: r[1],
            combine=lambda b, p: p + b,
        )
        inlj_result = rig.run(db.execute(inlj))
        hj_result = rig.run(db.execute(hj))
        assert sorted(inlj_result.rows) == sorted(hj_result.rows)

    def test_hash_aggregate_sums(self, rig):
        db = make_db(rig)
        table = db.create_table("t", TWO_COL, [(i, i % 3) for i in range(30)])
        plan = HashAggregate(
            TableScan(table),
            group_key=lambda r: r[1],
            init=lambda: 0,
            update=lambda acc, row: acc + 1,
        )
        result = rig.run(db.execute(plan))
        assert sorted(result.rows) == [(0, 10), (1, 10), (2, 10)]


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_rows=st.integers(min_value=0, max_value=2000),
    workspace_kb=st.sampled_from([16, 64, 1024, 16384]),
)
def test_sort_spill_invariant(n_rows, workspace_kb):
    """Property: sorted output identical whether or not the sort spills."""
    from tests.engine.conftest import EngineRig

    rig = EngineRig()
    db = make_db(rig, workspace_bytes=workspace_kb * 1024)
    rows = [(i, (i * 2654435761) % 2**16) for i in range(n_rows)]
    table = db.create_table("t", TWO_COL, rows)
    plan = ExternalSort(TableScan(table), key=lambda r: r[1])
    result = rig.run(db.execute(plan, requested_memory_bytes=workspace_kb * 1024))
    assert [r[1] for r in result.rows] == sorted((r[1] for r in rows))


class _Rows(Operator):
    """Leaf operator handing back a fixed row list."""

    def __init__(self, rows):
        self.rows = rows

    def run(self, ctx):
        yield from ctx.cpu.compute(0.0)
        return list(self.rows)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=st.lists(
    st.tuples(st.integers(0, 4), st.floats(min_value=-1e9, max_value=1e9)), max_size=60,
))
def test_hash_aggregate_folds_like_the_row_at_a_time_loop(rows):
    """Property: ``init``/``update`` sites get the groups, the first-seen
    group order and the left-to-right accumulation the row loop gave."""
    from tests.engine.conftest import EngineRig

    def init():
        return (0, 0.0, ())

    def update(acc, row):  # float sum and a trail: both order-sensitive
        return (acc[0] + 1, acc[1] + row[1], acc[2] + (row[1],))

    expected: dict = {}
    for row in rows:
        if row[0] not in expected:
            expected[row[0]] = init()
        expected[row[0]] = update(expected[row[0]], row)

    rig = EngineRig()
    plan = HashAggregate(_Rows(rows), group_key=lambda r: r[0], init=init, update=update)
    result = rig.run(make_db(rig).execute(plan))
    assert [(key, repr(acc)) for key, acc in result.rows] == [
        (key, repr(acc)) for key, acc in expected.items()
    ]


class TestGrantSharing:
    def test_budget_split_across_consumers(self, rig):
        from repro.engine.operators import ExecContext

        db = make_db(rig)
        grant = rig.run(db.grants.acquire(4 * MB))
        solo = ExecContext(db=db, grant=grant, memory_consumers=1)
        shared = ExecContext(db=db, grant=grant, memory_consumers=4)
        assert solo.operator_budget_bytes == 4 * MB
        assert shared.operator_budget_bytes == 1 * MB
        grant.release()

    def test_consumer_split_controls_spilling(self, rig):
        """The same query spills or not depending on how many operators
        share the grant — the admission-control mechanism behind the
        paper's TPC-H Q10/Q18 result."""
        db = make_db(rig, workspace_bytes=2 * MB)
        rows = [(i, i) for i in range(4000)]  # ~96 KB of build side
        left = db.create_table("l", TWO_COL, rows)
        right = db.create_table("r", TWO_COL, rows)

        def plan():
            return HashJoin(
                build=TableScan(left), probe=TableScan(right),
                build_key=lambda r: r[0], probe_key=lambda r: r[0],
            )

        roomy = rig.run(db.execute(plan(), requested_memory_bytes=2 * MB,
                                   memory_consumers=1))
        tight = rig.run(db.execute(plan(), requested_memory_bytes=2 * MB,
                                   memory_consumers=16))
        assert roomy.metrics.spilled_runs == 0
        assert tight.metrics.spilled_runs > 0
        assert sorted(roomy.rows) == sorted(tight.rows)

    def test_metrics_track_tempdb_traffic(self, rig):
        db = make_db(rig, workspace_bytes=64 * 1024)
        table = db.create_table("t", TWO_COL, [(i, i % 97) for i in range(5000)])
        plan = ExternalSort(TableScan(table), key=lambda r: r[1])
        result = rig.run(db.execute(plan, requested_memory_bytes=64 * 1024))
        assert result.metrics.tempdb_writes > 0
        assert result.metrics.tempdb_reads > 0
        assert result.metrics.spilled_bytes == result.metrics.tempdb_writes * 8192
