"""Single-node lowering: fusion rules, legacy equivalence, aggregation."""

import pytest

from repro.engine import (
    Column,
    CostModel,
    ExternalSort,
    FilterRows,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    Medium,
    ProjectRows,
    Schema,
    TableScan,
)
from repro.plan import (
    Agg,
    Aggregate,
    Filter,
    Join,
    PlanError,
    Project,
    Scan,
    TopN,
    compile_aggregate,
    compile_predicate,
    explain_physical,
    lower_single,
    output_schema,
)
from repro.workloads import TPCH_SCHEMAS, TpchScale, build_tpch_database

SMALL = TpchScale(orders=200, lines_per_order=2, customers=60, parts=40, suppliers=10)

CUST_ORDERS = TopN(Project(
    Join(
        Scan("customer", conditions=(("acctbal", "<", 5000.0),)), Scan("orders"),
        "customer.custkey", "orders.custkey",
    ),
    ("customer.custkey", "customer.acctbal", "orders.orderkey", "orders.totalprice"),
), 150)


class TestTwoTableJoin:
    def test_lowers_to_a_hash_join_under_a_top_n_sort(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        op = lower_single(CUST_ORDERS, tables, TPCH_SCHEMAS)
        assert isinstance(op, ExternalSort) and op.top_n == 150
        join = op.child
        assert isinstance(join, HashJoin)
        assert isinstance(join.build, TableScan) and join.build.predicate is not None
        assert isinstance(join.probe, TableScan) and join.probe.predicate is None
        # Lowering is pure: a second lowering has the same shape and rows.
        # (Bit-identical virtual-time cost is asserted end-to-end by the
        # BENCH_dist goldens.)
        again = lower_single(CUST_ORDERS, tables, TPCH_SCHEMAS)
        assert explain_physical(again) == explain_physical(op)
        first = rig.execute(op)
        assert first.rows == rig.execute(again).rows
        assert len(first.rows) == 150


class TestFusion:
    def test_filter_chain_fuses_into_scan_predicate(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        plan = Filter(
            Filter(Scan("orders", conditions=(("orderpriority", "<", 4),)),
                   ("totalprice", "<", 3000.0)),
            ("orderdate", ">=", 100),
        )
        op = lower_single(plan, tables, TPCH_SCHEMAS)
        assert isinstance(op, TableScan) and op.predicate is not None
        rows = rig.execute(op).rows
        assert all(r[4] < 4 and r[3] < 3000.0 and r[2] >= 100 for r in rows)

    def test_project_over_scan_fuses_into_scan(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        op = lower_single(
            Project(Scan("customer"), ("custkey", "acctbal")), tables, TPCH_SCHEMAS
        )
        assert isinstance(op, TableScan) and op.project is not None
        rows = rig.execute(op).rows
        assert rows and all(len(r) == 2 for r in rows)

    def test_project_over_join_fuses_into_combine(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        op = lower_single(CUST_ORDERS, tables, TPCH_SCHEMAS)
        # No ProjectRows anywhere: the join's combine emits projected tuples.
        assert "ProjectRows" not in explain_physical(op)

    def test_unfusable_filter_and_project_lower_to_row_operators(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        join = Join(Scan("customer"), Scan("orders"),
                    "customer.custkey", "orders.custkey")
        plan = Project(Filter(join, ("totalprice", "<", 2500.0)),
                       ("orders.orderkey", "orders.totalprice"))
        op = lower_single(plan, tables, TPCH_SCHEMAS)
        assert isinstance(op, ProjectRows)
        assert isinstance(op.child, FilterRows)
        rows = rig.execute(op).rows
        assert rows and all(price < 2500.0 for _key, price in rows)

    def test_row_operator_path_matches_fused_rows(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        join = Join(Scan("customer"), Scan("orders"),
                    "customer.custkey", "orders.custkey")
        fused = TopN(Project(
            Join(Scan("customer"), Scan("orders", conditions=(("totalprice", "<", 2500.0),)),
                 "customer.custkey", "orders.custkey"),
            ("orders.orderkey", "orders.totalprice")), 100)
        unfused = TopN(Project(Filter(join, ("totalprice", "<", 2500.0)),
                               ("orders.orderkey", "orders.totalprice")), 100)
        a = rig.execute(lower_single(fused, tables, TPCH_SCHEMAS)).rows
        b = rig.execute(lower_single(unfused, tables, TPCH_SCHEMAS)).rows
        assert a == b and len(a) > 0


class TestCostModelJoinChoice:
    def test_small_outer_with_remote_index_lowers_to_inlj(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        plan = Join(
            Scan("customer", conditions=(("custkey", "<", 4),)),
            Scan("orders"),
            "customer.custkey", "orders.orderkey",
        )
        fast = CostModel(index_medium=Medium.REMOTE_MEMORY,
                         table_medium=Medium.HDD)
        op = lower_single(plan, tables, TPCH_SCHEMAS, cost_model=fast)
        assert isinstance(op, IndexNestedLoopJoin)
        # Same plan without a model stays a hash join, with equal rows.
        hashed = lower_single(plan, tables, TPCH_SCHEMAS)
        assert isinstance(hashed, HashJoin)
        assert sorted(rig.execute(op).rows) == sorted(rig.execute(hashed).rows)

    def test_filtered_inner_scan_disables_inlj(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        plan = Join(
            Scan("customer", conditions=(("custkey", "<", 4),)),
            Scan("orders", conditions=(("totalprice", "<", 1e9),)),
            "customer.custkey", "orders.orderkey",
        )
        fast = CostModel(index_medium=Medium.REMOTE_MEMORY)
        op = lower_single(plan, tables, TPCH_SCHEMAS, cost_model=fast)
        assert isinstance(op, HashJoin)


SIMPLE = {"t": Schema(columns=(Column("g", "int", 8), Column("v", "int", 8)), key="g")}


def run_closures(compiled, rows):
    groups: dict = {}
    for row in rows:
        key = compiled["group_key"](row)
        if key not in groups:
            groups[key] = compiled["init"]()
        groups[key] = compiled["update"](groups[key], row)
    return sorted(compiled["finalize"](key, acc) for key, acc in groups.items())


class TestAggregateCompilation:
    ROWS = [(i % 3, (i * 7) % 23) for i in range(200)]
    AGGS = (Agg("count"), Agg("sum", "v"), Agg("min", "v"),
            Agg("max", "v"), Agg("avg", "v"))

    def test_two_phase_equals_single_phase(self):
        scan = Scan("t")
        child = output_schema(scan, SIMPLE)
        single = Aggregate(scan, ("g",), self.AGGS)
        partial_node = Aggregate(scan, ("g",), self.AGGS, phase="partial")
        final_node = Aggregate(partial_node, ("g",), self.AGGS, phase="final")

        expected = run_closures(compile_aggregate(single, child), self.ROWS)
        partial = compile_aggregate(partial_node, child)
        # Split rows across three "fragments", merge the partial rows.
        partial_rows = []
        for shard in (self.ROWS[0::3], self.ROWS[1::3], self.ROWS[2::3]):
            partial_rows.extend(run_closures(partial, shard))
        final = compile_aggregate(final_node, output_schema(partial_node, SIMPLE))
        assert run_closures(final, partial_rows) == expected

    def test_single_phase_values(self):
        scan = Scan("t")
        node = Aggregate(scan, ("g",), (Agg("count"), Agg("sum", "v")))
        result = run_closures(
            compile_aggregate(node, output_schema(scan, SIMPLE)), [(0, 5), (1, 7), (0, 3)]
        )
        assert result == [(0, 2, 8), (1, 1, 7)]

    def test_lowered_aggregate_runs_on_engine(self, rig):
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        plan = TopN(Aggregate(
            Scan("lineitem"), group_by=("returnflag",),
            aggs=(Agg("count"), Agg("sum", "quantity"), Agg("avg", "quantity")),
        ), 10)
        op = lower_single(plan, tables, TPCH_SCHEMAS)
        assert isinstance(op, ExternalSort)
        assert isinstance(op.child, HashAggregate)
        rows = rig.execute(op).rows
        assert len(rows) == 3  # returnflag in {0, 1, 2}
        total = sum(count for _flag, count, _sum, _avg in rows)
        assert total == SMALL.lineitems


class TestPredicateErrors:
    def test_unknown_comparison_op_rejected(self):
        schema = output_schema(Scan("orders"), TPCH_SCHEMAS)
        with pytest.raises(PlanError, match="unknown comparison"):
            compile_predicate(schema, (("orderkey", "!=", 3),))

    def test_exchange_in_single_node_plan_rejected(self, rig):
        from repro.plan import Exchange
        tables = build_tpch_database(rig.database, SMALL, seed=5)
        with pytest.raises(PlanError, match="Exchange"):
            lower_single(Exchange(Scan("orders"), "gather"), tables, TPCH_SCHEMAS)
