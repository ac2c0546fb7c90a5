"""Single-node lowering: fusion rules, legacy equivalence, aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    compile_projector,
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


def run_compiled(compiled, rows):
    """What HashAggregate does with the compiled callables (first-seen order)."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(compiled["group_key"](row), []).append(row)
    return [compiled["finalize"](key, compiled["fold"](group)) for key, group in groups.items()]


def run_closures(compiled, rows):
    return sorted(run_compiled(compiled, rows))


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


# -- compiled callables against naive references ------------------------------


def table_schema(width: int, kind: str = "int") -> dict:
    columns = tuple(Column(f"c{i}", kind, 8) for i in range(width))
    return {"t": Schema(columns=columns, key="c0")}


def naive_fold(fn, values):
    """One value at a time, left to right — what the row closures did."""
    if fn == "count":
        return len(values)
    if fn in ("min", "max"):
        acc = values[0]
        for value in values[1:]:
            acc = min(acc, value) if fn == "min" else max(acc, value)
        return acc
    total = 0
    for value in values:
        total = total + value
    return total / len(values) if fn == "avg" else total


def naive_aggregate(rows, group_slots, aggs):
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[i] for i in group_slots), []).append(row)
    return [
        key + tuple(
            naive_fold(fn, group if slot is None else [row[slot] for row in group])
            for fn, slot in aggs
        )
        for key, group in groups.items()
    ]


WIDTH = st.integers(min_value=1, max_value=5)
CELLS = {
    "int": st.integers(min_value=-50, max_value=50),
    # Magnitudes far enough apart that summation order shows in the bits.
    "float": st.floats(min_value=-1e9, max_value=1e9, allow_nan=False).map(
        lambda x: x * 1.0000001
    ),
}


@st.composite
def aggregate_cases(draw, kind):
    width = draw(WIDTH)
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, 2)] + [CELLS[kind]] * (width - 1)), min_size=1, max_size=30,
    ))
    slots = st.integers(min_value=0, max_value=width - 1)
    group_slots = draw(st.lists(slots, min_size=1, max_size=3))
    aggs = draw(st.lists(
        st.one_of(
            st.just(("count", None)),
            st.tuples(st.sampled_from(["sum", "min", "max", "avg"]), slots),
        ),
        min_size=1, max_size=5,
    ))
    return width, rows, group_slots, aggs


def ir_aggregate(scan, group_slots, aggs, phase="single", child=None):
    return Aggregate(
        child or scan, tuple(f"t.c{i}" for i in group_slots),
        tuple(Agg(fn, None if slot is None else f"t.c{slot}", name=f"a{n}")
              for n, (fn, slot) in enumerate(aggs)),
        phase=phase,
    )


class TestCompiledCallablesMatchNaive:
    @settings(max_examples=150, deadline=None)
    @given(width=WIDTH, data=st.data())
    def test_projector_and_extractor(self, width, data):
        schema = output_schema(Scan("t"), table_schema(width))
        slots = data.draw(st.lists(st.integers(0, width - 1), max_size=4))
        row = tuple(data.draw(st.lists(CELLS["int"], min_size=width, max_size=width)))
        project = compile_projector(schema, tuple(f"c{i}" for i in slots))
        # One column is a 1-tuple, none the empty tuple: never a bare value.
        assert project(row) == tuple(row[i] for i in slots)
        assert all(schema.extractor(f"t.c{i}")(row) == row[i] for i in range(width))

    @settings(max_examples=150, deadline=None)
    @given(width=WIDTH, data=st.data())
    def test_predicate(self, width, data):
        schema = output_schema(Scan("t"), table_schema(width))
        conditions = tuple(data.draw(st.lists(
            st.tuples(st.integers(0, width - 1).map(lambda i: f"c{i}"),
                      st.sampled_from(["<", "<=", ">", ">=", "=="]), CELLS["int"]),
            min_size=1, max_size=3,
        )))
        row = tuple(data.draw(st.lists(CELLS["int"], min_size=width, max_size=width)))
        holds = {
            "<": lambda a, b: a < b, "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b, "==": lambda a, b: a == b,
        }
        expected = all(holds[op](row[int(col[1:])], value) for col, op, value in conditions)
        assert bool(compile_predicate(schema, conditions)(row)) == expected

    @settings(max_examples=150, deadline=None)
    @given(n_left=WIDTH, n_right=WIDTH, data=st.data())
    def test_join_projection_picks_from_the_joined_row(self, n_left, n_right, data):
        from repro.plan.lower import _join_projector

        schemas = {
            "l": Schema(tuple(Column(f"c{i}", "int", 8) for i in range(n_left)), key="c0"),
            "r": Schema(tuple(Column(f"c{i}", "int", 8) for i in range(n_right)), key="c0"),
        }
        left, right = output_schema(Scan("l"), schemas), output_schema(Scan("r"), schemas)
        picks = data.draw(st.lists(
            st.one_of(st.tuples(st.just("l"), st.integers(0, n_left - 1)),
                      st.tuples(st.just("r"), st.integers(0, n_right - 1))),
            min_size=1, max_size=5,
        ))
        build = tuple(data.draw(st.lists(CELLS["int"], min_size=n_left, max_size=n_left)))
        probe = tuple(data.draw(st.lists(CELLS["int"], min_size=n_right, max_size=n_right)))
        combine = _join_projector(left, right, tuple(f"{side}.c{i}" for side, i in picks))
        assert combine(build, probe) == tuple(
            (build if side == "l" else probe)[i] for side, i in picks
        )

    @settings(max_examples=150, deadline=None)
    @given(case=aggregate_cases("int"))
    def test_single_phase_aggregate(self, case):
        width, rows, group_slots, aggs = case
        scan = Scan("t")
        schemas = table_schema(width)
        compiled = compile_aggregate(
            ir_aggregate(scan, group_slots, aggs), output_schema(scan, schemas)
        )
        assert run_compiled(compiled, rows) == naive_aggregate(rows, group_slots, aggs)

    @settings(max_examples=150, deadline=None)
    @given(case=aggregate_cases("float"))
    def test_float_sums_are_the_sequential_left_to_right_sum_exactly(self, case):
        # Bit-for-bit, not approximately: builtin sum() is compensated on
        # Python >= 3.12 and would differ here in the last place.
        width, rows, group_slots, aggs = case
        scan = Scan("t")
        compiled = compile_aggregate(
            ir_aggregate(scan, group_slots, aggs), output_schema(scan, table_schema(width, "float"))
        )
        got = run_compiled(compiled, rows)
        want = naive_aggregate(rows, group_slots, aggs)
        assert [tuple(map(repr, row)) for row in got] == [tuple(map(repr, row)) for row in want]

    @settings(max_examples=150, deadline=None)
    @given(case=aggregate_cases("int"), cuts=st.lists(st.integers(0, 30), max_size=3))
    def test_partial_then_final_equals_single_phase(self, case, cuts):
        width, rows, group_slots, aggs = case
        scan = Scan("t")
        schemas = table_schema(width)
        child = output_schema(scan, schemas)
        partial_node = ir_aggregate(scan, group_slots, aggs, phase="partial")
        final_node = ir_aggregate(scan, group_slots, aggs, phase="final", child=partial_node)
        partial = compile_aggregate(partial_node, child)
        final = compile_aggregate(final_node, output_schema(partial_node, schemas))
        edges = [0] + sorted(cuts) + [len(rows)]
        partial_rows = [
            row for lo, hi in zip(edges, edges[1:]) for row in run_compiled(partial, rows[lo:hi])
        ]
        single = run_compiled(
            compile_aggregate(ir_aggregate(scan, group_slots, aggs), child), rows
        )
        # Fragments see groups in their own order; the merged set is equal.
        assert sorted(run_compiled(final, partial_rows)) == sorted(single)

    def test_min_max_ties_keep_the_first_seen_value_and_single_rows_work(self):
        scan = Scan("t")
        schemas = table_schema(2)
        node = Aggregate(scan, ("c0",), (Agg("min", "c1"), Agg("max", "c1")))
        compiled = compile_aggregate(node, output_schema(scan, schemas))
        # 1 == 1.0 == True: a tie keeps whichever came first, as min(acc, new) did.
        rows = [(0, 1), (0, 1.0), (0, True), (1, 7)]
        [(_, low, high), single] = run_compiled(compiled, rows)
        assert (type(low), type(high)) == (int, int)
        assert single == (1, 7, 7)

    def test_empty_group_by_keys_on_the_empty_tuple(self):
        # The IR insists on a group column; the getter underneath does not.
        from repro.plan.lower import _row_getter

        assert _row_getter(())((1, 2, 3)) == ()


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
