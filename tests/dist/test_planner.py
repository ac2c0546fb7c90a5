"""Three-strategy planner: identical answers, placement-shaped metrics."""

import pytest

from repro.dist import (
    TPCH_PARTITIONING,
    DistSpec,
    PartitionSpec,
    Strategy,
    build_dist,
    build_strategy,
    compile_plan_fragments,
    execute_plan,
    load_tpch_single,
    place_exchanges,
)
from repro.plan import Exchange, Join, Project, Scan, TopN, walk
from repro.workloads import TpchScale

SMALL = TpchScale(orders=300, lines_per_order=2, customers=80, parts=60, suppliers=15)

CUST_ORDERS = TopN(Project(
    Join(
        Scan("customer", conditions=(("acctbal", "<", 50.0),)), Scan("orders"),
        "customer.custkey", "orders.custkey",
    ),
    ("customer.custkey", "customer.acctbal", "orders.orderkey", "orders.totalprice"),
), 250)


def orders_customer_plan(top_n):
    """Builds on orders.custkey, probes customer: the build side is not
    partitioned on the join key under the default TPC-H partitioning."""
    join = Join(Scan("orders"), Scan("customer"), "orders.custkey", "customer.custkey")
    return TopN(Project(join, ("orders.orderkey", "customer.custkey")), top_n)

SPEC = DistSpec(name="ptest", db_servers=2, bp_pages=400, tempdb_pages=256,
                data_spindles=2, db_cores=4)


def _run(strategy):
    setup = build_strategy(strategy, SPEC, total_ext_pages=512, scale=SMALL, seed=3)
    return execute_plan(setup, CUST_ORDERS, name="cust_orders")


class TestStrategies:
    def test_all_three_strategies_row_identical(self):
        page = _run(Strategy.PAGE)
        query = _run(Strategy.QUERY)
        hybrid = _run(Strategy.HYBRID)
        assert page.rows == query.rows == hybrid.rows
        assert len(page.rows) > 0
        assert {page.strategy, query.strategy, hybrid.strategy} == {
            "page", "query", "hybrid",
        }

    def test_placement_shapes_the_metrics(self):
        page = _run(Strategy.PAGE)
        query = _run(Strategy.QUERY)
        # Page shipping never touches the exchange fabric; query shipping
        # moves tuples and stays out of remote memory entirely.
        assert page.metrics["exchange_bytes"] == 0
        assert query.metrics["exchange_bytes"] > 0
        assert query.metrics["exchange_rows"] > 0

    def test_hybrid_faults_pages_and_ships_tuples(self):
        setup = build_strategy(
            Strategy.HYBRID, SPEC, total_ext_pages=512, scale=SMALL, seed=3
        )
        result = execute_plan(setup, CUST_ORDERS, name="cust_orders")
        assert result.metrics["exchange_bytes"] > 0
        assert all(db.pool.extension is not None for db in setup.databases)

    def test_strategy_accepts_plain_strings(self):
        setup = build_strategy("query", SPEC, total_ext_pages=0, scale=SMALL, seed=3)
        assert execute_plan(setup, CUST_ORDERS, name="cust_orders").strategy == "query"


class TestCompileErrors:
    def test_unpartitioned_setup_rejected(self):
        setup = build_dist(SPEC)
        load_tpch_single(setup, scale=SMALL, seed=3)
        with pytest.raises(ValueError, match="unpartitioned"):
            compile_plan_fragments(CUST_ORDERS, setup)

    def test_mispartitioned_build_shuffles_left(self):
        # orders is hash-partitioned on orderkey, so a join that builds on
        # orders.custkey is not co-located.  The legacy planner rejected
        # this; the IR planner notices the *probe* side (customer) is
        # partitioned on the join key and shuffles the build side instead.
        mis = orders_customer_plan(top_n=200)
        placed = place_exchanges(mis, TPCH_PARTITIONING)
        join = next(n for n in walk(placed) if isinstance(n, Join))
        assert isinstance(join.left, Exchange) and join.left.kind == "shuffle"
        assert not isinstance(join.right, Exchange)

        setup = build_strategy("query", SPEC, total_ext_pages=0, scale=SMALL, seed=3)
        result = execute_plan(setup, mis, name="mis")
        page = build_strategy("page", SPEC, total_ext_pages=512, scale=SMALL, seed=3)
        assert result.rows == execute_plan(page, mis, name="mis").rows
        assert len(result.rows) > 0
        assert result.metrics["exchange_rows"] > 0

    def test_custom_partitioning_satisfies_colocation(self):
        custom = {
            "customer": PartitionSpec("customer", "custkey"),
            "orders": PartitionSpec("orders", "custkey"),
            "lineitem": PartitionSpec("lineitem", "orderkey"),
            "part": PartitionSpec("part", "partkey"),
            "supplier": PartitionSpec("supplier", "suppkey"),
        }
        setup = build_strategy(
            "query", SPEC, total_ext_pages=0, scale=SMALL,
            partitioning=custom, seed=3,
        )
        result = execute_plan(setup, orders_customer_plan(top_n=100), name="oc")
        assert len(result.rows) > 0
