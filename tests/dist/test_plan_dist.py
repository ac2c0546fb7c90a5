"""One logical plan, three physical plans: multi-join, repartitioning
joins, two-phase aggregation, and skewed exchanges under minimal credits."""

from dataclasses import replace

from repro.dist import (
    TPCH_PARTITIONING,
    DistSpec,
    PartitionSpec,
    Strategy,
    build_strategy,
    execute_plan,
    place_exchanges,
)
from repro.plan import Aggregate, Exchange, Join, Project, Scan, TopN, walk
from repro.storage import MB
from repro.workloads import (
    TpchScale,
    tpch_order_lines_plan,
    tpch_returnflag_agg_plan,
    tpch_star_join_plan,
)

SMALL = TpchScale(orders=300, lines_per_order=2, customers=80, parts=60, suppliers=15)

SPEC = DistSpec(name="plandist", db_servers=2, bp_pages=400, tempdb_pages=256,
                data_spindles=2, db_cores=4)


def run_all_strategies(plan, name, spec=SPEC, scale=SMALL, seed=3, **options):
    results = {}
    for strategy in (Strategy.PAGE, Strategy.QUERY, Strategy.HYBRID):
        setup = build_strategy(strategy, spec, total_ext_pages=512,
                               scale=scale, seed=seed)
        results[strategy.value] = execute_plan(setup, plan, name=name, **options)
    return results


class TestStarJoin:
    def test_three_table_star_join_identical_across_strategies(self):
        results = run_all_strategies(tpch_star_join_plan(top_n=200), "star")
        rows = {k: r.rows for k, r in results.items()}
        assert rows["page"] == rows["query"] == rows["hybrid"]
        assert len(rows["page"]) == 200
        assert results["query"].metrics["exchange_rows"] > 0

    def test_placement_shuffles_intermediate_to_supplier(self):
        placed = place_exchanges(tpch_star_join_plan(), TPCH_PARTITIONING)
        joins = [n for n in walk(placed) if isinstance(n, Join)]
        assert len(joins) == 2
        outer, inner = joins  # pre-order: suppkey join first, then partkey
        # part |><| lineitem is co-partitioned on partkey: build side stays
        # put, the lineitem shuffle self-ships.
        assert isinstance(inner.right, Exchange) and inner.right.kind == "shuffle"
        assert inner.right.spec is TPCH_PARTITIONING["part"]
        # The intermediate is partitioned on partkey, not suppkey, so it
        # shuffles to the supplier owners for the second join.
        assert isinstance(outer.left, Exchange) and outer.left.kind == "shuffle"
        assert outer.left.spec is TPCH_PARTITIONING["supplier"]
        assert not isinstance(outer.right, Exchange)


class TestRepartitioningJoin:
    def test_neither_side_co_located_shuffles_both(self):
        placed = place_exchanges(tpch_order_lines_plan(), TPCH_PARTITIONING)
        outer = next(n for n in walk(placed) if isinstance(n, Join))
        assert isinstance(outer.left, Exchange) and outer.left.kind == "shuffle"
        assert isinstance(outer.right, Exchange) and outer.right.kind == "shuffle"
        # Both route through the same ad-hoc hash spec.
        assert outer.left.spec is outer.right.spec
        assert outer.left.spec.table == "*"

    def test_repartitioning_join_identical_across_strategies(self):
        results = run_all_strategies(tpch_order_lines_plan(top_n=200), "repart")
        rows = {k: r.rows for k, r in results.items()}
        assert rows["page"] == rows["query"] == rows["hybrid"]
        assert len(rows["page"]) == 200
        # Two shuffles feed the repartitioned join (plus the co-located
        # first join's probe shuffle): more exchanged rows than a single
        # shuffle would move.
        assert results["query"].metrics["exchange_rows"] > 0


class TestTwoPhaseAggregation:
    def test_aggregate_splits_into_partial_and_final(self):
        placed = place_exchanges(tpch_returnflag_agg_plan(), TPCH_PARTITIONING)
        phases = [n.phase for n in walk(placed) if isinstance(n, Aggregate)]
        assert sorted(phases) == ["final", "partial"]
        final = next(n for n in walk(placed) if isinstance(n, Aggregate))
        assert isinstance(final.child, Exchange) and final.child.kind == "gather"

    def test_groups_identical_across_strategies(self):
        results = run_all_strategies(tpch_returnflag_agg_plan(), "agg")
        rows = {k: r.rows for k, r in results.items()}
        assert rows["page"] == rows["query"] == rows["hybrid"]
        assert len(rows["page"]) == 3  # returnflag in {0, 1, 2}
        # Only the tiny partial rows cross the fabric, not the lineitems.
        query = results["query"].metrics
        assert 0 < query["exchange_rows"] <= 3 * SPEC.db_servers


class TestSkewUnderMinimalCredits:
    def test_heavy_hitter_repartition_completes_with_one_credit(self):
        # Two distinct custkey values across 400 orders: every exchanged
        # tuple of the repartitioning join hashes to one of two owners,
        # overflowing a single fragment's staging slot repeatedly.  One
        # credit per channel forces maximal back-pressure; the drain
        # protocol must still finish, with rows identical to page
        # shipping.
        skew = TpchScale(orders=400, lines_per_order=2, customers=2,
                         parts=40, suppliers=10)
        partitioning = dict(TPCH_PARTITIONING)
        partitioning["customer"] = PartitionSpec("customer", "nationkey")
        spec = replace(SPEC, name="skew", db_servers=3, credits=1)
        plan = tpch_order_lines_plan(top_n=300, acctbal_below=1e9)

        placed = place_exchanges(plan, partitioning)
        joins = [n for n in walk(placed) if isinstance(n, Join)]
        # customer is no longer partitioned on custkey, so *both* joins
        # repartition: four shuffles total.
        shuffles = [n for n in walk(placed)
                    if isinstance(n, Exchange) and n.kind == "shuffle"]
        assert len(joins) == 2 and len(shuffles) == 4

        query = build_strategy(Strategy.QUERY, spec, total_ext_pages=0,
                               scale=skew, partitioning=partitioning, seed=7)
        stalled = execute_plan(query, plan, name="skew")
        page = build_strategy(Strategy.PAGE, spec, total_ext_pages=512,
                              scale=skew, seed=7)
        baseline = execute_plan(page, plan, name="skew")
        assert stalled.rows == baseline.rows
        assert len(stalled.rows) == 300
        assert stalled.metrics["credit_stalls_us"] > 0



class TestRerunInOneProcess:
    """Running the same plan again in the same process, under every
    strategy, reproduces it exactly: no state leaks between runs."""

    SPEC = replace(SPEC, name="rerun", bp_pages=160)
    CUST_ORDERS = TopN(Project(
        Join(Scan("customer", conditions=(("acctbal", "<", 50.0),)), Scan("orders"),
             "customer.custkey", "orders.custkey", semijoin=True),
        ("customer.custkey", "customer.acctbal", "orders.orderkey", "orders.totalprice"),
    ), 250)
    PLANS = {
        "star_join": (tpch_star_join_plan(top_n=200), {}),
        "returnflag_agg": (tpch_returnflag_agg_plan(), {}),
        "cust_orders": (CUST_ORDERS, {"memory_bytes": 8 * MB, "memory_consumers": 2}),
    }

    def run_once(self):
        return {
            (name, strategy): (result.rows, result.elapsed_us, result.metrics)
            for name, (plan, options) in self.PLANS.items()
            for strategy, result in run_all_strategies(
                plan, name, spec=self.SPEC, seed=9, **options).items()
        }

    def test_two_runs_bit_identical_and_strategies_agree(self):
        first, second = self.run_once(), self.run_once()
        assert first == second
        for name in self.PLANS:
            page, query, hybrid = (first[name, s] for s in ("page", "query", "hybrid"))
            assert page[0] == query[0] == hybrid[0] and page[0], name
            assert query[2] != page[2], name  # placement differs
