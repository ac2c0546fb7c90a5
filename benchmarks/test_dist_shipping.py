"""Distributed shipping axis: page vs query vs hybrid on identical hardware.

Two TPC-H-derived joins run under all three placement strategies
(:class:`repro.dist.Strategy`) on two cluster sizes.  The hardware is
identical in every cell — same servers, NICs, devices — only data
placement differs: page shipping pulls 8K pages from remote memory into
DB server 0, query shipping shuffles tuples between co-located shards,
and the hybrid (NAM-style) does both.  A final pair of cells turns on
Bloom-filter semi-join pushdown and demands fewer shuffled bytes for
the same answer.

Everything runs in virtual time, so the recorded numbers are exact:
``benchmarks/goldens/dist_shipping.json`` is a golden, and drift
means exchange/planner behavior changed and needs a deliberate
refresh::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src \\
        python -m pytest benchmarks/test_dist_shipping.py -o testpaths=
"""

from __future__ import annotations

import zlib

from conftest import check_golden

from repro.dist import DistSpec, Strategy, build_strategy, execute_plan
from repro.harness import format_table
from repro.plan import Join, PlanNode, Project, Scan, TopN
from repro.storage import MB
from repro.workloads import TpchScale, tpch_returnflag_agg_plan, tpch_star_join_plan

SCALE = TpchScale(orders=400, lines_per_order=2, customers=100, parts=80, suppliers=20)
CLUSTER_SIZES = (2, 4)
STRATEGIES = (Strategy.PAGE, Strategy.QUERY, Strategy.HYBRID)
TOTAL_EXT_PAGES = 1024
SEED = 9

def cust_orders(semijoin: bool = False) -> PlanNode:
    join = Join(
        Scan("customer", conditions=(("acctbal", "<", 60.0),)),
        Scan("orders", conditions=(("orderdate", "<", 2000),)),
        "customer.custkey", "orders.custkey", semijoin=semijoin,
    )
    columns = ("customer.custkey", "customer.acctbal",
               "orders.orderkey", "orders.totalprice")
    return TopN(Project(join, columns), 300)


#: Both queries project the probe table's primary key, so projected
#: tuples are unique and the full-tuple top-N is a total order — the
#: row-identity assertion across strategies is exact, not approximate.
QUERIES = {
    "cust_orders": cust_orders(),
    "order_lines": TopN(Project(
        Join(
            Scan("orders", conditions=(("orderdate", "<", 1200),)), Scan("lineitem"),
            "orders.orderkey", "lineitem.orderkey",
        ),
        ("orders.orderkey", "orders.totalprice", "lineitem.linekey", "lineitem.quantity"),
    ), 300),
}


def _spec(n: int) -> DistSpec:
    return DistSpec(
        name="bench", db_servers=n, bp_pages=160, tempdb_pages=256,
        data_spindles=2, db_cores=4, seed=SEED,
    )


def _digest(rows: list) -> int:
    return zlib.crc32(repr(rows).encode())


def _cell(setup, result) -> dict:
    return {
        "strategy": result.strategy,
        "rows": len(result.rows),
        "rows_crc": _digest(result.rows),
        "elapsed_us": round(result.elapsed_us, 3),
        "sim_now_us": round(setup.sim.now, 3),
        **result.metrics,
    }


def run_cell(plan: PlanNode, name: str, n: int, strategy: Strategy) -> dict:
    """One two-table join; the grant (8 MB over join + top-N) is pinned
    so these cells stay on their recorded virtual clock."""
    setup = build_strategy(
        strategy, _spec(n), total_ext_pages=TOTAL_EXT_PAGES,
        scale=SCALE, seed=SEED,
    )
    return _cell(setup, execute_plan(
        setup, plan, name=name, tag="run", memory_bytes=8 * MB, memory_consumers=2,
    ))


def run_plan_cell(plan, name: str, n: int, strategy: Strategy) -> dict:
    setup = build_strategy(
        strategy, _spec(n), total_ext_pages=TOTAL_EXT_PAGES,
        scale=SCALE, seed=SEED,
    )
    return _cell(setup, execute_plan(setup, plan, name=name))


#: Plans exercising the distributed lowerings beyond a two-table
#: equi-join: a left-deep three-table star join
#: (the intermediate result shuffles to the supplier owners) and a
#: two-phase group-by (partial per fragment, final merge after gather).
PLAN_CELLS = {
    "star_join": tpch_star_join_plan(top_n=300),
    "returnflag_agg": tpch_returnflag_agg_plan(),
}


def measure() -> dict:
    cells: dict[str, dict] = {}
    rows = []
    for name, query in QUERIES.items():
        for n in CLUSTER_SIZES:
            for strategy in STRATEGIES:
                cell = run_cell(query, name, n, strategy)
                cells[f"{name}/{n}/{strategy.value}"] = cell
                rows.append([
                    name, n, strategy.value, cell["rows"],
                    cell["elapsed_us"], cell["exchange_bytes"],
                ])
    # Semi-join pushdown: same query, same placement, Bloom filter
    # shipped ahead of the shuffle.
    cells["cust_orders/2/query+semijoin"] = run_cell(
        cust_orders(semijoin=True), "cust_orders", 2, Strategy.QUERY
    )
    # Multi-join and two-phase aggregation: one IR plan per cell row.
    for name, plan in PLAN_CELLS.items():
        for strategy in STRATEGIES:
            cell = run_plan_cell(plan, name, 2, strategy)
            cells[f"{name}/2/{strategy.value}"] = cell
            rows.append([
                name, 2, strategy.value, cell["rows"],
                cell["elapsed_us"], cell["exchange_bytes"],
            ])
    print()
    print(format_table(
        ["query", "servers", "strategy", "rows", "elapsed (us)",
         "exchange bytes"],
        rows, title="Page vs query vs hybrid shipping on identical hardware",
    ))
    plain = cells["cust_orders/2/query"]
    pushed = cells["cust_orders/2/query+semijoin"]
    print(
        f"semi-join pushdown: {plain['exchange_bytes']} -> "
        f"{pushed['exchange_bytes']} shuffled bytes "
        f"({pushed['bloom_filtered_rows']} probe rows filtered)"
    )
    return cells


def test_dist_shipping_axis(once):
    cells = once(measure)

    for name in QUERIES:
        for n in CLUSTER_SIZES:
            page = cells[f"{name}/{n}/page"]
            query = cells[f"{name}/{n}/query"]
            hybrid = cells[f"{name}/{n}/hybrid"]
            # All three strategies agree row-for-row (crc over the exact
            # projected tuples), and actually returned data.
            assert page["rows"] == query["rows"] == hybrid["rows"] > 0, name
            assert page["rows_crc"] == query["rows_crc"] == hybrid["rows_crc"], name
            # Placement shows up in the metrics: page shipping never
            # touches the exchange fabric, the distributed strategies do.
            assert page["exchange_bytes"] == 0, name
            assert query["exchange_bytes"] > 0, name
            assert hybrid["exchange_bytes"] > 0, name
        # More servers shuffle at least as many tuples (fewer self-ships).
        assert (
            cells[f"{name}/4/query"]["exchange_rows"]
            >= cells[f"{name}/2/query"]["exchange_rows"]
        ), name

    # Semi-join pushdown measurably cuts shuffled bytes, same answer.
    plain = cells["cust_orders/2/query"]
    pushed = cells["cust_orders/2/query+semijoin"]
    assert pushed["rows_crc"] == plain["rows_crc"]
    assert pushed["bloom_filtered_rows"] > 0
    assert pushed["exchange_bytes"] < plain["exchange_bytes"]

    # The IR-plan cells hold to the same contract: identical rows across
    # strategies, and only the distributed lowerings touch the fabric.
    for name in PLAN_CELLS:
        page = cells[f"{name}/2/page"]
        query = cells[f"{name}/2/query"]
        hybrid = cells[f"{name}/2/hybrid"]
        assert page["rows"] == query["rows"] == hybrid["rows"] > 0, name
        assert page["rows_crc"] == query["rows_crc"] == hybrid["rows_crc"], name
        assert page["exchange_bytes"] == 0 < query["exchange_bytes"], name
    # Two-phase aggregation ships partial rows, not lineitems: orders of
    # magnitude fewer exchanged rows than the star join's shuffles.
    assert (
        cells["returnflag_agg/2/query"]["exchange_rows"]
        < cells["star_join/2/query"]["exchange_rows"] / 10
    )

    check_golden(
        "dist_shipping", cells,
        description="page vs query vs hybrid shipping: 2 TPC-H joins "
                    "x 2 cluster sizes x 3 strategies + semi-join "
                    "pushdown + IR-plan star join and two-phase "
                    "aggregation; virtual-time exact golden",
    )
