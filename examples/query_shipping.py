"""Query shipping vs page shipping: move the query, not the pages.

The paper's design keeps one database engine and extends its buffer
pool into remote memory — a *page shipping* architecture: on a miss,
an 8K page crosses the RDMA fabric.  "The End of Slow Networks"
(Binnig et al.) argues that once the network is this fast you can
instead partition the data and move *tuples* between co-located
shards — *query shipping* — or split compute from memory entirely
(the NAM-style *hybrid*).

This script runs one TPC-H-derived join (customer JOIN orders, top-N
by projected tuple) under all three strategies on identical virtual
hardware — same servers, NICs, disks; only placement differs:

* **page**   — all data on DB server 0, buffer-pool extension in
               remote memory; misses pull pages over RDMA.
* **query**  — each server owns a hash shard in local DRAM; fragments
               shuffle probe tuples through credit-flow-controlled
               RDMA exchanges and gather at the root.
* **hybrid** — shards *and* remote extensions: fragments fault pages
               from memory servers and still exchange tuples.

All three must return row-identical results (the planner projects the
probe table's primary key, so the top-N order is total).  A second
query-shipping run turns on Bloom-filter semi-join pushdown: the build
side's join keys are shipped ahead as a compact filter, so probe rows
with no join partner never hit the wire.

Run:  python examples/query_shipping.py
"""

from repro.dist import DistSpec, Strategy, build_strategy, execute_plan
from repro.harness import format_table
from repro.plan import Join, PlanNode, Project, Scan, TopN
from repro.storage import MB
from repro.workloads import TpchScale

SCALE = TpchScale(orders=600, lines_per_order=2, customers=150, parts=100, suppliers=25)
SEED = 11

SPEC = DistSpec(
    name="example", db_servers=2, bp_pages=160, tempdb_pages=256,
    data_spindles=2, db_cores=4, seed=SEED,
)

def cust_orders(semijoin: bool = False) -> PlanNode:
    """customer JOIN orders as a logical plan; ``orders.orderkey`` in
    the projection makes the top-N a total order."""
    join = Join(
        Scan("customer", conditions=(("acctbal", "<", 40.0),)),
        Scan("orders", conditions=(("orderdate", "<", 2000),)),
        "customer.custkey", "orders.custkey", semijoin=semijoin,
    )
    columns = ("customer.custkey", "customer.acctbal",
               "orders.orderkey", "orders.totalprice")
    return TopN(Project(join, columns), 400)


def run(strategy: Strategy, plan: PlanNode):
    setup = build_strategy(
        strategy, SPEC, total_ext_pages=1024, scale=SCALE, seed=SEED
    )
    return execute_plan(
        setup, plan, name="cust_orders", tag="run",
        memory_bytes=8 * MB, memory_consumers=2,
    )


def main() -> None:
    results = {s: run(s, cust_orders()) for s in Strategy}

    rows = [
        [
            result.strategy,
            len(result.rows),
            f"{result.elapsed_us:,.1f}",
            result.metrics["exchange_rows"],
            result.metrics["exchange_bytes"],
            f"{result.metrics['credit_stalls_us']:,.1f}",
        ]
        for result in results.values()
    ]
    print(format_table(
        ["strategy", "rows", "elapsed (us)", "shuffled rows",
         "shuffled bytes", "credit stalls (us)"],
        rows, title="customer JOIN orders: three placements, one answer",
    ))

    reference = results[Strategy.PAGE].rows
    assert all(r.rows == reference for r in results.values())
    print(f"\nall three strategies returned the same {len(reference)} rows")

    plain = results[Strategy.QUERY]
    pushed = run(Strategy.QUERY, cust_orders(semijoin=True))
    assert pushed.rows == reference
    print(
        "semi-join pushdown: "
        f"{plain.metrics['exchange_bytes']:,} -> "
        f"{pushed.metrics['exchange_bytes']:,} shuffled bytes "
        f"({pushed.metrics['bloom_filtered_rows']} probe rows never "
        "crossed the wire)"
    )


if __name__ == "__main__":
    main()
