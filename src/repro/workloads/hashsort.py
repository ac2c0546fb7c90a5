"""The Hash+Sort micro-benchmark (Section 5.2.2, Figure 14).

    SELECT top N * FROM lineitem l JOIN orders o
    ON l.orderkey = o.orderkey ORDER BY l.extendedprice

Executed as hash join (build on orders) feeding a top-N external sort.
Local memory is large enough to cache the *data*, so the bottleneck is
TempDB: the join build and the sort both exceed their grant share and
spill — phase 1 writes (build + runs), phase 2 reads + writes (merge),
exactly the I/O phases of Figure 14(b).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import (
    Column,
    Database,
    ExecMetrics,
    ExternalSort,
    HashJoin,
    Schema,
    Table,
    TableScan,
)
from ..sim.kernel import ProcessGenerator
from .clients import ClientRun, run_clients

__all__ = [
    "LINEITEM_SCHEMA",
    "ORDERS_SCHEMA",
    "HashSortConfig",
    "build_hashsort_tables",
    "run_hashsort",
]

LINEITEM_SCHEMA = Schema(
    columns=(
        Column("linekey", "int", 8),       # unique clustering key
        Column("orderkey", "int", 8),
        Column("extendedprice", "float", 8),
        Column("quantity", "int", 8),
        Column("payload", "str", 670),  # SQL Server row width at SF200 incl. overheads
    ),
    key="linekey",
)

ORDERS_SCHEMA = Schema(
    columns=(
        Column("orderkey", "int", 8),
        Column("custkey", "int", 8),
        Column("totalprice", "float", 8),
        Column("orderdate", "int", 8),
        Column("payload", "str", 190),
    ),
    key="orderkey",
)


@dataclass
class HashSortConfig:
    n_orders: int = 40_000
    lines_per_order: int = 4
    top_n: int = 10_000
    #: Workspace-memory request; the admission-controlled grant will be
    #: far smaller than the join + sort need, forcing TempDB spills.
    requested_memory_bytes: int = 64 * 1024 * 1024
    seed: int = 0


def build_hashsort_tables(db: Database, config: HashSortConfig) -> tuple[Table, Table]:
    orders = [
        (key, key % 5000, float(key % 100_000), 19920000 + key % 2557, "o" * 8)
        for key in range(config.n_orders)
    ]
    lineitems = [
        (
            order_key * config.lines_per_order + line,
            order_key,
            float((order_key * 7919 + line * 104729) % 1_000_000) / 10.0,
            1 + (order_key + line) % 50,
            "l" * 8,
        )
        for order_key in range(config.n_orders)
        for line in range(config.lines_per_order)
    ]
    orders_table = db.create_table("orders", ORDERS_SCHEMA, orders)
    lineitem_table = db.create_table("lineitem", LINEITEM_SCHEMA, lineitems)
    return lineitem_table, orders_table


def hashsort_plan(lineitem: Table, orders: Table, top_n: int) -> ExternalSort:
    price_index = LINEITEM_SCHEMA.index_of("extendedprice")
    join = HashJoin(
        build=TableScan(orders),
        probe=TableScan(lineitem),
        build_key=lambda order: order[0],
        probe_key=lambda line: line[1],
        combine=lambda order, line: line + order,
    )
    return ExternalSort(join, key=lambda row: row[price_index], top_n=top_n)


def run_hashsort(db: Database, lineitem: Table, orders: Table,
                 config: HashSortConfig) -> tuple[ClientRun, ExecMetrics]:
    """Execute the query once, as one client's one op (it is
    long-running); returns the run and the query's execution metrics."""
    plan = hashsort_plan(lineitem, orders, config.top_n)

    def query() -> ProcessGenerator:
        result = yield from db.execute(
            plan,
            requested_memory_bytes=config.requested_memory_bytes,
            memory_consumers=2,  # hash join + sort share the grant
        )
        return "hashsort", result.metrics

    run = run_clients(db.sim, [[query]])
    return run, run.records[0][3]
