"""TPC-H-like decision-support workload (Appendix B.1, Figures 18/19).

The paper runs TPC-H at scale factor 200 (840 GB after DTA-tuned
indexes) with 64 GB of local memory and 256 GB of remote BPExt.  We
scale the data ~4000x down, preserving the ratios that matter (data :
local memory : BPExt : TempDB from Table 4) and the benchmark's shape:

* 22 query templates over lineitem/orders/customer/part/supplier,
* a DTA-style physical design: clustered keys plus the non-clustered
  indexes the plans seek on,
* the three plan shapes that span the paper's improvement histogram —
  sequential scan + aggregate (CPU-bound, <2x gain), selective index
  lookups through NC indexes (random-I/O-bound, the 2-10x bucket), and
  memory-hungry join/sort queries whose grant is capped so they spill
  to TempDB (Q10/Q18 — the queries that make Custom *beat* Local
  Memory in Figure 18).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import (
    Column,
    Database,
    ExternalSort,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexRangeScan,
    Schema,
    TableScan,
)
from ..plan import Agg, Aggregate, Join, PlanNode, Project, Scan, TopN
from .analytics import QuerySpec, WithScanLeg

__all__ = [
    "TpchScale",
    "TPCH_QUERIES",
    "TPCH_SCHEMAS",
    "build_tpch_database",
    "generate_tpch_rows",
    "install_tpch_tables",
    "tpch_query_specs",
    "tpch_star_join_plan",
    "tpch_order_lines_plan",
    "tpch_returnflag_agg_plan",
]

CUSTOMER = Schema(
    columns=(
        Column("custkey", "int", 8), Column("name", "str", 25),
        Column("nationkey", "int", 8), Column("acctbal", "float", 8),
        Column("mktsegment", "str", 10), Column("payload", "str", 160),
    ),
    key="custkey",
)
ORDERS = Schema(
    columns=(
        Column("orderkey", "int", 8), Column("custkey", "int", 8),
        Column("orderdate", "int", 8), Column("totalprice", "float", 8),
        Column("orderpriority", "int", 8), Column("payload", "str", 180),
    ),
    key="orderkey",
)
LINEITEM = Schema(
    columns=(
        Column("linekey", "int", 8), Column("orderkey", "int", 8),
        Column("partkey", "int", 8), Column("suppkey", "int", 8),
        Column("shipdate", "int", 8), Column("extendedprice", "float", 8),
        Column("discount", "float", 8), Column("quantity", "int", 8),
        Column("returnflag", "int", 8), Column("payload", "str", 250),
    ),
    key="linekey",
)
PART = Schema(
    columns=(
        Column("partkey", "int", 8), Column("brand", "int", 8),
        Column("size", "int", 8), Column("retailprice", "float", 8),
        Column("payload", "str", 140),
    ),
    key="partkey",
)
SUPPLIER = Schema(
    columns=(
        Column("suppkey", "int", 8), Column("nationkey", "int", 8),
        Column("acctbal", "float", 8), Column("payload", "str", 120),
    ),
    key="suppkey",
)

#: Days span used for orderdate/shipdate predicates.
DATE_SPAN = 2557  # ~7 years, as in TPC-H


@dataclass(frozen=True)
class TpchScale:
    """Scaled-down cardinalities (ratios follow TPC-H)."""

    orders: int = 8_000
    lines_per_order: int = 4
    customers: int = 800
    parts: int = 1_000
    suppliers: int = 100

    @property
    def lineitems(self) -> int:
        return self.orders * self.lines_per_order


#: Schema per table name, for loaders that install subsets (repro.dist
#: partitions tables across servers and loads one shard per server).
TPCH_SCHEMAS = {
    "customer": CUSTOMER,
    "orders": ORDERS,
    "lineitem": LINEITEM,
    "part": PART,
    "supplier": SUPPLIER,
}


def generate_tpch_rows(scale: TpchScale = TpchScale(), seed: int = 0) -> dict[str, list]:
    """Generate the scaled TPC-H rows, keyed by table name.

    Split out of :func:`build_tpch_database` so distributed loaders can
    partition one canonical row set across servers.  The RNG draw order
    is load-bearing: goldens depend on these exact rows.
    """
    rng = np.random.default_rng(seed)
    customers = [
        (key, f"Customer{key}", key % 25, float(key % 9000), "BUILDING", "c")
        for key in range(scale.customers)
    ]
    orders = [
        (
            key,
            int(rng.integers(0, scale.customers)),
            int(rng.integers(0, DATE_SPAN)),
            float(rng.integers(1000, 500_000)) / 100.0,
            int(rng.integers(0, 5)),
            "o",
        )
        for key in range(scale.orders)
    ]
    lineitems = []
    for order_key in range(scale.orders):
        for line in range(scale.lines_per_order):
            lineitems.append(
                (
                    order_key * scale.lines_per_order + line,
                    order_key,
                    int(rng.integers(0, scale.parts)),
                    int(rng.integers(0, scale.suppliers)),
                    int(rng.integers(0, DATE_SPAN)),
                    float(rng.integers(100, 100_000)) / 100.0,
                    float(rng.integers(0, 10)) / 100.0,
                    int(rng.integers(1, 51)),
                    int(rng.integers(0, 3)),
                    "l",
                )
            )
    parts = [
        (key, key % 25, key % 50, float(900 + key % 1000), "p")
        for key in range(scale.parts)
    ]
    suppliers = [
        (key, key % 25, float(key % 9000), "s") for key in range(scale.suppliers)
    ]
    return {
        "customer": customers,
        "orders": orders,
        "lineitem": lineitems,
        "part": parts,
        "supplier": suppliers,
    }


def install_tpch_tables(db: Database, rows: dict[str, list], scale: TpchScale) -> dict:
    """Create the TPC-H tables + DTA indexes from a generated row set."""
    tables = {
        name: db.create_table(name, schema, rows[name])
        for name, schema in TPCH_SCHEMAS.items()
    }
    # DTA-style physical design: the NC indexes the templates seek on.
    indexes = {
        "orders.orderdate": db.create_secondary_index(tables["orders"], "orderdate"),
        "orders.custkey": db.create_secondary_index(tables["orders"], "custkey"),
        "lineitem.orderkey": db.create_secondary_index(tables["lineitem"], "orderkey"),
        "lineitem.partkey": db.create_secondary_index(tables["lineitem"], "partkey"),
        "lineitem.shipdate": db.create_secondary_index(tables["lineitem"], "shipdate"),
    }
    tables["_indexes"] = indexes
    tables["_scale"] = scale
    return tables


def build_tpch_database(db: Database, scale: TpchScale = TpchScale(), seed: int = 0) -> dict:
    """Load the scaled TPC-H tables and DTA-recommended indexes."""
    return install_tpch_tables(db, generate_tpch_rows(scale, seed), scale)


# ---------------------------------------------------------------------------
# Canonical logical plans (repro.plan IR, lowered three ways by repro.dist)
# ---------------------------------------------------------------------------


def tpch_star_join_plan(top_n: int = 500, size_below: int = 25) -> PlanNode:
    """Three-table star join: part |><| lineitem |><| supplier.

    Left-deep: the first join is co-partitioned under the default TPC-H
    partitioning (part and lineitem both hash on partkey), so its
    shuffle self-ships; the second join key (suppkey) is *not* the
    intermediate's partition key, so the intermediate result shuffles
    to the supplier owners.  ``lineitem.linekey`` in the projection
    makes full-tuple ordering total.
    """
    part = Scan("part", conditions=(("size", "<", size_below),))
    first = Join(part, Scan("lineitem"), "part.partkey", "lineitem.partkey")
    star = Join(first, Scan("supplier"), "lineitem.suppkey", "supplier.suppkey")
    projected = Project(star, (
        "lineitem.linekey", "part.partkey", "part.brand",
        "supplier.suppkey", "supplier.nationkey", "lineitem.quantity",
    ))
    return TopN(projected, top_n)


def tpch_order_lines_plan(top_n: int = 500, acctbal_below: float = 4000.0) -> PlanNode:
    """Customer |><| orders |><| lineitem — a repartitioning join.

    The second join runs on orderkey, which is neither the
    customer-orders intermediate's partition key (custkey) nor
    lineitem's (partkey), so *both* inputs shuffle on an ad-hoc hash
    spec — the repartitioning case no co-located placement can serve.
    """
    customer = Scan("customer", conditions=(("acctbal", "<", acctbal_below),))
    cust_orders = Join(customer, Scan("orders"), "customer.custkey", "orders.custkey")
    lines = Join(cust_orders, Scan("lineitem"), "orders.orderkey", "lineitem.orderkey")
    projected = Project(lines, (
        "lineitem.linekey", "orders.orderkey", "customer.custkey",
        "lineitem.quantity",
    ))
    return TopN(projected, top_n)


def tpch_returnflag_agg_plan(ship_fraction: float = 0.6, top_n: int = 100) -> PlanNode:
    """Q1-style group-by over lineitem, exact across lowerings.

    Distributed placement turns the single Aggregate into a partial per
    fragment plus a final merge after a gather.  Every aggregate here
    is over *int* inputs (quantity), so partial merges are exact and
    all three strategies return identical groups — float sums would be
    order-sensitive (DESIGN.md §13).
    """
    lines = Scan(
        "lineitem", conditions=(("shipdate", "<", int(DATE_SPAN * ship_fraction)),)
    )
    agg = Aggregate(
        lines,
        group_by=("lineitem.returnflag",),
        aggs=(
            Agg("count"),
            Agg("sum", "quantity"),
            Agg("min", "quantity"),
            Agg("max", "quantity"),
            Agg("avg", "quantity"),
        ),
    )
    return TopN(agg, top_n)


# ---------------------------------------------------------------------------
# Plan shape builders
# ---------------------------------------------------------------------------

_KB = 1024
_MB = 1024 * _KB


def _scan_aggregate(db, tables, rng, fraction: float, cpu_per_row_us: float = 1.6):
    """Q1/Q6 shape: sequential scan + expression-dense aggregate.

    These queries compute many aggregates per row (Q1 has eight), so
    they are CPU-bound even off the HDD array — the <2x bucket of the
    improvement histogram.
    """
    lineitem = tables["lineitem"]
    ship_index = LINEITEM.index_of("shipdate")
    flag_index = LINEITEM.index_of("returnflag")
    cutoff = int(DATE_SPAN * fraction)
    plan = HashAggregate(
        TableScan(
            lineitem,
            predicate=lambda row: row[ship_index] < cutoff,
            extra_cpu_per_row_us=cpu_per_row_us,
        ),
        group_key=lambda row: row[flag_index],
        init=lambda: (0, 0.0),
        update=lambda acc, row: (acc[0] + 1, acc[1] + row[5]),
    )
    return plan, 1 * _MB, 1

def _date_range_lookup_join(db, tables, rng, days: int, with_scan: bool = False):
    """Q3/Q4/Q12/Q21 shape: orderdate NC range -> clustered lookups ->
    lineitem NC seeks -> clustered lookups.  Random-I/O dominated.

    ``with_scan=True`` adds a lineitem scan leg (EXISTS/anti-join style
    subplans), which dilutes the random-I/O gain into the 2-5x bucket.
    """
    orders = tables["orders"]
    lineitem = tables["lineitem"]
    date_index = tables["_indexes"]["orders.orderdate"]
    li_orderkey = tables["_indexes"]["lineitem.orderkey"]
    start = int(rng.integers(0, max(1, DATE_SPAN - days)))
    # NC index range scan yields (orderdate, orderkey) entries.
    order_entries = IndexRangeScan(date_index, start, start + days, row_bytes=24)
    if with_scan:
        order_entries = WithScanLeg(
            order_entries,
            TableScan(lineitem, predicate=lambda row: False, extra_cpu_per_row_us=0.6),
        )
    # Lookup the order rows in the clustered index.
    order_rows = IndexNestedLoopJoin(
        outer=order_entries,
        inner_tree=orders.clustered,
        outer_key=lambda entry: entry[1],
        combine=lambda entry, order: order,
    )
    # For each order, seek the lineitem NC index, then look the rows up.
    line_entries = IndexNestedLoopJoin(
        outer=order_rows,
        inner_tree=li_orderkey,
        outer_key=lambda order: order[0],
        combine=lambda order, entry: order + (entry[1],),
    )
    joined = IndexNestedLoopJoin(
        outer=line_entries,
        inner_tree=lineitem.clustered,
        outer_key=lambda row: row[-1],
        combine=lambda row, line: row[:-1] + line,
    )
    plan = HashAggregate(
        joined,
        group_key=lambda row: row[4],  # orderpriority
        init=lambda: 0.0,
        update=lambda acc, row: acc + row[len(ORDERS.columns) + 5],
    )
    return plan, 2 * _MB, 1


def _selective_seeks(db, tables, rng, lookups: int):
    """Q2/Q14/Q17/Q19/Q20 shape: partkey seeks + clustered lookups."""
    lineitem = tables["lineitem"]
    li_partkey = tables["_indexes"]["lineitem.partkey"]
    scale: TpchScale = tables["_scale"]
    start = int(rng.integers(0, max(1, scale.parts - lookups)))
    entries = IndexRangeScan(li_partkey, start, start + lookups, row_bytes=24)
    rows = IndexNestedLoopJoin(
        outer=entries,
        inner_tree=lineitem.clustered,
        outer_key=lambda entry: entry[1],
        combine=lambda entry, line: line,
    )
    plan = HashAggregate(
        rows,
        group_key=lambda line: line[2] % 16,
        init=lambda: 0.0,
        update=lambda acc, line: acc + line[5] * (1.0 - line[6]),
    )
    return plan, 1 * _MB, 1


def _spill_join_topn(db, tables, rng, order_fraction: float, top_n: int):
    """Q10/Q18 shape: big hash join + top-N sort, grant-capped -> spills."""
    orders = tables["orders"]
    lineitem = tables["lineitem"]
    cutoff = int(DATE_SPAN * order_fraction)
    date_idx = ORDERS.index_of("orderdate")
    join = HashJoin(
        build=TableScan(orders, predicate=lambda row: row[date_idx] < cutoff),
        probe=TableScan(lineitem),
        build_key=lambda order: order[0],
        probe_key=lambda line: line[1],
        combine=lambda order, line: line + order,
    )
    plan = ExternalSort(join, key=lambda row: row[5], reverse=True, top_n=top_n)
    return plan, 64 * _MB, 2


def _multiway_join(db, tables, rng, days: int):
    """Q5/Q7/Q8/Q9 shape: three-way join with a scan side and a hash side."""
    orders = tables["orders"]
    customer = tables["customer"]
    lineitem = tables["lineitem"]
    date_index = tables["_indexes"]["orders.orderdate"]
    start = int(rng.integers(0, max(1, DATE_SPAN - days)))
    order_entries = IndexRangeScan(date_index, start, start + days, row_bytes=24)
    # Multi-way plans also stream a fact-table leg (supplier/part side).
    order_entries = WithScanLeg(
        order_entries,
        TableScan(lineitem, predicate=lambda row: False, extra_cpu_per_row_us=0.4),
    )
    order_rows = IndexNestedLoopJoin(
        outer=order_entries,
        inner_tree=orders.clustered,
        outer_key=lambda entry: entry[1],
        combine=lambda entry, order: order,
    )
    joined = HashJoin(
        build=TableScan(customer),
        probe=order_rows,
        build_key=lambda cust: cust[0],
        probe_key=lambda order: order[1],
        combine=lambda cust, order: order + (cust[2],),
    )
    plan = HashAggregate(
        joined,
        group_key=lambda row: row[-1],  # nationkey
        init=lambda: 0.0,
        update=lambda acc, row: acc + row[3],
    )
    return plan, 4 * _MB, 1


def tpch_query_specs() -> list[QuerySpec]:
    """The 22 query templates, tuned to span the paper's histogram."""

    def spec(name, builder, **kwargs):
        return QuerySpec(
            name=name,
            factory=lambda db, tables, rng: builder(db, tables, rng, **kwargs),
        )

    return [
        # Scan-heavy, CPU-bound: small gains (<2x bucket).
        spec("Q1", _scan_aggregate, fraction=0.95),
        spec("Q6", _scan_aggregate, fraction=0.4),
        spec("Q13", _scan_aggregate, fraction=0.8),
        spec("Q15", _scan_aggregate, fraction=0.5),
        spec("Q16", _scan_aggregate, fraction=0.6),
        spec("Q22", _scan_aggregate, fraction=0.25),
        # Date-range + lookup joins: moderate random I/O (2-5x).
        spec("Q3", _date_range_lookup_join, days=90, with_scan=True),
        spec("Q4", _date_range_lookup_join, days=60, with_scan=True),
        spec("Q12", _date_range_lookup_join, days=80, with_scan=True),
        spec("Q7", _multiway_join, days=150),
        spec("Q8", _multiway_join, days=120),
        spec("Q5", _multiway_join, days=180),
        spec("Q9", _multiway_join, days=240),
        spec("Q11", _selective_seeks, lookups=60),
        spec("Q14", _selective_seeks, lookups=100),
        spec("Q17", _selective_seeks, lookups=400),
        spec("Q19", _selective_seeks, lookups=120),
        spec("Q20", _selective_seeks, lookups=160),
        spec("Q2", _selective_seeks, lookups=40),
        spec("Q21", _date_range_lookup_join, days=120, with_scan=True),
        # Memory-hungry join + top-N: spill to TempDB (Q10/Q18).
        spec("Q10", _spill_join_topn, order_fraction=0.5, top_n=2_000),
        spec("Q18", _spill_join_topn, order_fraction=0.9, top_n=1_000),
    ]


TPCH_QUERIES = tpch_query_specs()
