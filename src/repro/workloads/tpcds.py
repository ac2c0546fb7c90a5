"""TPC-DS-like decision-support workload (Appendix B.1, Figures 20/21).

TPC-DS at scale 300 (900 GB tuned) has a far more diverse query set
than TPC-H, and the paper measures much larger gains — 18 queries at
2-5x, 21 at 5-10x, 11 at 10-50x, and several beyond 100x.  The >100x
class comes from queries doing *sparse* index lookups over a fact table
far larger than local memory: on the HDD baseline every lookup is a
~4.5 ms seek, while remote memory serves it in tens of microseconds.

We scale down ~4000x with a star schema (store_sales fact plus
customer/item/date_dim/store dimensions) and 60 query templates spread
over five shapes that reproduce that histogram.
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
from .analytics import QuerySpec, WithScanLeg

__all__ = ["TpcdsScale", "TPCDS_QUERIES", "build_tpcds_database", "tpcds_query_specs"]

STORE_SALES = Schema(
    columns=(
        Column("ticket", "int", 8), Column("item_sk", "int", 8),
        Column("customer_sk", "int", 8), Column("sold_date_sk", "int", 8),
        Column("store_sk", "int", 8), Column("quantity", "int", 8),
        Column("sales_price", "float", 8), Column("net_profit", "float", 8),
        Column("payload", "str", 260),
    ),
    key="ticket",
)
CUSTOMER = Schema(
    columns=(
        Column("customer_sk", "int", 8), Column("birth_year", "int", 8),
        Column("state", "int", 8), Column("payload", "str", 200),
    ),
    key="customer_sk",
)
ITEM = Schema(
    columns=(
        Column("item_sk", "int", 8), Column("category", "int", 8),
        Column("brand", "int", 8), Column("price", "float", 8),
        Column("payload", "str", 180),
    ),
    key="item_sk",
)
DATE_DIM = Schema(
    columns=(
        Column("date_sk", "int", 8), Column("year", "int", 8),
        Column("moy", "int", 8), Column("payload", "str", 60),
    ),
    key="date_sk",
)

DATE_SPAN = 2557


@dataclass(frozen=True)
class TpcdsScale:
    sales: int = 40_000
    customers: int = 5_000
    items: int = 2_000

    @property
    def dates(self) -> int:
        return DATE_SPAN


def build_tpcds_database(db: Database, scale: TpcdsScale = TpcdsScale(), seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    # Fact rows arrive roughly in date order (as in a real warehouse):
    # sold_date correlates with the clustering key plus ingestion noise.
    # Date-window queries therefore touch near-contiguous fact pages
    # (cacheable, partly sequential), while per-customer and per-item
    # lookups remain scattered — that split is what spreads the paper's
    # improvement histogram (Figure 21) across 2x to >100x.
    jitter = rng.normal(0.0, 8.0, size=scale.sales)
    sales = [
        (
            key,
            int(rng.integers(0, scale.items)),
            int(rng.integers(0, scale.customers)),
            int(min(DATE_SPAN - 1, max(0, key * DATE_SPAN // scale.sales + jitter[key]))),
            int(rng.integers(0, 50)),
            int(rng.integers(1, 20)),
            float(rng.integers(100, 30_000)) / 100.0,
            float(rng.integers(-2000, 10_000)) / 100.0,
            "s",
        )
        for key in range(scale.sales)
    ]
    customers = [
        (key, 1920 + key % 80, key % 50, "c") for key in range(scale.customers)
    ]
    items = [
        (key, key % 20, key % 100, float(100 + key % 900), "i")
        for key in range(scale.items)
    ]
    dates = [(key, 1998 + key // 365, 1 + (key // 30) % 12, "d") for key in range(DATE_SPAN)]
    tables = {
        "store_sales": db.create_table("store_sales", STORE_SALES, sales),
        "customer": db.create_table("customer", CUSTOMER, customers),
        "item": db.create_table("item", ITEM, items),
        "date_dim": db.create_table("date_dim", DATE_DIM, dates),
    }
    tables["_indexes"] = {
        "ss.customer_sk": db.create_secondary_index(tables["store_sales"], "customer_sk"),
        "ss.item_sk": db.create_secondary_index(tables["store_sales"], "item_sk"),
        "ss.sold_date_sk": db.create_secondary_index(tables["store_sales"], "sold_date_sk"),
    }
    tables["_scale"] = scale
    return tables


_MB = 1024 * 1024


def _reporting_scan(db, tables, rng, fraction: float):
    """Reporting rollup: scan + expression-dense aggregate (<2x)."""
    sales = tables["store_sales"]
    cutoff = int(DATE_SPAN * fraction)
    plan = HashAggregate(
        TableScan(
            sales,
            predicate=lambda row: row[3] < cutoff,
            extra_cpu_per_row_us=1.6,
        ),
        group_key=lambda row: row[4],
        init=lambda: 0.0,
        update=lambda acc, row: acc + row[6] * row[5],
    )
    return plan, 1 * _MB, 1


def _date_window_join(db, tables, rng, days: int):
    """Date-window fact slice + dimension hash join (2-10x).

    The fact table is roughly date-ordered, so the window's lookups are
    clustered; a scan leg (correlated subquery) adds CPU on both sides,
    keeping these in the paper's 2-10x band."""
    sales = tables["store_sales"]
    item = tables["item"]
    date_index = tables["_indexes"]["ss.sold_date_sk"]
    start = int(rng.integers(0, max(1, DATE_SPAN - days)))
    entries = IndexRangeScan(date_index, start, start + days, row_bytes=24)
    entries = WithScanLeg(
        entries,
        TableScan(sales, predicate=lambda row: False, extra_cpu_per_row_us=0.5),
    )
    fact_rows = IndexNestedLoopJoin(
        outer=entries,
        inner_tree=sales.clustered,
        outer_key=lambda entry: entry[1],
        combine=lambda entry, sale: sale,
        lookup_cpu_us=25.0,
    )
    joined = HashJoin(
        build=TableScan(item),
        probe=fact_rows,
        build_key=lambda it: it[0],
        probe_key=lambda sale: sale[1],
        combine=lambda it, sale: sale + (it[1],),
    )
    plan = HashAggregate(
        joined,
        group_key=lambda row: row[-1],
        init=lambda: 0.0,
        update=lambda acc, row: acc + row[6],
    )
    return plan, 2 * _MB, 1


def _sparse_customer_lookup(db, tables, rng, customers: int, lookup_cpu: float = 30.0):
    """Cross-channel per-customer analysis: sparse fact lookups.

    Each sampled customer contributes ~a dozen scattered fact rows; on
    the HDD baseline almost every one is a full seek (the 10-100x and
    >100x buckets of Figure 21)."""
    sales = tables["store_sales"]
    cust_index = tables["_indexes"]["ss.customer_sk"]
    scale: TpcdsScale = tables["_scale"]
    start = int(rng.integers(0, max(1, scale.customers - customers)))
    entries = IndexRangeScan(cust_index, start, start + customers, row_bytes=24)
    rows = IndexNestedLoopJoin(
        outer=entries,
        inner_tree=sales.clustered,
        outer_key=lambda entry: entry[1],
        combine=lambda entry, sale: sale,
        lookup_cpu_us=lookup_cpu,
    )
    plan = HashAggregate(
        rows,
        group_key=lambda sale: sale[2] % 10,
        init=lambda: 0.0,
        update=lambda acc, sale: acc + sale[7],
    )
    return plan, 1 * _MB, 1


def _item_affinity(db, tables, rng, items: int):
    """Item-affinity analysis: sparse item_sk lookups (10-50x)."""
    sales = tables["store_sales"]
    item_index = tables["_indexes"]["ss.item_sk"]
    scale: TpcdsScale = tables["_scale"]
    start = int(rng.integers(0, max(1, scale.items - items)))
    entries = IndexRangeScan(item_index, start, start + items, row_bytes=24)
    rows = IndexNestedLoopJoin(
        outer=entries,
        inner_tree=sales.clustered,
        outer_key=lambda entry: entry[1],
        combine=lambda entry, sale: sale,
        lookup_cpu_us=70.0,
    )
    plan = HashAggregate(
        rows,
        group_key=lambda sale: sale[1] % 8,
        init=lambda: (0, 0.0),
        update=lambda acc, sale: (acc[0] + 1, acc[1] + sale[6]),
    )
    return plan, 1 * _MB, 1


def _spill_rollup(db, tables, rng, fraction: float, top_n: int):
    """Wide join + ranked rollup: spills under a capped grant."""
    sales = tables["store_sales"]
    customer = tables["customer"]
    cutoff = int(DATE_SPAN * fraction)
    join = HashJoin(
        build=TableScan(customer),
        probe=TableScan(sales, predicate=lambda row: row[3] < cutoff),
        build_key=lambda cust: cust[0],
        probe_key=lambda sale: sale[2],
        combine=lambda cust, sale: sale + cust[1:3],
    )
    plan = ExternalSort(join, key=lambda row: row[7], reverse=True, top_n=top_n)
    return plan, 32 * _MB, 2


def tpcds_query_specs() -> list[QuerySpec]:
    """60 templates spanning the Figure 21 improvement spectrum."""

    def spec(name, builder, **kwargs):
        return QuerySpec(
            name=name,
            factory=lambda db, tables, rng: builder(db, tables, rng, **kwargs),
        )

    specs: list[QuerySpec] = []
    # 8 reporting scans: CPU-bound, <2x.
    for index, fraction in enumerate([0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.95]):
        specs.append(spec(f"R{index + 1}", _reporting_scan, fraction=fraction))
    # 18 date-window joins: 2-5x.
    for index in range(18):
        specs.append(spec(f"W{index + 1}", _date_window_join, days=15 + index * 6))
    # 16 item-affinity: 5-10x and low 10-50x.
    for index in range(16):
        specs.append(spec(f"I{index + 1}", _item_affinity, items=5 + index * 2))
    # 14 sparse customer lookups: 10-100x (sparser = bigger gain).
    for index in range(14):
        specs.append(
            spec(f"C{index + 1}", _sparse_customer_lookup, customers=4 + index * 3,
                 lookup_cpu=(12.0 if index >= 10 else 30.0))
        )
    # 4 spill rollups: the TempDB-bound class.
    specs.append(spec("S1", _spill_rollup, fraction=0.5, top_n=1000))
    specs.append(spec("S2", _spill_rollup, fraction=0.7, top_n=2000))
    specs.append(spec("S3", _spill_rollup, fraction=0.9, top_n=500))
    specs.append(spec("S4", _spill_rollup, fraction=0.3, top_n=1500))
    return specs


TPCDS_QUERIES = tpcds_query_specs()
