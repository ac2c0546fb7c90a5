"""The RangeScan micro-benchmark (Section 5.2.1, Figures 7-12, 16, 24).

Short queries over a synthetic Customer table (TPC-H Customer schema,
~245-byte rows, clustered index on ``custkey``):

    SELECT sum(acctbal) FROM customer
    WHERE custkey >= @start AND custkey < @start + @range

A read-only variant aggregates; an update variant bumps the balances in
the range.  ``@start`` comes from a uniform distribution (BPExt churn)
or a hotspot distribution (priming experiments: 99 % of queries hit
20 % of the keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..engine import Column, Database, Schema, Table
from ..engine.costs import PER_ROW_AGG_CPU_US
from ..sim.kernel import ProcessGenerator
from .clients import ClientRun, run_clients

__all__ = [
    "CUSTOMER_SCHEMA",
    "RangeScanConfig",
    "build_customer_table",
    "rangescan_clients",
    "rangescan_op",
    "read_query",
    "run_rangescan",
    "update_query",
]

#: TPC-H Customer schema; widths sum to ~245 bytes (paper Section 5.2.1).
CUSTOMER_SCHEMA = Schema(
    columns=(
        Column("custkey", "int", 8),
        Column("name", "str", 25),
        Column("address", "str", 40),
        Column("nationkey", "int", 8),
        Column("phone", "str", 15),
        Column("acctbal", "float", 8),
        Column("mktsegment", "str", 10),
        Column("comment", "str", 123),
    ),
    key="custkey",
)


def build_customer_table(db: Database, n_rows: int) -> Table:
    """Create and load the synthetic Customer table."""
    rows = [
        (key, f"Customer#{key:09d}", f"Addr{key}", key % 25, f"{key % 100:02d}-555",
         float(1000 + key % 9000), "BUILDING", "c" * 8)
        for key in range(n_rows)
    ]
    return db.create_table("customer", CUSTOMER_SCHEMA, rows)


@dataclass
class RangeScanConfig:
    n_rows: int = 50_000
    workers: int = 80
    queries_per_worker: int = 50
    range_size: int = 100
    update_fraction: float = 0.0
    distribution: str = "uniform"  # "uniform" | "hotspot"
    hotspot_fraction: float = 0.2  # of the key space ...
    hotspot_probability: float = 0.99  # ... absorbs this share of queries
    seed: int = 0


def _start_keys(config: RangeScanConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` range start keys."""
    top = max(1, config.n_rows - config.range_size)
    if config.distribution == "uniform":
        return rng.integers(0, top, size=count)
    hot_top = max(1, int(top * config.hotspot_fraction))
    hot = rng.random(count) < config.hotspot_probability
    keys = rng.integers(0, top, size=count)
    keys[hot] = rng.integers(0, hot_top, size=int(hot.sum()))
    return keys


def read_query(db: Database, table: Table, start_key: int, range_size: int) -> ProcessGenerator:
    """Seek + scan + SUM(acctbal)."""
    rows = yield from table.clustered.range_scan(start_key, start_key + range_size)
    yield from db.server.cpu.compute(len(rows) * PER_ROW_AGG_CPU_US)
    return sum(map(itemgetter(table.schema.index_of("acctbal")), rows))


def _bump_balance(balance_index: int):
    def bump(row: tuple) -> tuple:
        new_row = list(row)
        new_row[balance_index] = row[balance_index] + 1.0
        return tuple(new_row)

    return bump


def update_query(db: Database, table: Table, start_key: int, range_size: int) -> ProcessGenerator:
    """UPDATE acctbal over the range, as one autocommit statement."""
    bump = _bump_balance(table.schema.index_of("acctbal"))
    return db.update_range(table, start_key, start_key + range_size, bump)


def txn_update_query(txn, table: Table, start_key: int, range_size: int) -> ProcessGenerator:
    """Transactional UPDATE over the range: per-row X locks + undo.

    The 2PL counterpart of :func:`update_query` for ``transactional``
    fleet tenants.  Keys are locked in ascending order, so concurrent
    update transactions never deadlock with each other; the price is
    one lock + log record per row instead of one per query.  The
    Customer table's keys are dense in ``[0, n_rows)``, so every key in
    the window exists.
    """
    bump = _bump_balance(table.schema.index_of("acctbal"))
    for key in range(start_key, start_key + range_size):
        yield from txn.update(table, key, bump)
    return range_size


def rangescan_op(db: Database, table: Table, start_key: int, range_size: int, update: bool):
    """One query as a driver op: its result is ``(start_key, answer)``,
    the SUM for a read and the rows changed for an update."""
    query = update_query if update else read_query

    def run() -> ProcessGenerator:
        yield from db.server.cpu.compute(db.query_setup_cpu_us)
        answer = yield from query(db, table, start_key, range_size)
        return "update" if update else "read", (start_key, answer)

    return run


def rangescan_clients(db: Database, table: Table, config: RangeScanConfig,
                      rng: np.random.Generator | None = None) -> list:
    """One client per worker, each running its share of the queries;
    every start key and update flag is drawn here, before any runs."""
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    total = config.workers * config.queries_per_worker
    starts = _start_keys(config, rng, total)
    updates = rng.random(total) < config.update_fraction
    per = config.queries_per_worker
    return [
        [rangescan_op(db, table, int(starts[position]), config.range_size, bool(updates[position]))
         for position in range(worker * per, (worker + 1) * per)]
        for worker in range(config.workers)
    ]


def run_rangescan(db: Database, table: Table, config: RangeScanConfig,
                  rng: np.random.Generator | None = None) -> ClientRun:
    """Drive the workload to completion."""
    return run_clients(db.sim, rangescan_clients(db, table, config, rng=rng))
