"""Workloads: SQLIO micro-bench, RangeScan, Hash+Sort, TPC-H/DS/C-like,
each an op builder over the one closed-loop client driver (``clients``)."""

from .analytics import QuerySpec, improvement_histogram, queries_per_hour, run_query_streams
from .clients import ClientRun, drive_clients, run_clients
from .hashsort import (
    HashSortConfig,
    build_hashsort_tables,
    hashsort_plan,
    run_hashsort,
)
from .rangescan import (
    CUSTOMER_SCHEMA,
    RangeScanConfig,
    build_customer_table,
    rangescan_clients,
    run_rangescan,
)
from .sqlio import RANDOM_8K, SEQUENTIAL_512K, SqlioPattern, gb_per_s, run_sqlio, sqlio_clients
from .tpcc import (
    DEFAULT_MIX,
    READ_MOSTLY_MIX,
    TpccConfig,
    TpccReport,
    TpccScale,
    build_tpcc_database,
    run_tpcc,
)
from .tpcds import TPCDS_QUERIES, TpcdsScale, build_tpcds_database, tpcds_query_specs
from .tpch import (
    TPCH_QUERIES,
    TPCH_SCHEMAS,
    TpchScale,
    build_tpch_database,
    generate_tpch_rows,
    install_tpch_tables,
    tpch_order_lines_plan,
    tpch_query_specs,
    tpch_returnflag_agg_plan,
    tpch_star_join_plan,
)

__all__ = [
    "CUSTOMER_SCHEMA", "ClientRun", "DEFAULT_MIX", "HashSortConfig",
    "QuerySpec", "RANDOM_8K", "READ_MOSTLY_MIX", "RangeScanConfig",
    "SEQUENTIAL_512K", "SqlioPattern", "TPCDS_QUERIES", "TPCH_QUERIES", "TPCH_SCHEMAS",
    "TpccConfig", "TpccReport", "TpccScale", "TpcdsScale", "TpchScale",
    "build_customer_table", "build_hashsort_tables", "build_tpcc_database",
    "build_tpcds_database", "build_tpch_database", "drive_clients", "gb_per_s",
    "generate_tpch_rows", "hashsort_plan", "improvement_histogram", "install_tpch_tables",
    "queries_per_hour", "rangescan_clients", "run_clients", "run_hashsort",
    "run_query_streams", "run_rangescan", "run_sqlio", "run_tpcc", "sqlio_clients",
    "tpcds_query_specs", "tpch_order_lines_plan", "tpch_query_specs",
    "tpch_returnflag_agg_plan", "tpch_star_join_plan",
]
