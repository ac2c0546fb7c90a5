"""The SMP RDBMS engine: pages, buffer pool, indexes, operators, WAL."""

from .bufferpool import BufferPool, BufferPoolExtension
from .btree import BTree
from .catalog import Catalog, Column, Schema, Table, TableStats
from .database import Database, QueryResult
from .errors import EngineError, GrantTimeout, PageNotFound, PlanError
from .files import DevicePageFile, PageStore, RemotePageFile
from .grants import Grant, GrantManager
from .operators import (
    ExecContext,
    ExecMetrics,
    ExternalSort,
    FilterRows,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexRangeScan,
    Operator,
    ProjectRows,
    TableScan,
)
from .loader import LoadReport, LoadSplit, load_splits, parallel_load
from .optimizer import (
    CostModel,
    JoinChoice,
    Medium,
    choose_join,
    crossover_selectivity,
)
from .page import PAGE_SIZE, Page, PageId, PageKind, rows_per_page
from .priming import (
    PrimingResult,
    ReactivePrimer,
    prime_pool_from_file,
    prime_push,
    serialize_pool_to_file,
)
from .semcache import MaintenancePolicy, MaterializedView, SemanticCache
from .tempdb import EXTENT_PAGES, SpillRun, TempDb
from .wal import LogRecord, LogRecordKind, WriteAheadLog, redo_replay

__all__ = [
    "BTree",
    "BufferPool",
    "BufferPoolExtension",
    "Catalog",
    "Column",
    "Database",
    "DevicePageFile",
    "EngineError",
    "EXTENT_PAGES",
    "ExecContext",
    "ExecMetrics",
    "ExternalSort",
    "FilterRows",
    "Grant",
    "GrantManager",
    "GrantTimeout",
    "HashAggregate",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexRangeScan",
    "LogRecord",
    "LogRecordKind",
    "Operator",
    "PAGE_SIZE",
    "Page",
    "PageId",
    "PageKind",
    "PageNotFound",
    "PageStore",
    "PlanError",
    "ProjectRows",
    "QueryResult",
    "RemotePageFile",
    "Schema",
    "SpillRun",
    "Table",
    "TableScan",
    "TableStats",
    "TempDb",
    "WriteAheadLog",
    "CostModel",
    "JoinChoice",
    "LoadReport",
    "LoadSplit",
    "MaintenancePolicy",
    "MaterializedView",
    "Medium",
    "PrimingResult",
    "ReactivePrimer",
    "SemanticCache",
    "choose_join",
    "crossover_selectivity",
    "load_splits",
    "parallel_load",
    "prime_pool_from_file",
    "prime_push",
    "redo_replay",
    "rows_per_page",
    "serialize_pool_to_file",
]
