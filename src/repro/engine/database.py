"""The database engine facade.

A :class:`Database` is one SMP RDBMS instance on one server: buffer pool
(+ optional extension), write-ahead log, TempDB, workspace-memory grant
manager, catalog, and the entry points sessions use to run queries and
DML.  The media behind BPExt/TempDB are injected, which is how the
harness realizes each Table-5 design alternative.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Optional

from ..cluster import Server
from ..sim.kernel import ProcessGenerator
from ..storage import BlockDevice
from .bufferpool import BufferPool, BufferPoolExtension
from .btree import BTree
from .catalog import Catalog, Schema, Table
from .costs import QUERY_SETUP_CPU_US
from .errors import EngineError
from .files import DevicePageFile, PageStore
from .grants import GrantManager
from .operators import ExecContext, ExecMetrics, Operator
from .page import PAGE_SIZE
from .tempdb import TempDb
from .wal import LogRecordKind, WriteAheadLog

__all__ = ["Database", "QueryResult"]

#: Secondary-index entry width: key + primary key + row header.
INDEX_ENTRY_BYTES = 24


class QueryResult:
    """Rows plus execution metadata for one query."""

    def __init__(self, rows: list, metrics: ExecMetrics, elapsed_us: float):
        self.rows = rows
        self.metrics = metrics
        self.elapsed_us = elapsed_us

    def __len__(self) -> int:
        return len(self.rows)


class Database:
    """One engine instance bound to one simulated server."""

    def __init__(
        self,
        server: Server,
        bp_pages: int,
        data_device: BlockDevice,
        log_device: Optional[BlockDevice] = None,
        tempdb_store: Optional[PageStore] = None,
        workspace_bytes: Optional[int] = None,
        query_setup_cpu_us: float = QUERY_SETUP_CPU_US,
        extension: Optional[BufferPoolExtension] = None,
    ):
        self.server = server
        self.sim = server.sim
        self.catalog = Catalog()
        self.data_device = data_device
        self.pool = BufferPool(server, capacity_pages=bp_pages, extension=extension)
        self.wal = WriteAheadLog(server, log_device if log_device is not None else data_device)
        self.tempdb = TempDb(tempdb_store) if tempdb_store is not None else None
        workspace = workspace_bytes if workspace_bytes is not None else bp_pages * PAGE_SIZE
        self.grants = GrantManager(server, workspace)
        self.query_setup_cpu_us = query_setup_cpu_us
        self.queries_executed = 0
        self._txn_manager = None

    def transactions(self, **kwargs):
        """This database's transaction manager (lazily created).

        Keyword arguments (``policy``, ``rng``, ``record_history``)
        configure the manager on first call; later calls return the
        existing instance so every session shares one lock table.
        """
        if self._txn_manager is None:
            from ..txn import TransactionManager

            self._txn_manager = TransactionManager(self, **kwargs)
        return self._txn_manager

    # -- DDL / loading -----------------------------------------------------

    def create_table(self, name: str, schema: Schema, rows: list[tuple]) -> Table:
        """Create a table with a clustered index over pre-sorted rows.

        Initial load is instantaneous (experiments measure steady state);
        the loader module models timed loading for Figure 27.
        """
        table = self.catalog.add_table(name, schema)
        store = DevicePageFile(table.file_id, self.server, self.data_device)
        self.pool.register_file(store)
        ordered = sorted(rows, key=schema.key_of)
        tree = BTree(
            name=f"{name}.clustered",
            pool=self.pool,
            store=store,
            key_fn=itemgetter(schema.key_index),  # C-level: bisect calls it per probe
            leaf_capacity=schema.rows_per_page,
        )
        tree.bulk_build(ordered)
        table.clustered = tree
        table.stats.row_count = len(ordered)
        table.stats.page_count = tree.leaf_count
        if ordered:
            table.stats.min_key = schema.key_of(ordered[0])
            table.stats.max_key = schema.key_of(ordered[-1])
        return table

    def create_secondary_index(
        self,
        table: Table,
        column: str,
        name: Optional[str] = None,
        store: Optional[PageStore] = None,
    ) -> BTree:
        """Non-clustered index of ``(key, primary_key)`` entries.

        ``store`` may live anywhere — including pinned remote memory,
        which is the semantic-cache scenario of Section 3.3.
        """
        index_name = name or f"{table.name}.{column}"
        if index_name in table.indexes:
            raise EngineError(f"index {index_name!r} already exists")
        if store is None:
            store = DevicePageFile(
                self.catalog.allocate_file_id(), self.server, self.data_device
            )
        if store.file_id not in self.pool.files:
            self.pool.register_file(store)
        extract = table.schema.extractor(column)
        key_index = table.schema.key_index
        # Build synchronously from the current clustered image (cheap:
        # index creation happens during setup, not measurement).
        leaf_rows = [
            row
            for page_rows in self._all_leaf_rows(table)
            for row in page_rows
        ]
        entries = sorted(((extract(row), row[key_index]) for row in leaf_rows))
        capacity = max(2, (PAGE_SIZE - 96) // INDEX_ENTRY_BYTES)
        tree = BTree(
            name=index_name,
            pool=self.pool,
            store=store,
            key_fn=lambda entry: entry[0],
            leaf_capacity=capacity,
        )
        tree.bulk_build(entries)
        table.indexes[index_name] = tree
        return tree

    def _all_leaf_rows(self, table: Table):
        """Direct (untimed) walk of the clustered leaves for DDL builds."""
        tree: BTree = table.clustered
        store = tree.store
        # Find leftmost leaf without simulation time.
        page = store.peek(tree.root_page_no)
        from .page import PageKind

        while page.kind is PageKind.BTREE_INTERNAL:
            page = store.peek(page.meta["children"][0])
        while page is not None:
            yield page.rows
            next_no = page.meta.get("next")
            if next_no is None:
                break
            page = store.peek(next_no)

    # -- query execution ------------------------------------------------------

    def execute(
        self,
        plan: Operator,
        requested_memory_bytes: int = 0,
        memory_consumers: int = 1,
        fragment_index: int = 0,
        fragments: int = 1,
    ) -> ProcessGenerator:
        """Run an operator tree; returns a :class:`QueryResult`.

        Distributed plans (repro.dist) run one fragment per DB server;
        ``fragment_index``/``fragments`` flow into the ExecContext so
        exchange operators know their position in the topology.
        """
        start = self.sim.now
        with self.sim.tracer.span(
            "query", cat="query", plan=type(plan).__name__,
            requested_memory=requested_memory_bytes,
        ):
            yield from self.server.cpu.compute(self.query_setup_cpu_us)
            grant = yield from self.grants.acquire(max(1, requested_memory_bytes))
            ctx = ExecContext(
                db=self, grant=grant, memory_consumers=memory_consumers,
                fragment_index=fragment_index, fragments=fragments,
            )
            try:
                rows = yield from plan.run(ctx)
            finally:
                grant.release()
        self.queries_executed += 1
        return QueryResult(rows, ctx.metrics, self.sim.now - start)

    # -- DML (the one autocommit statement) ------------------------------------

    def update_range(
        self, table: Table, low: Any, high: Any, mutate: Callable[[tuple], tuple]
    ) -> ProcessGenerator:
        """UPDATE ... WHERE low <= key < high: seek, log, apply, group-commit.

        Returns the number of rows changed.  Anything that needs
        isolation, undo, inserts or deletes goes through
        :meth:`transactions`.
        """
        tree = table.clustered
        position = yield from tree.seek(low)
        record = yield from self.wal.log_update(table.name, low, None, LogRecordKind.UPDATE)
        changed = yield from tree.update_range(low, high, mutate, record.lsn, start=position)
        yield from self.wal.log_update(table.name, low, None, LogRecordKind.COMMIT)
        return changed
