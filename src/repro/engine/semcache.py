"""In-RDBMS semantic cache pinned in remote memory (Section 3.3).

The cache holds redundant, opportunistically-built structures —
materialized views and non-clustered indexes — in memory leased from
remote servers, separate from the buffer pool.  Queries that match a
cached view answer from it directly; everything else runs the base
plan.  Because the structures are redundant, losing the remote memory
never affects correctness: the cache invalidates, and can be rebuilt
from the base tables or recovered from the transaction log by REDO
(Appendix B.4, Figure 26).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from ..reliability import DeadlineExceeded
from ..sim.kernel import ProcessGenerator
from .costs import PER_PAGE_CPU_US, PER_ROW_SCAN_CPU_US
from .errors import EngineError, PageNotFound
from .files import PageStore, RemoteMemoryUnavailable
from .page import Page, PageKind
from .tempdb import EXTENT_PAGES
from .wal import LogRecordKind, redo_replay

__all__ = ["MaintenancePolicy", "MaterializedView", "SemanticCache"]


class MaintenancePolicy(enum.Enum):
    """How a cached structure reacts to base-table updates."""

    SYNC = "sync"  # updated inside the transaction
    ASYNC = "async"  # updated by a background task
    SNAPSHOT = "snapshot"  # left as-of build time
    INVALIDATE = "invalidate"  # dropped on any update


@dataclass
class MaterializedView:
    """Precomputed result rows of a query template, stored page-wise."""

    name: str
    template_id: str
    store: PageStore
    rows_per_page: int
    row_count: int = 0
    page_count: int = 0
    valid: bool = False
    policy: MaintenancePolicy = MaintenancePolicy.SYNC
    #: LSN of the last checkpoint of this view (REDO starts here).
    checkpoint_lsn: int = 0


class SemanticCache:
    """Broker for views/indexes pinned outside the buffer pool."""

    def __init__(self, db):
        self.db = db
        self.views: dict[str, MaterializedView] = {}
        self.hits = 0
        self.misses = 0
        #: Views dropped: by an INVALIDATE update, by remote memory lost
        #: under a scan, or by a SYNC maintenance write that failed.
        self.invalidations = 0

    # -- build / match -------------------------------------------------------

    def create_view(
        self,
        name: str,
        template_id: str,
        rows: list[tuple],
        row_bytes: int,
        store: PageStore,
        policy: MaintenancePolicy = MaintenancePolicy.SYNC,
        timed: bool = False,
    ) -> ProcessGenerator:
        """Materialize ``rows`` into ``store`` and register the view.

        ``timed=False`` skips simulated I/O (builds happen during setup);
        the recovery experiment uses the timed path.
        """
        if template_id in self.views:
            raise EngineError(f"view for template {template_id!r} already cached")
        rows_per_page = max(1, 8100 // max(1, row_bytes))
        view = MaterializedView(
            name=name, template_id=template_id, store=store,
            rows_per_page=rows_per_page, policy=policy,
        )
        yield from self._write_rows(view, rows, timed=timed)
        view.valid = True
        self.views[template_id] = view
        return view

    def _write_rows(self, view: MaterializedView, rows: list[tuple], timed: bool) -> ProcessGenerator:
        pages = []
        for page_no, start in enumerate(range(0, len(rows), view.rows_per_page)):
            pages.append(
                Page(
                    page_id=(view.store.file_id, page_no),
                    kind=PageKind.HEAP,
                    rows=list(rows[start : start + view.rows_per_page]),
                )
            )
        if not pages:
            pages = [Page(page_id=(view.store.file_id, 0), kind=PageKind.HEAP, rows=[])]
        if timed:
            for start in range(0, len(pages), EXTENT_PAGES):
                extent = pages[start : start + EXTENT_PAGES]
                yield from view.store.write_batch(extent[0].page_no, extent)
        else:
            view.store.preload(pages)
        view.row_count = len(rows)
        view.page_count = len(pages)

    def match(self, template_id: str) -> Optional[MaterializedView]:
        """View matching: return a valid cached view for the template."""
        view = self.views.get(template_id)
        if view is not None and view.valid:
            self.hits += 1
            return view
        self.misses += 1
        return None

    # -- serving ----------------------------------------------------------------

    def scan_view(self, view: MaterializedView) -> ProcessGenerator:
        """Answer a query from the cache: sequential scan of the view.

        Reads bypass the buffer pool (the cache is its own memory
        broker); on remote-memory loss the view invalidates and the
        caller falls back to the base plan.
        """
        rows: list[tuple] = []
        cpu = self.db.server.cpu
        try:
            slot = 0
            while slot < view.page_count:
                count = min(EXTENT_PAGES, view.page_count - slot)
                pages = yield from view.store.read_batch(slot, count)
                for page in pages:
                    rows.extend(page.rows)
                yield from cpu.compute(
                    count * PER_PAGE_CPU_US
                    + sum(len(p.rows) for p in pages) * PER_ROW_SCAN_CPU_US
                )
                slot += count
        except RemoteMemoryUnavailable:
            self._invalidate(view)
            raise
        return rows

    def _invalidate(self, view: MaterializedView) -> None:
        view.valid = False
        self.invalidations += 1

    # -- maintenance ----------------------------------------------------------------

    def on_base_update(self, template_id: str, record_row: Any) -> ProcessGenerator:
        """Propagate one base-table change per the view's policy."""
        view = self.views.get(template_id)
        if view is None or not view.valid:
            return
        if view.policy is MaintenancePolicy.INVALIDATE:
            self._invalidate(view)
        elif view.policy is MaintenancePolicy.SYNC:
            # Touch the affected page (read-modify-write of one page).
            slot = 0 if view.page_count == 0 else hash(record_row) % view.page_count
            try:
                page = yield from view.store.read_page(slot)
                yield from view.store.write_page(page, slot=slot)
            except (RemoteMemoryUnavailable, PageNotFound, DeadlineExceeded):
                # The store lost the lease or the page, or could not reach
                # it in time: the view cannot be kept current and is
                # redundant, so it goes.  Anything else is a bug.
                self._invalidate(view)
        # ASYNC/SNAPSHOT: nothing synchronous.

    # -- recovery (Appendix B.4) --------------------------------------------------

    def recover_view(
        self,
        template_id: str,
        new_store: PageStore,
        base_rows: list[tuple],
    ) -> ProcessGenerator:
        """Rebuild a lost view on ``new_store`` by REDO from the log.

        ``base_rows`` is the checkpointed image (what survived on stable
        storage); records after ``checkpoint_lsn`` are replayed from the
        transaction log, then the recovered pages are written to the new
        remote store.  Returns the number of replayed records.
        """
        view = self.views.get(template_id)
        if view is None:
            raise EngineError(f"no view for template {template_id!r}")
        recovered = dict((i, row) for i, row in enumerate(base_rows))

        def apply(record):
            if record.kind in (LogRecordKind.UPDATE, LogRecordKind.INSERT):
                recovered[record.key] = record.row
            elif record.kind is LogRecordKind.DELETE:
                recovered.pop(record.key, None)
            return None

        applied = yield from redo_replay(
            self.db.server, self.db.wal, apply, from_lsn=view.checkpoint_lsn
        )
        view.store = new_store
        yield from self._write_rows(
            view, [recovered[k] for k in sorted(recovered)], timed=True
        )
        view.valid = True
        return applied
