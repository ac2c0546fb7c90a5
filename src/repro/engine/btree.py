"""Page-based B-tree.

Every node is an 8K :class:`~repro.engine.page.Page` living in the
table's file, accessed through the buffer pool — so index traversals
exercise exactly the memory-hierarchy path the paper studies: hot upper
levels stay in the local pool, cold leaves fall to BPExt (remote memory
or SSD) or the data file on the HDD array.

Used both as a clustered index (leaf rows are full table rows) and as a
secondary index (leaf rows are ``(key, primary_key)`` pairs).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterable, Optional

from ..sim.kernel import ProcessGenerator
from .bufferpool import BufferPool
from .errors import EngineError
from .files import PageStore
from .page import Page, PageKind

__all__ = ["BTree"]

#: Fanout of internal nodes (separator key + child pointer = 16 bytes,
#: 8 KB page => ~500; kept lower to model header/slot overheads).
INTERNAL_FANOUT = 256
#: CPU cost of a binary search / leaf scan step.
NODE_SEARCH_CPU_US = 0.6


class BTree:
    """B-tree over (key-sorted) rows with page-granular storage."""

    def __init__(
        self,
        name: str,
        pool: BufferPool,
        store: PageStore,
        key_fn: Callable[[tuple], Any],
        leaf_capacity: int,
    ):
        if leaf_capacity < 2:
            raise EngineError("leaf capacity must be at least 2")
        self.name = name
        self.pool = pool
        self.store = store
        self.key_fn = key_fn
        self.leaf_capacity = leaf_capacity
        self.root_page_no: Optional[int] = None
        self.height = 0
        self.leaf_count = 0
        self._next_page_no = 0
        # Writer latch: concurrent structural changes (splits) interleave
        # across simulation yields and would corrupt the tree; readers
        # proceed latch-free as in real engines' optimistic descent.
        self._write_latch = self.pool.server.sim.resource(1, name=f"{name}.wlatch")

    # -- construction ------------------------------------------------------

    def _new_page_no(self) -> int:
        page_no = self._next_page_no
        self._next_page_no += 1
        return page_no

    @property
    def page_count(self) -> int:
        """Pages ever allocated; the tree owns its file, so no slot at or
        past this number exists (where scans stop reading ahead)."""
        return self._next_page_no

    def bulk_build(self, rows: Iterable[tuple]) -> None:
        """Build bottom-up from rows already sorted by key.

        Pages are written straight into the store (initial load happens
        before measurement windows, so no simulated I/O is charged —
        experiments that care about load cost use the loader module).
        """
        ordered = list(rows)
        for earlier, later in zip(ordered, ordered[1:]):
            if self.key_fn(earlier) > self.key_fn(later):
                raise EngineError("bulk_build requires key-sorted rows")
        file_id = self.store.file_id
        leaves: list[Page] = []
        for start in range(0, len(ordered), self.leaf_capacity):
            chunk = ordered[start : start + self.leaf_capacity]
            page = Page(
                page_id=(file_id, self._new_page_no()),
                kind=PageKind.BTREE_LEAF,
                rows=list(chunk),
                meta={"next": None},
            )
            leaves.append(page)
        if not leaves:
            root = Page(
                page_id=(file_id, self._new_page_no()),
                kind=PageKind.BTREE_LEAF,
                rows=[],
                meta={"next": None},
            )
            leaves.append(root)
        for left, right in zip(leaves, leaves[1:]):
            left.meta["next"] = right.page_no
        self.leaf_count = len(leaves)
        # Build internal levels bottom-up; track the low key of every
        # node so parents get correct separator keys.
        def low_key(page: Page) -> Any:
            if page.kind is PageKind.BTREE_LEAF:
                return self.key_fn(page.rows[0]) if page.rows else None
            return page.meta["low_key"]

        internals: list[Page] = []
        level = leaves
        self.height = 1
        while len(level) > 1:
            parents: list[Page] = []
            for start in range(0, len(level), INTERNAL_FANOUT):
                children = level[start : start + INTERNAL_FANOUT]
                parent = Page(
                    page_id=(file_id, self._new_page_no()),
                    kind=PageKind.BTREE_INTERNAL,
                    rows=[],
                    meta={
                        "keys": [low_key(child) for child in children[1:]],
                        "children": [child.page_no for child in children],
                        "low_key": low_key(children[0]),
                    },
                )
                parents.append(parent)
            internals.extend(parents)
            level = parents
            self.height += 1
        self.root_page_no = level[0].page_no
        self.store.preload(leaves + internals)

    # -- traversal -------------------------------------------------------------

    def seek(self, key: Any) -> ProcessGenerator:
        """Walk root -> leftmost leaf that can contain ``key``.

        Uses ``bisect_left`` so duplicate keys spanning several leaves
        are all reachable by following ``next`` pointers from here.
        """
        if self.root_page_no is None:
            raise EngineError(f"index {self.name} is empty/unbuilt")
        page = yield from self.pool.get_page(self.store.file_id, self.root_page_no)
        while page.kind is PageKind.BTREE_INTERNAL:
            yield from self.pool.server.cpu.compute(NODE_SEARCH_CPU_US)
            keys = page.meta["keys"]
            child_index = bisect.bisect_left(keys, key)
            child_no = page.meta["children"][child_index]
            page = yield from self.pool.get_page(self.store.file_id, child_no)
        yield from self.pool.server.cpu.compute(NODE_SEARCH_CPU_US)
        return page

    def search(self, key: Any) -> ProcessGenerator:
        """Point lookup: all rows with exactly ``key`` (across leaves)."""
        leaf = yield from self.seek(key)
        result: list[tuple] = []
        key_fn = self.key_fn
        while leaf is not None:
            # Leaf rows are kept in key order, so bisect to the first
            # candidate instead of scanning the leaf from the left.
            rows = leaf.rows
            exhausted = False
            for row in rows[bisect.bisect_left(rows, key, key=key_fn):]:
                if key_fn(row) == key:
                    result.append(row)
                else:
                    exhausted = True
                    break
            if exhausted:
                break
            next_no = leaf.meta.get("next")
            if next_no is None:
                break
            leaf = yield from self.pool.get_page(self.store.file_id, next_no)
        return result

    def range_scan(self, low: Any, high: Any, limit: Optional[int] = None) -> ProcessGenerator:
        """All rows with ``low <= key < high`` (optionally first ``limit``)."""
        leaf = yield from self.seek(low)
        result: list[tuple] = []
        key_fn = self.key_fn
        while leaf is not None:
            rows = leaf.rows
            first = bisect.bisect_left(rows, low, key=key_fn)
            last = bisect.bisect_left(rows, high, first, key=key_fn)
            result += rows[first:last]
            if limit is not None and len(result) >= limit:
                del result[limit:]
                return result
            if last < len(rows):
                return result
            next_no = leaf.meta.get("next")
            if next_no is None:
                break
            leaf = yield from self.pool.get_page(self.store.file_id, next_no)
        return result

    # -- mutation ----------------------------------------------------------------

    def _rewrite(
        self, leaf: Optional[Page], low: Any, high: Any, upper: Callable,
        rewrite: Optional[Callable[[tuple], tuple]], lsn: int,
    ) -> ProcessGenerator:
        """The one leaf rewriter: replace every row from ``low`` up to
        ``high`` by ``rewrite(row)`` (``None`` deletes); returns the count.

        ``upper`` is ``bisect_right`` to include ``high``, ``bisect_left``
        to stop short of it.  ``leaf`` is where an earlier :meth:`seek` of
        ``low`` ended, if the caller made one; it is only a hint, because
        every leaf is changed through ``pool.modify``.
        """
        key_fn = self.key_fn
        changed = 0
        exhausted = False

        def visit(page: Page):
            nonlocal changed, exhausted
            rows = page.rows
            first = bisect.bisect_left(rows, low, key=key_fn)
            last = upper(rows, high, first, key=key_fn)
            exhausted = last < len(rows)
            if first == last:
                return False
            rows[first:last] = [rewrite(row) for row in rows[first:last]] if rewrite else ()
            changed += last - first

        if leaf is None:
            leaf = yield from self.seek(low)
        while True:
            leaf = yield from self.pool.modify(leaf, visit, lsn)
            next_no = leaf.meta.get("next")
            if exhausted or next_no is None:
                return changed
            leaf = yield from self.pool.get_page(self.store.file_id, next_no)

    def update_where(
        self, key: Any, mutate: Callable[[tuple], tuple], lsn: int = 0
    ) -> ProcessGenerator:
        """Replace every row with ``key`` by ``mutate(row)``; returns count."""
        return self._rewrite(None, key, key, bisect.bisect_right, mutate, lsn)

    def update_range(
        self, low: Any, high: Any, mutate: Callable[[tuple], tuple], lsn: int = 0,
        start: Optional[Page] = None,
    ) -> ProcessGenerator:
        """Replace every row with ``low <= key < high`` by ``mutate(row)``,
        starting from the leaf a :meth:`seek` of ``low`` returned (if one
        was made, say before a log wait); returns count."""
        return self._rewrite(start, low, high, bisect.bisect_left, mutate, lsn)

    def insert(self, row: tuple, lsn: int = 0) -> ProcessGenerator:
        """Insert one row, splitting leaves (and parents) as needed."""
        key = self.key_fn(row)
        yield self._write_latch.request()
        try:
            path = yield from self._descend_with_path(key)

            def place(leaf: Page) -> None:
                leaf.rows.insert(bisect.bisect_right(leaf.rows, key, key=self.key_fn), row)

            path[-1] = yield from self.pool.modify(path[-1], place, lsn)
            if len(path[-1].rows) > self.leaf_capacity:
                yield from self._split(path, lsn)
        finally:
            self._write_latch.release()

    def delete(self, key: Any, lsn: int = 0) -> ProcessGenerator:
        """Delete all rows with ``key`` (no rebalancing, like many engines)."""
        yield self._write_latch.request()
        try:
            removed = yield from self._rewrite(None, key, key, bisect.bisect_right, None, lsn)
        finally:
            self._write_latch.release()
        return removed

    def _descend_with_path(self, key: Any) -> ProcessGenerator:
        if self.root_page_no is None:
            raise EngineError(f"index {self.name} is empty/unbuilt")
        path = []
        page = yield from self.pool.get_page(self.store.file_id, self.root_page_no)
        path.append(page)
        while page.kind is PageKind.BTREE_INTERNAL:
            yield from self.pool.server.cpu.compute(NODE_SEARCH_CPU_US)
            child_index = bisect.bisect_right(page.meta["keys"], key)
            child_no = page.meta["children"][child_index]
            page = yield from self.pool.get_page(self.store.file_id, child_no)
            path.append(page)
        return path

    def _split(self, path: list[Page], lsn: int) -> ProcessGenerator:
        """Split the overflowing tail node of ``path`` upward."""
        node, parents = path[-1], path[:-1]
        file_id = self.store.file_id
        right = separator = None

        def halve(page: Page) -> None:
            nonlocal right, separator
            meta = page.meta
            if page.kind is PageKind.BTREE_LEAF:
                mid = len(page.rows) // 2
                right = Page(
                    page_id=(file_id, self._new_page_no()),
                    kind=PageKind.BTREE_LEAF,
                    rows=page.rows[mid:],
                    meta={"next": meta.get("next")},
                )
                separator = self.key_fn(right.rows[0])
                page.rows[:] = page.rows[:mid]
                meta["next"] = right.page_no
                self.leaf_count += 1
            else:
                mid = len(meta["children"]) // 2
                separator = meta["keys"][mid - 1]
                right = Page(
                    page_id=(file_id, self._new_page_no()),
                    kind=PageKind.BTREE_INTERNAL,
                    rows=[],
                    meta={"keys": meta["keys"][mid:], "children": meta["children"][mid:]},
                )
                meta["keys"] = meta["keys"][: mid - 1]
                meta["children"] = meta["children"][:mid]

        def link(parent: Page) -> None:
            child_index = parent.meta["children"].index(node.page_no)
            parent.meta["keys"].insert(child_index, separator)
            parent.meta["children"].insert(child_index + 1, right.page_no)

        while True:
            node = yield from self.pool.modify(node, halve, lsn)
            yield from self.pool.put_page(right, dirty=True)
            if not parents:
                break
            node = yield from self.pool.modify(parents.pop(), link, lsn)
            if len(node.meta["children"]) <= INTERNAL_FANOUT:
                return
        new_root = Page(
            page_id=(file_id, self._new_page_no()),
            kind=PageKind.BTREE_INTERNAL,
            rows=[],
            meta={"keys": [separator], "children": [node.page_no, right.page_no]},
        )
        yield from self.pool.put_page(new_root, dirty=True)
        self.root_page_no = new_root.page_no
        self.height += 1
