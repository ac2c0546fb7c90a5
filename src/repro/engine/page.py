"""Database pages.

An 8K page holds a bounded number of fixed-width rows (the width comes
from the table schema, e.g. ~245 bytes for the paper's Customer table,
giving ~33 rows per page).  Pages carry an LSN so recovery can decide
whether a logged change is already reflected.

``PageId`` is ``(file_id, page_no)`` — globally unique across all files
of a database, which is what the buffer pool keys frames by.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["PAGE_SIZE", "PAGE_HEADER_BYTES", "PageId", "PageKind", "Page", "rows_per_page"]

PAGE_SIZE = 8192
PAGE_HEADER_BYTES = 96

PageId = tuple[int, int]


class PageKind(enum.Enum):
    HEAP = "heap"
    BTREE_LEAF = "btree_leaf"
    BTREE_INTERNAL = "btree_internal"
    TEMP = "temp"
    LOG = "log"


def rows_per_page(row_bytes: int) -> int:
    """How many rows of the given width fit in one page."""
    if row_bytes <= 0:
        raise ValueError("row width must be positive")
    return max(1, (PAGE_SIZE - PAGE_HEADER_BYTES) // row_bytes)


@dataclass
class Page:
    """One 8K page: header fields plus a row payload."""

    page_id: PageId
    kind: PageKind = PageKind.HEAP
    rows: list[Any] = field(default_factory=list)
    lsn: int = 0
    #: Extra structured payload for index pages (keys/children) etc.
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def file_id(self) -> int:
        return self.page_id[0]

    @property
    def page_no(self) -> int:
        return self.page_id[1]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def copy(self) -> "Page":
        """Shallow snapshot: new row list / meta dict, shared row tuples.

        Rows are immutable tuples, so sharing them is safe; copying the
        containers isolates the disk image from buffer-pool mutation.
        """
        return Page(
            page_id=self.page_id,
            kind=self.kind,
            rows=list(self.rows),
            lsn=self.lsn,
            meta={k: (list(v) if isinstance(v, list) else v) for k, v in self.meta.items()},
        )

    @classmethod
    def build(
        cls, file_id: int, page_no: int, rows: Iterable[Any], kind: PageKind = PageKind.HEAP
    ) -> "Page":
        return cls(page_id=(file_id, page_no), kind=kind, rows=list(rows))
