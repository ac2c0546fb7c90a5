"""Buffer-pool priming for planned primary-secondary swaps (Section 3.4).

With physical replication the databases are page-identical, so when a
secondary S2 is promoted, the old primary S1 can push its warm buffer
pool over RDMA instead of letting the workload warm S2 up from disk:

1. *serialize*: S1 scans its buffer pool and serializes the resident
   pages into an in-memory file (the same serialization SQL Server uses
   for BPExt),
2. *transfer*: S2 pulls the pages from the in-memory file at wire speed
   and installs them into its pool.

Figure 16 shows priming is ~two orders of magnitude faster than
workload-driven warm-up and cuts p95 latency 4-10x after the swap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..remotefile import RemoteFile
from ..sim.kernel import ProcessGenerator
from ..storage import MB
from .database import Database
from .page import PAGE_SIZE

__all__ = [
    "PrimingResult",
    "ReactivePrimer",
    "prime_pool_from_file",
    "prime_push",
    "serialize_pool_to_file",
]

#: Pages serialized per in-memory-file extent (1 MB batches).
_BATCH_PAGES = 128
#: CPU to serialize/deserialize one page (memcpy-class).
_SERIALIZE_CPU_US = 2.0


@dataclass
class PrimingResult:
    pages: int
    serialize_us: float = 0.0
    transfer_us: float = 0.0


def _serialize(db: Database, pages: list, file: RemoteFile) -> ProcessGenerator:
    """Write ``pages`` into ``file`` as one extent per batch, in order."""
    offset = 0
    for begin in range(0, len(pages), _BATCH_PAGES):
        batch = pages[begin : begin + _BATCH_PAGES]
        yield from db.server.cpu.compute(len(batch) * _SERIALIZE_CPU_US)
        yield from file.write(offset, len(batch) * PAGE_SIZE, [p.copy() for p in batch])
        offset += len(batch) * PAGE_SIZE


def serialize_pool_to_file(db: Database, file: RemoteFile) -> ProcessGenerator:
    """S1 side: scan the pool, serialize resident pages into ``file``."""
    sim = db.sim
    start = sim.now
    pages = db.pool.cached_pages()
    yield from _serialize(db, pages, file)
    return PrimingResult(pages=len(pages), serialize_us=sim.now - start)


def prime_pool_from_file(db: Database, file: RemoteFile, page_count: int) -> ProcessGenerator:
    """S2 side: pull serialized pages and install them into the pool."""
    sim = db.sim
    start = sim.now
    offset = 0
    installed = 0
    while installed < page_count:
        batch_pages = min(_BATCH_PAGES, page_count - installed)
        batch = yield from file.read(offset, batch_pages * PAGE_SIZE)
        yield from db.server.cpu.compute(len(batch) * _SERIALIZE_CPU_US)
        for page in batch:
            yield from db.pool.put_page(page.copy())
        offset += batch_pages * PAGE_SIZE
        installed += len(batch)
    return PrimingResult(pages=installed, transfer_us=sim.now - start)


def prime_push(src: Database, dst: Database, batch_bytes: int = 1 * MB) -> ProcessGenerator:
    """Proactive push variant: S1 streams pages straight to S2's NIC."""
    sim = src.sim
    start = sim.now
    pages = src.pool.cached_pages()
    batch_pages = max(1, batch_bytes // PAGE_SIZE)
    for begin in range(0, len(pages), batch_pages):
        batch = pages[begin : begin + batch_pages]
        yield from src.server.cpu.compute(len(batch) * _SERIALIZE_CPU_US)
        yield src.server.nic.transfer(dst.server.nic, len(batch) * PAGE_SIZE)
        yield from dst.server.cpu.compute(len(batch) * _SERIALIZE_CPU_US)
        for page in batch:
            yield from dst.pool.put_page(page.copy())
    return PrimingResult(pages=len(pages), transfer_us=sim.now - start)


class ReactivePrimer:
    """Reactive priming: S2 fetches pages from S1's serialized pool
    on demand, as the workload touches them (Section 3.4's second
    variant — "similar to the cache extension scenario").

    Wraps the in-memory file as a read-through tier: ``lookup`` is
    called by the miss path before going to the data file.
    """

    def __init__(self, db: Database, file: RemoteFile, pages: list):
        self.db = db
        self.file = file
        #: page_id -> file offset of the serialized page.
        self.directory = {
            page.page_id: index * PAGE_SIZE for index, page in enumerate(pages)
        }
        #: batch start offset -> serialized batch size in bytes.
        self.batch_sizes = {}
        for begin in range(0, len(pages), _BATCH_PAGES):
            count = min(_BATCH_PAGES, len(pages) - begin)
            self.batch_sizes[begin * PAGE_SIZE] = count * PAGE_SIZE
        self.hits = 0
        self.misses = 0

    @classmethod
    def build(cls, source: Database, target: Database, file: RemoteFile) -> ProcessGenerator:
        """Serialize the source pool and return a primer for the target."""
        pages = source.pool.cached_pages()
        yield from _serialize(source, pages, file)
        return cls(target, file, pages)

    def lookup(self, page_id) -> ProcessGenerator:
        """Fetch one page on demand; returns None when not present."""
        offset = self.directory.get(page_id)
        if offset is None:
            self.misses += 1
            return None
        batch_start = (offset // (_BATCH_PAGES * PAGE_SIZE)) * _BATCH_PAGES * PAGE_SIZE
        batch = yield from self.file.read(batch_start, self.batch_sizes[batch_start])
        index = (offset - batch_start) // PAGE_SIZE
        if index >= len(batch):
            self.misses += 1
            return None
        self.hits += 1
        page = batch[index].copy()
        yield from self.db.pool.put_page(page)
        return page
