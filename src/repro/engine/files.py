"""Page stores: the media a database file can live on.

Every store is slot-addressed (slot = 8K page position within the file)
and exposes the same generator API, so the buffer pool, BPExt, TempDB
and log writer can be pointed at a medium mounted one of two ways:

* :class:`DevicePageFile`  — a :class:`~repro.storage.BlockDevice`:
  a local HDD array or SSD, or a RamDrive on a remote server behind an
  SMB / SMB Direct client (itself a device).  Stock engines treat the
  remote RamDrive as a regular data file, so every I/O is waited on
  *asynchronously*, with the context-switch overheads of Figure 11c.
* :class:`RemotePageFile`  — the paper's Custom design: a lightweight
  remote-memory file accessed via RDMA; the wait policy (sync spin vs
  async) is the file's :class:`~repro.remotefile.AccessPolicy`.

Stores keep the authoritative *disk image* of their pages (snapshots,
isolated from buffer-pool mutation) so correctness is testable
end-to-end: what you wrote is what you read back, on every medium.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterator, Optional

from ..cluster import Server
from ..net.rdma import RdmaError
from ..reliability import DeadlineExceeded
from ..remotefile import RemoteFile, RemoteFileError, RemoteMemoryUnavailable
from ..sim.kernel import ProcessGenerator
from ..storage import BlockDevice, IoOp
from .errors import PageNotFound
from .page import PAGE_SIZE, Page

__all__ = [
    "PageStore",
    "DevicePageFile",
    "RemotePageFile",
    "RemoteMemoryUnavailable",
]


class PageStore(abc.ABC):
    """Slot-addressed page container with simulated I/O timing."""

    def __init__(self, file_id: int, capacity_pages: Optional[int] = None):
        self.file_id = file_id
        self.capacity_pages = capacity_pages
        self.page_reads = 0
        self.page_writes = 0

    @abc.abstractmethod
    def read_page(self, slot: int, background: bool = False) -> ProcessGenerator:
        """Return the page stored at ``slot`` (a fresh snapshot).

        ``background=True`` marks read-ahead I/O: media with a
        synchronous spin path (remote memory) wait asynchronously.
        """

    @abc.abstractmethod
    def write_page(
        self, page: Page, slot: Optional[int] = None, background: bool = False,
        on_abort: Optional[Callable[[], None]] = None,
    ) -> ProcessGenerator:
        """Store a snapshot of ``page`` at ``slot`` (default: page_no).

        ``background=True`` marks write-behind I/O (cache population,
        checkpoints): the content is installed immediately and the call
        does not wait for the device transfer.  ``on_abort`` (stores
        whose write-behind can fail after this call returned, i.e.
        remote memory) is invoked on such a late abort: the slot's
        contents are then unknown and the caller must unmap it."""

    @abc.abstractmethod
    def contains(self, slot: int) -> bool: ...

    @abc.abstractmethod
    def discard(self, slot: int) -> None:
        """Drop the page at ``slot`` without I/O (cache invalidation)."""

    def slot_provider(self, slot: int) -> Optional[str]:
        """Memory server backing ``slot``, or ``None`` when the medium
        has no notion of a provider (local devices) — the hook breaker
        routing and fault targeting key quarantine decisions on."""
        return None

    def iter_pages(self) -> Iterator[tuple[int, Page]]:
        """Iterate ``(slot, page)`` over the authoritative images, without
        simulated I/O (priming / steady-state setup).  Media that cannot
        enumerate their contents cheaply (remote memory) yield nothing.
        """
        return iter(())

    def install(self, page: Page, slot: Optional[int] = None) -> None:
        """Place a snapshot of ``page`` at ``slot`` without simulated I/O
        (initial load and steady-state priming; default: ``page_no``)."""
        raise NotImplementedError(f"{type(self).__name__} cannot install pages untimed")

    def preload(self, pages: list[Page]) -> None:
        """Install page images without simulated I/O (initial load,
        steady-state setup)."""
        for page in pages:
            self.install(page)

    def peek(self, slot: int) -> Page:
        """Untimed access to the stored image at ``slot`` (DDL builds and
        demotion snapshots; raises :class:`PageNotFound` when absent).

        Returns the internal object — callers must not mutate it.
        """
        raise PageNotFound(f"file {self.file_id}: cannot peek slot {slot}")

    def write_batch(self, slot: int, pages: list[Page]) -> ProcessGenerator:
        """Write ``pages`` contiguously from ``slot`` (one large I/O where
        the medium supports it; default falls back to per-page writes)."""
        for index, page in enumerate(pages):
            yield from self.write_page(page, slot=slot + index)

    def write_scattered(self, pages: list[Page]) -> ProcessGenerator:
        """Write back non-contiguous pages, each at its ``page_no`` (the
        lazy writer's batch; default: one write per page, in order)."""
        for page in pages:
            yield from self.write_page(page)

    def read_batch(self, slot: int, count: int) -> ProcessGenerator:
        """Read ``count`` contiguous pages starting at ``slot``."""
        pages = []
        for index in range(count):
            page = yield from self.read_page(slot + index)
            pages.append(page)
        return pages

    def _check_slot(self, slot: int) -> None:
        if slot < 0:
            raise PageNotFound(f"file {self.file_id}: negative slot {slot}")
        if self.capacity_pages is not None and slot >= self.capacity_pages:
            raise PageNotFound(
                f"file {self.file_id}: slot {slot} beyond capacity {self.capacity_pages}"
            )


class DevicePageFile(PageStore):
    """Pages on a block device: a local disk, or an SMB client's remote
    RamDrive (mount those with ``chunk_pages=None``: a linear file).

    The page images live in a host-side dictionary, authoritative for
    *content*; the device only decides what one I/O of ``count`` pages at
    ``slot`` costs (:meth:`_io`).  Every I/O is waited on asynchronously,
    like any disk I/O in a classic engine.
    """

    #: Pages per allocation chunk: contiguous on disk within a chunk,
    #: chunks scattered across the volume.  This reproduces full-scale
    #: disk geometry on a scaled-down database: scans still stream
    #: (one seek per 2 MB), while random page lookups land far apart.
    #: Pass ``chunk_pages=None`` for linear files (TempDB, log), which
    #: real engines preallocate contiguously.
    CHUNK_PAGES = 256

    def __init__(
        self,
        file_id: int,
        server: Server,
        device: BlockDevice,
        capacity_pages: Optional[int] = None,
        base_offset: int = 0,
        chunk_pages: Optional[int] = CHUNK_PAGES,
    ):
        super().__init__(file_id, capacity_pages)
        self.server = server
        self.device = device
        self.base_offset = base_offset
        self.chunk_pages = chunk_pages
        self._pages: dict[int, Page] = {}

    def _offset(self, slot: int) -> int:
        if self.chunk_pages is None:
            return self.base_offset + slot * PAGE_SIZE
        chunk, within = divmod(slot, self.chunk_pages)
        # Deterministic pseudo-random chunk placement over a ~8 TB
        # virtual region (multiplicative hashing; file id salts it).
        spread = (chunk * 2654435761 + self.file_id * 40503) % (1 << 22)
        return (
            self.base_offset
            + spread * self.chunk_pages * PAGE_SIZE
            + within * PAGE_SIZE
        )

    def _io(self, op: IoOp, slot: int, count: int):
        """Issue one ``count``-page transfer at ``slot``; returns the
        event that fires on completion."""
        return self.device.submit(op, self._offset(slot), count * PAGE_SIZE)

    def read_page(self, slot: int, background: bool = False) -> ProcessGenerator:
        self._check_slot(slot)
        if slot not in self._pages:
            raise PageNotFound(f"file {self.file_id}: no page at slot {slot}")
        # Snapshot at I/O start: a concurrent discard (extension slot
        # eviction) must not fault a read already in flight.
        page = self._pages[slot]
        yield from self.server.cpu.async_wait(self._io(IoOp.READ, slot, 1))
        self.page_reads += 1
        return page.copy()

    def write_page(
        self, page: Page, slot: Optional[int] = None, background: bool = False,
        on_abort: Optional[Callable[[], None]] = None,
    ) -> ProcessGenerator:
        slot = page.page_no if slot is None else slot
        self._check_slot(slot)
        self._pages[slot] = page.copy()
        io = self._io(IoOp.WRITE, slot, 1)
        if not background:
            yield from self.server.cpu.async_wait(io)
        self.page_writes += 1

    def write_batch(self, slot: int, pages: list[Page]) -> ProcessGenerator:
        self._check_slot(slot + len(pages) - 1)
        yield from self.server.cpu.async_wait(self._io(IoOp.WRITE, slot, len(pages)))
        for index, page in enumerate(pages):
            self._pages[slot + index] = page.copy()
        self.page_writes += len(pages)

    def read_batch(self, slot: int, count: int) -> ProcessGenerator:
        self._check_slot(slot + count - 1)
        yield from self.server.cpu.async_wait(self._io(IoOp.READ, slot, count))
        self.page_reads += count
        return [self._pages[slot + index].copy() for index in range(count)
                if slot + index in self._pages]

    def write_scattered(self, pages: list[Page]) -> ProcessGenerator:
        """Checkpoint-style write of non-contiguous pages.

        Real engines sort dirty pages by file offset and sweep the disk
        elevator-fashion, so a batch costs roughly one positioning plus
        the transfers, not one random seek per page.
        """
        if not pages:
            return
        ordered = sorted(pages, key=lambda page: page.page_no)
        yield from self.server.cpu.async_wait(
            self._io(IoOp.WRITE, ordered[0].page_no, len(ordered))
        )
        for page in ordered:
            self._pages[page.page_no] = page.copy()
        self.page_writes += len(ordered)

    def contains(self, slot: int) -> bool:
        return slot in self._pages

    def discard(self, slot: int) -> None:
        self._pages.pop(slot, None)

    def iter_pages(self) -> "Iterator[tuple[int, Page]]":
        return iter(self._pages.items())

    def install(self, page: Page, slot: Optional[int] = None) -> None:
        self._pages[page.page_no if slot is None else slot] = page.copy()

    def peek(self, slot: int) -> Page:
        if slot not in self._pages:
            raise PageNotFound(f"file {self.file_id}: no page at slot {slot}")
        return self._pages[slot]


class RemotePageFile(PageStore):
    """Pages in brokered remote memory via the lightweight file API."""

    def __init__(self, file_id: int, remote_file: RemoteFile, capacity_pages: Optional[int] = None):
        if capacity_pages is None:
            capacity_pages = remote_file.size // PAGE_SIZE
        super().__init__(file_id, capacity_pages)
        self.remote_file = remote_file
        self.server = remote_file.owner
        self._present: set[int] = set()
        #: slot -> page count for extents written as one object.
        self._batches: dict[int, int] = {}

    def read_page(self, slot: int, background: bool = False) -> ProcessGenerator:
        self._check_slot(slot)
        if slot not in self._present:
            raise PageNotFound(f"remote file {self.file_id}: no page at slot {slot}")
        try:
            page = yield from self.remote_file.read(
                slot * PAGE_SIZE, PAGE_SIZE, background=background
            )
        except DeadlineExceeded:
            # A budget expiry is transient — the remote image is intact,
            # just slow to reach — so the slot stays present for a later
            # (or hedged) attempt.  Contrast RemoteMemoryUnavailable
            # below, where the backing data really is gone.
            raise
        except RemoteMemoryUnavailable:
            self._present.discard(slot)
            raise
        except (RemoteFileError, RdmaError):
            # The extent was dropped while the read was in flight (slot
            # evicted/invalidated concurrently): treat as a plain miss.
            self._present.discard(slot)
            raise PageNotFound(f"remote file {self.file_id}: slot {slot} dropped mid-read")
        self.page_reads += 1
        return page.copy()

    def write_page(
        self, page: Page, slot: Optional[int] = None, background: bool = False,
        on_abort: Optional[Callable[[], None]] = None,
    ) -> ProcessGenerator:
        slot = page.page_no if slot is None else slot
        self._check_slot(slot)

        def _aborted():
            # The fire-and-forget transfer died after we returned: the
            # remote bytes at ``slot`` are unknown, so stop serving it.
            self.discard(slot)
            if on_abort is not None:
                on_abort()

        yield from self.remote_file.write(
            slot * PAGE_SIZE, PAGE_SIZE, page.copy(), background=background,
            on_abort=_aborted if background else None,
        )
        self._present.add(slot)
        self._batches.pop(slot, None)  # a single page now lives here
        self.page_writes += 1

    def write_batch(self, slot: int, pages: list[Page]) -> ProcessGenerator:
        """One RDMA write for the whole extent when it fits in one MR."""
        self._check_slot(slot + len(pages) - 1)
        size = len(pages) * PAGE_SIZE
        try:
            yield from self.remote_file.write(
                slot * PAGE_SIZE, size, [page.copy() for page in pages]
            )
        except RemoteFileError:
            # Extent straddles a memory-region boundary: page-by-page.
            self._batches.pop(slot, None)
            for index, page in enumerate(pages):
                yield from self.write_page(page, slot=slot + index)
            return
        self._present.update(range(slot, slot + len(pages)))
        self._batches[slot] = len(pages)
        self.page_writes += len(pages)

    def read_batch(self, slot: int, count: int) -> ProcessGenerator:
        """Read a contiguous range, consuming whole batch-written extents
        where possible (a coalesced read may span several of them)."""
        pages: list[Page] = []
        cursor = slot
        end = slot + count
        while cursor < end:
            batch_pages = self._batches.get(cursor)
            if batch_pages is not None:
                # Read the stored batch object whole; slice if the
                # requested window ends inside it.
                extent = yield from self.remote_file.read(
                    cursor * PAGE_SIZE, batch_pages * PAGE_SIZE
                )
                take = min(batch_pages, end - cursor)
                pages.extend(page.copy() for page in extent[:take])
                self.page_reads += take
                cursor += batch_pages
            else:
                page = yield from self.read_page(cursor)
                pages.append(page)
                cursor += 1
        return pages

    def contains(self, slot: int) -> bool:
        return slot in self._present

    def discard(self, slot: int) -> None:
        self._present.discard(slot)
        self._batches.pop(slot, None)

    def slot_provider(self, slot: int) -> str:
        """Memory server backing ``slot`` (fault-targeting hook)."""
        return self.remote_file.provider_of(slot * PAGE_SIZE)

    def install(self, page: Page, slot: Optional[int] = None) -> None:
        slot = page.page_no if slot is None else slot
        self.remote_file.install(slot * PAGE_SIZE, PAGE_SIZE, page.copy())
        self._present.add(slot)

