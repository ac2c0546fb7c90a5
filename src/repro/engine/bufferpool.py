"""Buffer pool with an optional extension tier (BPExt).

Scenario (i) of the paper (Section 3.1): when a page is evicted from
the in-memory pool, its *clean* image is parked in the extension — an
SSD file in the stock design, or a remote-memory file in the paper's
Custom design — so a later access is a fast extension read instead of a
data-file read from the HDD array.

Faithfully modelled details:

* **Clean-only extension.**  Dirty victims are handed to a background
  lazy writer that flushes them to the data file; the evicting worker
  does not wait (checkpoint-style write-behind with backpressure).
* **Best-effort remote memory.**  If the extension lives in remote
  memory and a lease is lost, the pool transparently falls back to the
  data file: queries keep answering correctly, just slower
  (Section 4.1.5).
* **Hit accounting** at every tier, which the drill-down figures use.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import filterfalse, islice, repeat
from typing import Callable, Iterable, Optional

from ..cluster import Server
from ..reliability import DeadlineExceeded, ReliabilityLayer
from ..sim import LatencyRecorder
from ..sim.kernel import ProcessGenerator
from ..telemetry.tracer import NOOP_SPAN as _NOOP_SPAN
from ..tiers.tier import Tier
from .errors import EngineError, PageNotFound
from .files import PageStore, RemoteMemoryUnavailable
from .page import Page, PageId

__all__ = ["BufferPool", "BufferPoolExtension", "Frame"]

#: CPU cost of a buffer-pool lookup (hash probe + latch).
LATCH_CPU_US = 0.8
#: Lazy-writer backpressure threshold (pending dirty pages).
WRITE_QUEUE_LIMIT = 256
#: Max concurrent read-ahead I/Os per pool (per-scan windows share it).
PREFETCH_CONCURRENCY = 256


class Frame:
    __slots__ = ("page", "dirty")

    def __init__(self, page: Page):
        self.page = page
        self.dirty = False


class BufferPoolExtension:
    """The memory hierarchy below the pool: an ordered list of tiers.

    Each :class:`~repro.tiers.Tier` is one level (fast -> slow) with its
    own store, slot map in eviction order, free list and counters; this
    class implements every operation over them once.  New evictees land
    in the fastest tier, a full tier pushes its coldest page one level
    down instead of dropping it (demotion), and a hit at a tier marked
    ``promote_on_hit`` pulls the page one level up.  One tier is every
    Table-5 design; the loops below then run exactly once.
    """

    def __init__(self, tiers: Iterable[Tier]):
        self.levels: list[Tier] = list(tiers)
        if not self.levels:
            raise EngineError("an extension needs at least one tier")
        for level in self.levels:
            self.replace_store(level, level.store)
        self._lower = tuple(self.levels[1:])
        #: The database server whose pool this extends (names its events).
        self.server = self.levels[0].store.server
        self.sim = self.server.sim
        #: Optional reliability layer (set via BufferPool.attach_reliability):
        #: routes around quarantined providers and classifies deadline
        #: expiries as transient instead of data loss.
        self.reliability: ReliabilityLayer | None = None
        #: Pages moved down because a tier overflowed.
        self.demotions = 0
        #: Demotions abandoned because the victim image could not be read
        #: (the cached copy is lost; the base file stays authoritative).
        self.demotions_failed = 0
        #: Pages pulled up after a hit at a slower tier.
        self.promotions = 0
        #: Completed page writes into any tier, demotions and promotions
        #: included (a park cancelled afterwards still moved its page);
        #: with ``hits`` it gives the pages the extension moved.
        self.parks = 0
        #: Write-behinds and demotion reads in flight: page_id -> their
        #: tokens.  ``invalidate`` takes the page's entry away, and a park
        #: that finds its token gone does not map its slot.
        self._parking: dict[PageId, set] = {}
        #: Parks dropped because the page was invalidated, or mapped by
        #: another park, while the write-behind was in flight — or because
        #: other parks in flight held every slot of the tier.
        self.parks_cancelled = 0
        #: Reads whose slot was freed (and perhaps re-used for another
        #: page) under them.  Served as a miss.
        self.stale_slot_reads = 0
        #: Observers called with ``(provider, lost_page_ids)`` after an
        #: ``on_fault`` sweep — the media-loss signal transaction
        #: managers use to doom in-flight transactions whose working set
        #: may have evaporated with the provider.
        self.loss_listeners: list[Callable[[str | None, list[PageId]], None]] = []
        #: Per-read latency across all tiers (Figure 11c drill-down, hedge
        #: delay input).  With one tier it *is* that tier's recorder: a
        #: second ``record`` per extension read is measurable host time.
        self.read_latency = (
            self.levels[0].read_latency if not self._lower
            else LatencyRecorder("bpext.read")
        )

    def level_for(self, medium: str) -> Optional[Tier]:
        """First level on ``medium`` (e.g. the remote level to rebuild)."""
        for level in self.levels:
            if level.medium == medium:
                return level
        return None

    # -- aggregates over the levels ------------------------------------------

    @property
    def enabled(self) -> bool:
        return any(level.enabled for level in self.levels)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        for level in self.levels:
            level.enabled = value

    def _total(self, attr: str) -> int:
        return sum(getattr(level, attr) for level in self.levels)

    capacity_pages = property(lambda self: self._total("capacity_pages"))
    parked_pages = property(lambda self: self._total("parked_pages"))
    hits = property(lambda self: self._total("hits"))
    misses = property(lambda self: self._total("misses"))
    failures = property(lambda self: self._total("failures"))
    transient_failures = property(lambda self: self._total("transient_failures"))
    quarantine_skips = property(lambda self: self._total("quarantine_skips"))
    pages_lost_to_faults = property(lambda self: self._total("pages_lost_to_faults"))

    # -- access path -----------------------------------------------------------

    def contains(self, page_id: PageId) -> bool:
        for level in self.levels:
            if level.enabled and page_id in level.slots:
                return True
        return False

    def put(self, page: Page, index: int = 0) -> ProcessGenerator:
        """Park a clean page image; a full tier demotes its oldest entry.

        The pool always parks at the top (``index`` 0); demotion and
        promotion re-enter here one level down or up.
        """
        level = self.levels[index]
        if not level.enabled:
            return
        page_id = page.page_id
        if index == 0:
            # If a slower tier already holds the page its image is
            # current (updates invalidate every level), so re-parking it
            # up top would only double-cache the page and churn the
            # demotion path.
            for lower in self._lower:
                if lower.enabled and page_id in lower.slots:
                    return
        slots = level.slots
        if page_id in slots:
            # Already parked and never dirtied since (updates invalidate
            # the mapping), so the extension copy is current: no I/O.
            slots.move_to_end(page_id)
            return
        token = self._park_begins(page_id)
        try:
            if level.free:
                slot = level.free.pop()
            elif not slots:
                # Every slot of the tier is in transit under another park.
                self.parks_cancelled += 1
                return
            else:
                old_id, slot = slots.popitem(last=False)
                if index + 1 < len(self.levels):
                    # Hand the victim to the tier below before its slot is
                    # reused.
                    yield from self._demote(level, old_id, slot, index + 1)
                level.store.discard(slot)
            layer = self.reliability
            if layer is not None:
                provider = level.store.slot_provider(slot)
                if provider is not None and not layer.breakers.routable(provider):
                    # Don't park pages at a quarantined provider: give the
                    # slot back and let the page age out of the pool.
                    level.quarantine_skips += 1
                    level.free.append(slot)
                    return

            def _write_aborted(level=level, slots=slots, page_id=page_id, slot=slot):
                # The write-behind transfer died after put() returned (the
                # provider crashed or a write deadline cut it short): the
                # remote bytes are unknown, so the mapping made below must
                # not survive.  The store already discarded its slot state.
                level.transient_failures += 1
                if slots.get(page_id) == slot:
                    del slots[page_id]
                    level.free.append(slot)

            tracer = self.sim.tracer
            span = (
                tracer.span("bpext.put", slot=slot, tier=level.name)
                if tracer.enabled else _NOOP_SPAN
            )
            with span:
                yield from level.store.write_page(
                    page, slot=slot, background=True, on_abort=_write_aborted
                )
            self.parks += 1
        except DeadlineExceeded:
            # The write may not have completed: the slot's remote bytes
            # are unknown, so never map it — but the *slot* is reusable.
            level.transient_failures += 1
            level.store.discard(slot)
            level.free.append(slot)
            return
        except RemoteMemoryUnavailable:
            self._on_failure(level, page_id, slot)
            return
        finally:
            current = self._park_ends(page_id, token)
        if not current or page_id in slots:
            # Stale by now, or a concurrent park of the page got there
            # first: never serve this copy.
            self.parks_cancelled += 1
            level.store.discard(slot)
            level.free.append(slot)
            return
        # Map only once the slot actually holds the page; readers that
        # race the write simply miss to the base file (correct, slower).
        slots[page_id] = slot

    def _park_begins(self, page_id: PageId) -> object:
        token = object()
        self._parking.setdefault(page_id, set()).add(token)
        return token

    def _park_ends(self, page_id: PageId, token: object) -> bool:
        """``False`` if the page was invalidated since ``_park_begins``."""
        tokens = self._parking.get(page_id, ())
        if token not in tokens:
            return False
        tokens.remove(token)
        if not tokens:
            del self._parking[page_id]
        return True

    def _demote(self, level: Tier, page_id: PageId, slot: int, below: int) -> ProcessGenerator:
        # Best-effort: read the victim image (timed — demotion costs a
        # real read) and park it one tier down.  A failed read just
        # loses the cached copy, but is counted where tests can see it.
        token = self._park_begins(page_id)
        try:
            page = yield from level.store.read_page(slot, background=True)
        except (PageNotFound, RemoteMemoryUnavailable, DeadlineExceeded):
            self.demotions_failed += 1
            return
        finally:
            current = self._park_ends(page_id, token)
        if not current:
            self.parks_cancelled += 1  # invalidated while it was being read
            return
        self.demotions += 1
        yield from self.put(page, below)

    def get(self, page_id: PageId, background: bool = False) -> ProcessGenerator:
        """Fetch from the fastest tier holding the page; promote if asked.

        Raises :class:`PageNotFound` when no tier serves it (absent,
        quarantined, or lost mid-read) — the pool then falls back to the
        base file.
        """
        sim = self.sim
        layer = self.reliability
        held = False
        for level in self.levels:
            slots = level.slots
            if not level.enabled or page_id not in slots:
                continue
            held = True
            slot = slots[page_id]
            if layer is not None:
                provider = level.store.slot_provider(slot)
                if provider is not None and not layer.breakers.routable(provider):
                    # Quarantined provider: try a slower tier, else the
                    # base file.  The mapping is kept — the parked image
                    # is presumed intact and becomes reachable again once
                    # the breaker re-admits the provider (crashes are
                    # swept separately by on_fault).
                    level.quarantine_skips += 1
                    level.misses += 1
                    continue
            # Touch the LRU position first so a concurrent put is unlikely
            # to evict the slot we are about to read.
            slots.move_to_end(page_id)
            start = sim.now
            tracer = sim.tracer
            span = (
                tracer.span("bpext.read", slot=slot, tier=level.name)
                if tracer.enabled else _NOOP_SPAN
            )
            try:
                with span:
                    page = yield from level.store.read_page(slot, background=background)
            except DeadlineExceeded:
                # Transient: the remote image is still there, only slow.
                # Keep the slot mapped and let the caller fall back.
                level.transient_failures += 1
                level.misses += 1
                continue
            except RemoteMemoryUnavailable:
                self._on_failure(level, page_id, slot)
                level.misses += 1
                continue
            if slots.get(page_id) != slot or page.page_id != page_id:
                # The slot was freed while the read was in flight, and
                # perhaps re-used: what came back may be another page.
                self.stale_slot_reads += 1
                level.misses += 1
                continue
            elapsed = sim.now - start
            level.read_latency.record(elapsed)
            if level.read_latency is not self.read_latency:
                self.read_latency.record(elapsed)
            slots.move_to_end(page_id)
            level.hits += 1
            if level.promote_on_hit and level is not self.levels[0]:
                self._drop(level, page_id)
                self.promotions += 1
                yield from self.put(page, self.levels.index(level) - 1)
            return page
        if not held:
            # No tier held it: the miss belongs to the bottom of the stack.
            self.levels[-1].misses += 1
        raise PageNotFound(f"extension: no tier could serve {page_id}")

    def adopt(self, page: Page) -> bool:
        """Park a clean page image without simulated I/O (pool priming).

        Steady-state benchmarks use this instead of replaying hours of
        warm-up traffic.  Tiers fill in order, fastest first; returns
        ``False`` when every tier is disabled, full, or already holds
        the page.
        """
        page_id = page.page_id
        for level in self.levels:
            if not level.enabled or page_id in level.slots or not level.free:
                continue
            slot = level.free.pop()
            level.slots[page_id] = slot
            level.store.install(page.copy(), slot=slot)
            return True
        return False

    @staticmethod
    def _drop(level: Tier, page_id: PageId) -> None:
        slot = level.slots.pop(page_id, None)
        if slot is not None:
            level.store.discard(slot)
            level.free.append(slot)

    def invalidate(self, page_id: PageId) -> None:
        self._parking.pop(page_id, None)
        for level in self.levels:
            self._drop(level, page_id)

    def _on_failure(self, level: Tier, page_id: PageId, slot: int) -> None:
        """A lease/provider vanished: drop the mapping, free the slot.

        The page image is lost, but the *slot* is not: once the store
        recovers (lease re-acquired, provider restored) the slot can
        hold a fresh page, so it goes back on the free list instead of
        leaking capacity.  The caller re-faults the page from the local
        store, so correctness is never affected.
        """
        level.failures += 1
        self.sim.log("bpext.refault", server=self.server.name, page_id=page_id)
        if level.slots.pop(page_id, None) is None and slot in level.free:
            # A concurrent access already reclaimed this slot.
            return
        level.store.discard(slot)
        level.free.append(slot)

    def on_fault(self, provider: str | None = None) -> list[PageId]:
        """Drop every slot backed by ``provider`` (``None`` = all slots).

        Called by fault injectors when a memory server crashes, instead
        of waiting for each page to fail on access.  Returns the page
        ids that were lost (they will re-fault from the base file).
        """
        lost: list[PageId] = []
        for level in self.levels:
            before = len(lost)
            for page_id, slot in list(level.slots.items()):
                # A store that cannot name a provider loses everything on
                # any fault sweep (conservative: local media are never
                # swept by provider-targeted injectors in practice).
                known = level.store.slot_provider(slot)
                if provider is None or known is None or known == provider:
                    self._drop(level, page_id)
                    lost.append(page_id)
            level.pages_lost_to_faults += len(lost) - before
        for listener in self.loss_listeners:
            listener(provider, lost)
        return lost

    @staticmethod
    def replace_store(level: Tier, store: PageStore) -> None:
        """Point ``level`` at a fresh store (construction, post-crash
        re-acquisition, fleet resizes).

        The level's slot mappings are dropped (the new store starts
        empty) and its free list is rebuilt to the new capacity; it then
        re-warms organically as clean pages are evicted into it.
        """
        if store.capacity_pages is None:
            raise EngineError("extension store needs a fixed capacity")
        level.store = store
        level.slots.clear()
        level.free = list(range(store.capacity_pages - 1, -1, -1))
        level.enabled = True


class BufferPool:
    """Fixed-capacity page cache with LRU eviction and write-behind."""

    def __init__(
        self,
        server: Server,
        capacity_pages: int,
        extension: Optional[BufferPoolExtension] = None,
        lazy_writers: int = 4,
    ):
        if capacity_pages < 2:
            raise EngineError("buffer pool needs at least two pages")
        self.server = server
        self.capacity_pages = capacity_pages
        self.extension = extension
        self.files: dict[int, PageStore] = {}
        # Rule for the next three maps: code that takes a page out of one
        # of them without having put it into another first bumps
        # ``_losses`` — ``prefetch`` remembers which pages it found here.
        self._frames: OrderedDict[PageId, Frame] = OrderedDict()
        #: Reads in flight: page_id -> completion event (dedup + prefetch).
        self._inflight: dict[PageId, object] = {}
        #: Dirty pages awaiting background flush: page_id -> snapshot.
        self._pending_writes: dict[PageId, Page] = {}
        self._write_queue: deque[PageId] = deque()
        self._queue_waiters: deque = deque()
        self._writer_signal = server.sim.store(name="bp.writer")
        for _ in range(lazy_writers):
            server.sim.spawn(self._lazy_writer(), name="bp.lazywriter")
        self.hits = 0
        self.misses = 0
        self.ext_hits = 0
        self.base_reads = 0
        self.prefetches = 0
        #: ``modify`` calls whose handle had been evicted (re-fetched).
        self.stale_handles = 0
        self._prefetch_active = 0
        #: Bumped wherever a page can drop out of ``_frames``, ``_inflight``
        #: and ``_pending_writes`` altogether (and, harmlessly, at some
        #: places where it only moves between them): ``_park``, a failed
        #: ``_fault``, a short ``fetch_group`` and ``drop_all``.
        self._losses = 0
        #: file_id -> (losses, lo, hi): pages ``lo <= n < hi`` were each in
        #: one of those three maps when a read-ahead window was last
        #: filtered, and still are while ``_losses`` has not moved.
        self._prefetch_known: dict[int, tuple[int, int, int]] = {}
        #: Optional reliability layer: hedged reads + quarantine routing.
        self.reliability: ReliabilityLayer | None = None
        #: End-to-end latency of demand page faults (whatever medium
        #: served them) — the metric hedging is meant to bound.
        self.fault_latency = LatencyRecorder("bp.fault")

    def attach_reliability(self, layer: ReliabilityLayer) -> ReliabilityLayer:
        """Enable hedged reads here and quarantine routing in the extension."""
        self.reliability = layer
        if self.extension is not None:
            self.extension.reliability = layer
        return layer

    # -- file registry -----------------------------------------------------

    def register_file(self, store: PageStore) -> PageStore:
        if store.file_id in self.files:
            raise EngineError(f"file id {store.file_id} already registered")
        self.files[store.file_id] = store
        return store

    # -- accounting helpers --------------------------------------------------

    @property
    def in_memory_pages(self) -> int:
        return len(self._frames)

    def is_cached(self, page_id: PageId) -> bool:
        return page_id in self._frames or page_id in self._pending_writes

    # -- main access path ------------------------------------------------------

    def get_page(self, file_id: int, page_no: int) -> ProcessGenerator:
        """Return the current image of a page, faulting it in if needed."""
        yield from self.server.cpu.compute(LATCH_CPU_US)
        page_id: PageId = (file_id, page_no)
        while True:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                self.hits += 1
                return frame.page
            # A dirty page may be in flight to the data file.
            pending = self._pending_writes.get(page_id)
            if pending is not None:
                self.hits += 1
                page = pending.copy()
                yield from self._insert(page)
                return page
            # Someone else (a peer worker or the prefetcher) is already
            # reading this page: wait for them instead of re-reading.
            inflight = self._inflight.get(page_id)
            if inflight is not None:
                yield inflight  # type: ignore[misc]
                continue  # re-check the frame table
            self.misses += 1
            page = yield from self._fault(page_id)
            return page

    def _fault(self, page_id: PageId, done=None, background: bool = False) -> ProcessGenerator:
        """Read a page from extension or base file and install it.

        ``done`` is the pre-registered in-flight event when the caller
        (the prefetcher) already claimed the page id; ``background``
        marks read-ahead I/O (waited asynchronously, never spinning).
        ``done`` fires only if someone waits on it: an event nobody
        subscribed to would take a now-queue slot and wake nobody.
        """
        if done is None:
            done = self.server.sim.event()
            self._inflight[page_id] = done
        start = self.server.sim.now
        layer = self.reliability
        tracer = self.server.sim.tracer
        span = tracer.span(
            "bp.fault", cat="fault",
            page=f"{page_id[0]}:{page_id[1]}", background=background,
        ) if tracer.enabled else _NOOP_SPAN
        try:
            page = None
            if self.extension is not None and self.extension.contains(page_id):
                if layer is not None and not background:
                    page, source = yield from self._hedged_ext_fetch(page_id)
                    if source == "ext":
                        self.ext_hits += 1
                    elif source == "base":
                        self.base_reads += 1
                else:
                    try:
                        page = yield from self.extension.get(page_id, background=background)
                        self.ext_hits += 1
                    except PageNotFound:
                        page = None  # lost to remote failure: fall back to base
            if page is None:
                store = self.files.get(page_id[0])
                if store is None:
                    raise PageNotFound(f"no file registered with id {page_id[0]}")
                page = yield from store.read_page(page_id[1], background=background)
                self.base_reads += 1
            yield from self._insert(page)
            if not background:
                self.fault_latency.record(self.server.sim.now - start)
            return page
        except BaseException:
            self._losses += 1  # claimed in ``_inflight``, never landed
            raise
        finally:
            span.close()
            del self._inflight[page_id]
            if done.callbacks:  # out of ``_inflight``: nobody else can wait now
                done.succeed()

    def _hedged_ext_fetch(self, page_id: PageId) -> ProcessGenerator:
        """Race the extension read against a delayed base-file read.

        The extension read is issued immediately; once it has been
        outstanding for the tail-derived hedge delay, a backup read of
        the same page from the base file is issued and whichever
        completes first supplies the page.  During a brown-out this
        bounds the fault latency at roughly *hedge delay + one disk
        read* instead of however long the degraded link takes — and
        when the primary fails outright the already-running backup
        doubles as the fallback.  Returns ``(page | None, source)``
        with ``source`` in ``{"ext", "base", None}``.
        """
        sim = self.server.sim
        layer = self.reliability
        extension = self.extension

        def absorb(generator) -> ProcessGenerator:
            # Spawned racers must not leak PageNotFound into the sim loop.
            try:
                page = yield from generator
            except PageNotFound:
                return None
            return page

        primary = sim.spawn(absorb(extension.get(page_id)), name="bp.hedge.primary")
        delay = layer.hedge_delay_us(extension.read_latency)
        index, value = yield sim.any_of([primary, sim.timeout(delay)])
        if index == 0:
            return value, "ext" if value is not None else None
        store = self.files.get(page_id[0])
        if store is None or not store.contains(page_id[1]):
            value = yield primary  # nothing to hedge with: sit it out
            return value, "ext" if value is not None else None
        layer.hedge.issued += 1
        hedge_span = (
            sim.tracer.span("bp.hedge", delay_us=delay)
            if sim.tracer.enabled
            else _NOOP_SPAN
        )
        backup = sim.spawn(
            absorb(store.read_page(page_id[1], background=True)),
            name="bp.hedge.backup",
        )
        try:
            index, value = yield sim.any_of([primary, backup])
            if index == 0:
                if value is not None:
                    layer.hedge.primary_wins += 1
                    return value, "ext"
                # Primary failed after the hedge fired: the backup read,
                # already in flight, doubles as the disk fallback.
                value = yield backup
                if value is not None:
                    layer.hedge.record_backup_win(rescued=True)
                    return value, "base"
                return None, None
            if value is not None:
                layer.hedge.record_backup_win(rescued=False)
                # Cancel the losing primary: a read parked on a browned-out
                # link would otherwise hold the provider's NIC engine for
                # its whole degraded service time, starving later traffic.
                primary.interrupt(cause="hedged read: backup won")
                return value, "base"
            value = yield primary  # backup lost the page mid-race: rare
            return value, "ext" if value is not None else None
        finally:
            hedge_span.close()

    def prefetch(self, file_id: int, page_nos: Iterable[int]) -> None:
        """Issue background read-ahead for ``page_nos`` (scan path).

        Pages already resident or in flight are skipped; missing pages
        are ignored silently (the scan simply faults them on demand).
        """

        def fetch(page_id: PageId, done) -> ProcessGenerator:
            try:
                yield from self._fault(page_id, done, background=True)
            except PageNotFound:
                pass
            finally:
                self._prefetch_active -= 1

        def fetch_group(store, start: int, claims: list) -> ProcessGenerator:
            # One large read for a contiguous group: engines issue
            # 256K+ read-ahead I/Os, which is what lets the HDD array
            # stream during scans.
            landed = 0
            try:
                pages = yield from store.read_batch(start, len(claims))
                for page in pages:
                    yield from self._insert(page)
                    landed += 1
            except PageNotFound:
                pass
            finally:
                for page_id, done in claims:
                    if self._inflight.get(page_id) is done:
                        del self._inflight[page_id]
                    if done.callbacks:
                        done.succeed()
                if landed < len(claims):
                    self._losses += 1  # claimed in ``_inflight``, never landed
                self._prefetch_active -= len(claims)

        store = self.files.get(file_id)
        if store is None:
            return
        budget = PREFETCH_CONCURRENCY - self._prefetch_active
        if budget <= 0:
            return
        # This runs once per scanned leaf over a full read-ahead window
        # that slides by one page per leaf, so nearly every probe would
        # repeat the previous call's: a scan's ``range`` window skips
        # the prefix already known to be resident or on its way.
        known_from = None
        if type(page_nos) is range and page_nos.step == 1:
            losses, known_from, known_to = self._prefetch_known.get(file_id, (-1, 0, 0))
            if losses != self._losses or not known_from <= page_nos.start <= known_to:
                known_from = known_to = page_nos.start
            if known_to >= page_nos.stop:
                return
            page_nos = range(known_to, page_nos.stop)
        absent = zip(repeat(file_id), page_nos)
        for held in (self._frames, self._inflight, self._pending_writes):
            absent = filterfalse(held.__contains__, absent)
        absent = [page_no for _file_id, page_no in absent]
        if known_from is not None:
            self._prefetch_known[file_id] = (
                self._losses, known_from, absent[0] if absent else page_nos.stop
            )
        wanted = list(islice(filter(store.contains, absent), budget))
        if not wanted:
            return
        # Split into extension-resident pages (fetched individually —
        # their extension slots are not contiguous) and contiguous
        # base-file groups (fetched as one large read each).
        groups: list[list[int]] = []
        ext_spawned = 0
        for page_no in wanted:
            page_id = (file_id, page_no)
            ext_resident = self.extension is not None and self.extension.contains(page_id)
            if ext_resident:
                # Extension reads complete in tens of microseconds; a
                # short pipeline suffices and avoids flooding the NIC.
                if ext_spawned >= 16:
                    continue
                ext_spawned += 1
                done = self.server.sim.event()
                self._inflight[page_id] = done
                self._prefetch_active += 1
                self.prefetches += 1
                self.server.sim.spawn(fetch(page_id, done), name="bp.prefetch")
            elif groups and groups[-1][-1] == page_no - 1:
                groups[-1].append(page_no)
            else:
                groups.append([page_no])
        for group in groups:
            claims = []
            for page_no in group:
                done = self.server.sim.event()
                self._inflight[(file_id, page_no)] = done
                claims.append(((file_id, page_no), done))
            self._prefetch_active += len(claims)
            self.prefetches += len(claims)
            self.server.sim.spawn(
                fetch_group(store, group[0], claims), name="bp.prefetch"
            )

    def modify(
        self, page: Page, mutate: Callable[[Page], object], lsn: int = 0
    ) -> ProcessGenerator:
        """The one way to change a page: run ``mutate`` on its resident image.

        Hand the pool a function, not a mutated handle.  ``page`` is the
        image the caller fetched and only a hint: if it is no longer the
        resident frame's image (evicted across a yield) the current one
        is faulted in first.  ``mutate``, the dirty flag and the
        extension invalidation then happen with no yield in between, so a
        stale image can never be written back.  ``mutate`` may return
        ``False`` to say it changed nothing, which leaves the page as
        clean as it was.  Returns the image ``mutate`` ran on.
        """
        page_id = page.page_id
        frame = self._frames.get(page_id)
        while frame is None or frame.page is not page:
            self.stale_handles += 1
            page = yield from self.get_page(*page_id)
            frame = self._frames.get(page_id)
        if mutate(page) is not False:
            if lsn:
                page.lsn = max(page.lsn, lsn)
            frame.dirty = True
            if self.extension is not None:
                self.extension.invalidate(page_id)
        return page

    def adopt(self, page: Page) -> bool:
        """Install a clean frame without I/O or eviction (pool priming).

        The caller bounds how many frames it adopts (the pool does not
        evict here); returns ``False`` when the page is already resident.
        """
        if page.page_id in self._frames:
            return False
        self._frames[page.page_id] = Frame(page.copy())
        return True

    def put_page(self, page: Page, dirty: bool = False) -> ProcessGenerator:
        """Install a page image directly (loader / split / priming path).

        ``dirty`` is applied atomically with the insertion so a newly
        created page can never be evicted as clean before the flag
        lands."""
        yield from self._insert(page, dirty=dirty)

    # -- eviction & write-behind -------------------------------------------------

    def _insert(self, page: Page, dirty: bool = False) -> ProcessGenerator:
        if page.page_id in self._frames:
            frame = self._frames[page.page_id]
            frame.page = page
            if dirty:
                frame.dirty = True
            self._frames.move_to_end(page.page_id)
            return
        # Reserve the frame *before* evicting: eviction can yield, and a
        # dirty page must never be observable as missing meanwhile.
        frame = Frame(page)
        frame.dirty = dirty
        self._frames[page.page_id] = frame
        self._frames.move_to_end(page.page_id)
        while len(self._frames) > self.capacity_pages:
            victim = self._frames.popitem(last=False)[1]
            if victim.dirty:
                yield from self._write_behind(victim.page)
            else:
                yield from self._park(victim.page, flushed=False)

    def _write_behind(self, page: Page) -> ProcessGenerator:
        """Hand a snapshot of a dirty image to the lazy writers."""
        page_id = page.page_id
        pending = self._pending_writes
        replaces = page_id in pending
        # In pending_writes *before* any yield so the page stays visible
        # to readers throughout the hand-off.
        pending[page_id] = page.copy()
        if replaces:
            # An older snapshot is queued or being flushed.  Whoever
            # retires it finds this one and queues the page again: two
            # flushes of one page in flight could land out of order.
            return
        # Lazy-writer backpressure when flooded.
        while len(self._write_queue) >= WRITE_QUEUE_LIMIT:
            waiter = self.server.sim.event()
            self._queue_waiters.append(waiter)
            yield waiter
        self._write_queue.append(page_id)
        self._writer_signal.put(page_id)

    def _park(self, page: Page, flushed: bool) -> ProcessGenerator:
        """Hand a clean image from the pool to the extension: an evicted
        frame's, or (``flushed``) a snapshot a lazy writer just wrote.

        One rule: an image is parked, and a pending snapshot forgotten,
        only while it is still the page's newest image in the pool.  A
        resident frame or a later snapshot of the page (it was read back
        and re-dirtied while this one was on its way to the file) owns
        the page instead, and leaves through here in its turn.
        """
        page_id = page.page_id
        pending = self._pending_writes
        self._losses += 1  # an evicted frame left ``_frames`` before the yield below
        if (
            self.extension is not None
            and page_id not in self._frames
            and pending.get(page_id) is (page if flushed else None)
        ):
            yield from self.extension.put(page)
        if not flushed:
            return
        if pending[page_id] is page:
            del pending[page_id]
            self._losses += 1
        else:  # replaced during its own flush: the page goes round again
            self._write_queue.append(page_id)
            self._writer_signal.put(page_id)

    def _lazy_writer(self) -> ProcessGenerator:
        while True:
            yield self._writer_signal.get()
            if not self._write_queue:
                continue
            # Drain a batch and write it elevator-style per file.
            batch: list[PageId] = []
            while self._write_queue and len(batch) < 64:
                batch.append(self._write_queue.popleft())
            by_file: dict[int, list] = {}
            for page_id in batch:
                by_file.setdefault(page_id[0], []).append(self._pending_writes[page_id])
            with self.server.sim.tracer.span("bp.writeback", pages=len(batch)):
                for file_id, pages in by_file.items():
                    store = self.files.get(file_id)
                    if store is None:
                        continue
                    yield from store.write_scattered(pages)
            # After the flush, the clean images can go to the extension.
            for pages in by_file.values():
                for page in pages:
                    yield from self._park(page, flushed=True)
            while self._queue_waiters and len(self._write_queue) < WRITE_QUEUE_LIMIT:
                self._queue_waiters.popleft().succeed()

    def flush_all(self) -> ProcessGenerator:
        """Write every dirty frame through to its file (checkpoint)."""
        for page_id in list(self._frames):
            frame = self._frames.get(page_id)  # may be evicted by now: queued there
            if frame is not None and frame.dirty:
                frame.dirty = False
                yield from self._write_behind(frame.page)
        while self._pending_writes:
            yield self.server.sim.timeout(100.0)

    def drop_all(self) -> None:
        """Empty the pool without I/O (cold restart, priming target)."""
        self._frames.clear()
        self._losses += 1

    def cached_pages(self) -> list[Page]:
        """Snapshot of resident pages, hottest last (priming source)."""
        return [frame.page for frame in self._frames.values()]

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
