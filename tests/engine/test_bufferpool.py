"""Tests for the buffer pool, eviction, lazy writer and BPExt."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine.bufferpool import PREFETCH_CONCURRENCY, BufferPool, BufferPoolExtension
from repro.engine.files import DevicePageFile, RemotePageFile
from repro.engine.page import Page
from repro.tiers import Tier


def make_pool(rig, capacity=8, extension_store=None, file_device=None):
    extension = (
        BufferPoolExtension([Tier("bpext", extension_store)]) if extension_store else None
    )
    pool = BufferPool(rig.db, capacity_pages=capacity, extension=extension)
    device = file_device if file_device is not None else rig.hdd
    data = DevicePageFile(1, rig.db, device)
    data.preload([Page.build(1, n, [(n, f"row{n}")]) for n in range(64)])
    pool.register_file(data)
    return pool, data


def update(pool, page_no, mutate):
    """Fetch a page of file 1 and change it the one way there is."""
    page = yield from pool.get_page(1, page_no)
    yield from pool.modify(page, mutate)


class TestBasicCaching:
    def test_miss_then_hit(self, rig):
        pool, _data = make_pool(rig)
        rig.run(pool.get_page(1, 0))
        assert (pool.hits, pool.misses) == (0, 1)
        rig.run(pool.get_page(1, 0))
        assert (pool.hits, pool.misses) == (1, 1)

    def test_hit_avoids_device(self, rig):
        pool, data = make_pool(rig)
        rig.run(pool.get_page(1, 0))
        reads_before = data.page_reads
        rig.run(pool.get_page(1, 0))
        assert data.page_reads == reads_before

    def test_lru_eviction_order(self, rig):
        pool, _data = make_pool(rig, capacity=4)
        for n in range(4):
            rig.run(pool.get_page(1, n))
        rig.run(pool.get_page(1, 0))  # 0 becomes most recent
        rig.run(pool.get_page(1, 4))  # evicts 1 (least recent)
        assert pool.is_cached((1, 0))
        assert not pool.is_cached((1, 1))

    def test_unknown_file_raises(self, rig):
        from repro.engine.errors import PageNotFound

        pool, _data = make_pool(rig)
        with pytest.raises(PageNotFound):
            rig.run(pool.get_page(99, 0))

    def test_capacity_validation(self, rig):
        from repro.engine.errors import EngineError

        with pytest.raises(EngineError):
            BufferPool(rig.db, capacity_pages=1)


class TestDirtyPages:
    def test_update_marks_dirty_and_changes_content(self, rig):
        pool, _data = make_pool(rig)

        def bump(page):
            page.rows[0] = (0, "updated")

        rig.run(update(pool, 0, bump))
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "updated")

    def test_dirty_eviction_flushes_to_file_in_background(self, rig):
        pool, data = make_pool(rig, capacity=4)

        def bump(page):
            page.rows[0] = (0, "updated")

        rig.run(update(pool, 0, bump))
        for n in range(1, 6):  # push page 0 out
            rig.run(pool.get_page(1, n))
        rig.sim.run(until=rig.sim.now + 1e6)  # let the lazy writer drain
        assert data._pages[0].rows[0] == (0, "updated")

    def test_read_during_pending_write_sees_new_data(self, rig):
        pool, _data = make_pool(rig, capacity=4)

        def bump(page):
            page.rows[0] = (0, "updated")

        rig.run(update(pool, 0, bump))
        for n in range(1, 6):
            rig.run(pool.get_page(1, n))
        # Do not wait for the writer: the page image must still be correct.
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "updated")

    def test_flush_all_persists_everything(self, rig):
        pool, data = make_pool(rig)

        def bump(page):
            page.rows[0] = ("flushed",)

        for n in range(3):
            rig.run(update(pool, n, bump))
        rig.run(pool.flush_all())
        for n in range(3):
            assert data._pages[n].rows[0] == ("flushed",)


class TestExtension:
    def make_ext_pool(self, rig, remote=False, capacity=4, ext_pages=16):
        if remote:
            remote_file = rig.make_remote_file("bpext", ext_pages * 8192)
            store = RemotePageFile(50, remote_file)
        else:
            store = DevicePageFile(50, rig.db, rig.ssd, capacity_pages=ext_pages)
        pool, data = make_pool(rig, capacity=capacity, extension_store=store)
        return pool, data, store

    def test_clean_eviction_parks_in_extension(self, rig):
        pool, _data, _store = self.make_ext_pool(rig)
        for n in range(5):  # page 0 evicted
            rig.run(pool.get_page(1, n))
        assert pool.extension.contains((1, 0))

    def test_extension_hit_avoids_base_file(self, rig):
        pool, data, _store = self.make_ext_pool(rig)
        for n in range(5):
            rig.run(pool.get_page(1, n))
        base_reads = data.page_reads
        rig.run(pool.get_page(1, 0))  # should come from the extension
        assert data.page_reads == base_reads
        assert pool.ext_hits == 1

    def test_remote_extension_roundtrip(self, rig):
        pool, _data, _store = self.make_ext_pool(rig, remote=True)
        for n in range(5):
            rig.run(pool.get_page(1, n))
        page = rig.run(pool.get_page(1, 0))
        assert page.rows == [(0, "row0")]
        assert pool.ext_hits == 1

    def test_extension_evicts_oldest_when_full(self, rig):
        pool, _data, _store = self.make_ext_pool(rig, capacity=2, ext_pages=3)
        for n in range(8):
            rig.run(pool.get_page(1, n))
        parked = [pid for pid in [(1, n) for n in range(8)] if pool.extension.contains(pid)]
        assert len(parked) <= 3

    def test_update_invalidates_extension_copy(self, rig):
        pool, _data, _store = self.make_ext_pool(rig)
        for n in range(5):
            rig.run(pool.get_page(1, n))
        assert pool.extension.contains((1, 0))

        def bump(page):
            page.rows[0] = (0, "v2")

        rig.run(update(pool, 0, bump))
        # Fresh read after another round of eviction must see v2.
        for n in range(1, 6):
            rig.run(pool.get_page(1, n))
        rig.sim.run(until=rig.sim.now + 1e6)
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "v2")

    def test_remote_loss_falls_back_to_base_file(self, rig):
        """Correctness survives losing every lease (Section 4.1.5)."""
        pool, data, _store = self.make_ext_pool(rig, remote=True)
        for n in range(5):
            rig.run(pool.get_page(1, n))
        assert pool.extension.contains((1, 0))
        # Expire the leases: remote memory vanishes.
        rig.sim.run(until=rig.sim.now + rig.broker.lease_duration_us + 1)
        page = rig.run(pool.get_page(1, 0))
        assert page.rows == [(0, "row0")]  # served from the data file
        assert pool.extension.failures >= 1


def tag(value):
    """A mutation that records ``value`` in the page's first row."""

    def mutate(page):
        page.rows[0] = page.rows[0] + (value,)

    return mutate


class TestWriteRaces:
    """One regression per way the write path used to lose an update.

    Every page starts as ``[(n, "rown")]``; ``tag`` appends to that row,
    so a lost update shows as a missing tag.
    """

    def remote_ext_pool(self, rig, ext_pages=16, lazy_writers=4):
        remote_file = rig.make_remote_file("bpext-races", ext_pages * 8192)
        store = RemotePageFile(50, remote_file, capacity_pages=ext_pages)
        pool = BufferPool(
            rig.db, capacity_pages=4, lazy_writers=lazy_writers,
            extension=BufferPoolExtension([Tier("bpext", store)]),
        )
        data = DevicePageFile(1, rig.db, rig.hdd)
        data.preload([Page.build(1, n, [(n, f"row{n}")]) for n in range(64)])
        pool.register_file(data)
        return pool, data

    def evict_all(self, rig, pool, start):
        """Push every resident page out without reading anything."""
        for n in range(start, start + 4):
            rig.run(pool.put_page(Page.build(1, n, [(n, "filler")])))

    def test_flushed_image_is_not_parked_under_a_redirtied_copy(self, rig):
        """(a) Flushed while a re-dirtied copy is resident, then read back
        after that copy was flushed too."""
        pool, _data = self.remote_ext_pool(rig)
        rig.run(update(pool, 0, tag("v1")))
        self.evict_all(rig, pool, 64)  # snapshot v1 starts for the HDD
        assert (1, 0) in pool._pending_writes
        rig.run(update(pool, 0, tag("v2")))  # read back from the snapshot, re-dirtied
        rig.sim.run(until=rig.sim.now + 1e6)  # v1 lands while v2 is resident
        assert not pool._pending_writes
        self.evict_all(rig, pool, 68)  # now v2 goes out and lands
        rig.sim.run(until=rig.sim.now + 1e6)
        assert not pool.is_cached((1, 0))
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "row0", "v1", "v2")

    def test_snapshot_replaced_during_its_own_flush_is_written_too(self, rig):
        """(b) Re-dirtied *and* re-evicted while its older snapshot is
        still being flushed, with every lazy writer busy."""
        pool, data = self.remote_ext_pool(rig, lazy_writers=1)
        rig.run(update(pool, 0, tag("v1")))
        self.evict_all(rig, pool, 64)
        rig.run(update(pool, 0, tag("v2")))
        self.evict_all(rig, pool, 68)  # replaces the snapshot in flight
        assert pool._pending_writes[(1, 0)].rows[0] == (0, "row0", "v1", "v2")
        rig.sim.run(until=rig.sim.now + 1e6)
        rig.run(pool.flush_all())
        assert data.peek(0).rows[0] == (0, "row0", "v1", "v2")

    def test_park_in_flight_is_cancelled_when_the_page_is_dirtied(self, rig):
        """(c) A clean victim is re-read and dirtied while its
        write-behind to the extension is still waiting for a staging
        slot; the late mapping must not survive."""
        pool, _data = self.remote_ext_pool(rig)
        rig.run(pool.get_page(1, 0))
        rig.run(update(pool, 1, tag("dirty")))  # the *next* victim: no park needed
        rig.run(pool.get_page(1, 2))
        rig.run(pool.get_page(1, 3))
        staging = rig.fs.staging
        held = rig.run(staging.acquire(staging.slots.capacity * 8192))
        rig.sim.spawn(pool.put_page(Page.build(1, 64, [(64, "filler")])))  # evicts clean 0
        rig.sim.run(until=rig.sim.now + 10.0)
        assert not pool.is_cached((1, 0)) and not pool.extension.contains((1, 0))
        rig.run(update(pool, 0, tag("v1")))  # from the base file, while the park waits
        staging.release(held)
        rig.sim.run(until=rig.sim.now + 1e6)
        self.evict_all(rig, pool, 65)
        rig.sim.run(until=rig.sim.now + 1e6)
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "row0", "v1")
        assert pool.extension.parks_cancelled == 1

    def test_demotion_in_flight_is_cancelled_when_the_page_is_dirtied(self, rig):
        """(c) one level down: the victim of a full top tier is dirtied
        while its image is being read for demotion."""
        top = DevicePageFile(50, rig.db, rig.hdd, capacity_pages=2)  # slow to read back
        bottom = DevicePageFile(51, rig.db, rig.ssd, capacity_pages=8)
        pool = BufferPool(
            rig.db, capacity_pages=4,
            extension=BufferPoolExtension([Tier("top", top), Tier("bottom", bottom)]),
        )
        data = DevicePageFile(1, rig.db, rig.ssd)
        data.preload([Page.build(1, n, [(n, f"row{n}")]) for n in range(64)])
        pool.register_file(data)
        for n in range(6):  # parks pages 0 and 1: the top tier is full
            rig.run(update(pool, n, tag("dirty")) if n == 3 else pool.get_page(1, n))
        ext = pool.extension
        assert list(ext.levels[0].slots) == [(1, 0), (1, 1)]
        rig.sim.spawn(pool.put_page(Page.build(1, 64, [(64, "filler")])))  # page 2 pushes 0 down
        rig.sim.run(until=rig.sim.now + 10.0)
        assert not ext.contains((1, 0)) and ext.demotions == 0  # its image is being read
        rig.run(update(pool, 0, tag("v1")))  # evicts dirty page 3: no park in its way
        rig.sim.run(until=rig.sim.now + 1e6)
        self.evict_all(rig, pool, 65)
        rig.sim.run(until=rig.sim.now + 1e6)
        assert not pool.is_cached((1, 0))
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "row0", "v1")
        assert ext.parks_cancelled == 1

    def test_park_is_dropped_when_every_slot_is_in_transit(self, rig):
        pool, _data = self.remote_ext_pool(rig, ext_pages=1)
        for n in range(4):
            rig.run(pool.get_page(1, n))
        staging = rig.fs.staging
        held = rig.run(staging.acquire(staging.slots.capacity * 8192))
        for n in (64, 65):  # evict 0, then 1 while 0 still waits for a staging slot
            rig.sim.spawn(pool.put_page(Page.build(1, n, [(n, "filler")])))
        rig.sim.run(until=rig.sim.now + 10.0)
        staging.release(held)
        rig.sim.run(until=rig.sim.now + 1e6)
        ext = pool.extension
        assert ext.contains((1, 0)) and not ext.contains((1, 1))
        assert ext.parks_cancelled == 1

    def test_slot_reused_under_a_read_in_flight_is_a_miss(self, rig):
        """(d) The slot a read is aimed at is freed and given to another
        page before the read completes."""
        pool, _data = self.remote_ext_pool(rig)
        for n in range(5):
            rig.run(pool.get_page(1, n))
        rig.sim.run(until=rig.sim.now + 1e3)  # page 0's write-behind lands
        ext = pool.extension
        assert ext.contains((1, 0))
        reader = rig.sim.spawn(pool.get_page(1, 0))
        rig.sim.run(until=rig.sim.now + 2.0)
        assert (1, 0) in pool._inflight  # the RDMA read is on its way
        ext.invalidate((1, 0))
        assert ext.adopt(Page.build(1, 40, [(40, "other")]))  # takes the slot just freed
        page = rig.sim.run_until_complete(reader)
        assert page.page_id == (1, 0) and page.rows == [(0, "row0")]
        assert (ext.stale_slot_reads, pool.ext_hits) == (1, 0)

    def test_read_does_not_overtake_the_write_behind_it_follows(self, rig):
        """(d) from the other side: the slot is re-used for a newer image
        of the page it held before, the write-behind queues on a busy
        NIC, and a read issued after it must not return the old image."""
        remote_file = rig.make_remote_file("bpext-raw", 64 * 8192)
        store = RemotePageFile(50, remote_file, capacity_pages=16)
        ext = BufferPoolExtension([Tier("bpext", store)])
        rig.run(ext.put(Page.build(1, 0, [(0, "v1")])))
        rig.sim.run(until=rig.sim.now + 1e3)
        slot = ext.levels[0].slots[(1, 0)]
        ext.invalidate((1, 0))  # the page was updated: its slot is free again

        def burst():  # forty write-behinds elsewhere in the file keep the NIC busy
            for n in range(20, 60):
                yield from remote_file.write(
                    n * 8192, 8192, Page.build(9, n, []), background=True
                )

        rig.run(burst())
        rig.run(ext.put(Page.build(1, 0, [(0, "v2")])))
        assert ext.levels[0].slots[(1, 0)] == slot
        page = rig.run(ext.get((1, 0)))
        assert page.rows == [(0, "v2")]

    def test_modify_refetches_a_handle_evicted_across_a_yield(self, rig):
        """(e) A writer holds its page across a long wait; the page is
        evicted and another worker updates the fresh copy."""
        pool, _data = self.remote_ext_pool(rig)

        def slow_writer():
            page = yield from pool.get_page(1, 0)
            yield rig.sim.timeout(1e6)  # a log wait, say
            yield from pool.modify(page, tag("slow"))

        writer = rig.sim.spawn(slow_writer())
        rig.sim.run(until=rig.sim.now + 1e5)
        self.evict_all(rig, pool, 64)
        rig.run(update(pool, 0, tag("fast")))
        rig.sim.run_until_complete(writer)
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "row0", "fast", "slow")
        assert pool.stale_handles == 1


class TestPrefetch:
    def test_prefetch_installs_contiguous_pages(self, rig):
        pool, data = make_pool(rig, capacity=64)
        pool.prefetch(1, list(range(0, 16)))
        rig.sim.run(until=rig.sim.now + 1e6)
        assert all(pool.is_cached((1, n)) for n in range(16))
        # One coalesced device read, not sixteen.
        assert data.page_reads == 16
        assert rig.hdd.reads <= 2

    def test_prefetch_skips_resident_and_missing(self, rig):
        pool, data = make_pool(rig, capacity=64)
        rig.run(pool.get_page(1, 5))
        reads_before = data.page_reads
        pool.prefetch(1, [5, 63, 100])  # 5 resident, 100 missing
        rig.sim.run(until=rig.sim.now + 1e6)
        assert pool.is_cached((1, 63))
        assert not pool.is_cached((1, 100))
        assert data.page_reads == reads_before + 1

    def test_concurrent_reader_waits_for_inflight_prefetch(self, rig):
        pool, data = make_pool(rig, capacity=64)
        got = []

        def reader():
            page = yield from pool.get_page(1, 3)
            got.append(page)

        pool.prefetch(1, [3])
        rig.sim.spawn(reader())
        rig.sim.run(until=rig.sim.now + 1e6)
        assert got and got[0].page_id == (1, 3)
        # The reader deduplicated against the prefetch: one device read.
        assert data.page_reads == 1

    def test_prefetch_concurrency_cap(self, rig):
        from repro.engine.bufferpool import PREFETCH_CONCURRENCY

        pool, _data = make_pool(rig, capacity=1024)
        # Ask for more than the cap in one call: the claim count is bounded.
        data2 = DevicePageFile(2, rig.db, rig.ssd)
        data2.preload([Page.build(2, n, [(n,)]) for n in range(PREFETCH_CONCURRENCY * 2)])
        pool.register_file(data2)
        pool.prefetch(2, list(range(PREFETCH_CONCURRENCY * 2)))
        assert pool._prefetch_active <= PREFETCH_CONCURRENCY


def unmemoised_claims(pool, file_id, window):
    """The page-by-page filter ``prefetch`` ran before it kept a memo."""
    budget = PREFETCH_CONCURRENCY - pool._prefetch_active
    store = pool.files[file_id]
    wanted = []
    for page_no in window:
        page_id = (file_id, page_no)
        if page_id in pool._frames or page_id in pool._inflight:
            continue
        if page_id in pool._pending_writes or not store.contains(page_no):
            continue
        if len(wanted) < budget:
            wanted.append(page_id)
    return wanted


def claims(pool, window):
    """Page ids one ``prefetch`` call over ``window`` claims."""
    before = set(pool._inflight)
    pool.prefetch(1, window)
    return sorted(set(pool._inflight) - before)


class TestPrefetchMemo:
    """Each way a page leaves the pool must make the window memo forget it.

    Every scenario first lets ``prefetch`` see pages 0..3 as resident,
    in flight or pending (so it may remember them), then takes page 0 or
    2 away, and checks the next call over the same window claims it.
    """

    def warm(self, rig, capacity=4):
        pool, data = make_pool(rig, capacity=capacity)
        for n in range(4):
            rig.run(pool.get_page(1, n))
        return pool, data

    def test_eviction(self, rig):
        pool, _data = self.warm(rig)
        assert claims(pool, range(0, 4)) == []
        rig.run(pool.put_page(Page.build(1, 40, [(40, "new")])))  # evicts 0; nothing lands
        assert claims(pool, range(0, 4)) == [(1, 0)]

    def test_drop_all(self, rig):
        pool, _data = self.warm(rig)
        assert claims(pool, range(0, 4)) == []
        pool.drop_all()
        assert claims(pool, range(0, 4)) == [(1, n) for n in range(4)]

    def test_dirty_page_written_back(self, rig):
        pool, _data = make_pool(rig, capacity=4)
        rig.run(update(pool, 0, lambda page: None))
        for n in range(1, 5):
            rig.run(pool.get_page(1, n))  # the last one evicts dirty page 0
        assert (1, 0) in pool._pending_writes
        assert claims(pool, range(0, 4)) == []  # 0 pending, 2 and 3 resident
        rig.sim.run(until=rig.sim.now + 1e6)  # the lazy writer flushes and forgets it
        assert not pool.is_cached((1, 0))
        assert claims(pool, range(0, 4))[0] == (1, 0)

    def test_claimed_page_that_never_lands(self, rig):
        pool, data = make_pool(rig, capacity=8)
        assert claims(pool, range(0, 4)) == [(1, n) for n in range(4)]
        data.discard(2)  # vanishes while its group read is in flight
        assert claims(pool, range(0, 4)) == []
        rig.sim.run(until=rig.sim.now + 1e6)
        data.install(Page.build(1, 2, [(2, "late")]))
        assert claims(pool, range(0, 4)) == [(1, 2)]

    def test_group_read_that_lands_whole_keeps_the_memo(self, rig):
        pool, _data = make_pool(rig, capacity=8)
        assert claims(pool, range(0, 4)) == [(1, n) for n in range(4)]
        losses = pool._losses
        rig.sim.run(until=rig.sim.now + 1e6)
        assert all(pool.is_cached((1, n)) for n in range(4))
        assert pool._losses == losses  # in flight -> resident: nothing left
        assert claims(pool, range(0, 4)) == []

    def test_interrupted_demand_fault(self, rig):
        from repro.sim.kernel import Interrupt

        def reader():
            try:
                yield from pool.get_page(1, 2)
            except Interrupt:
                pass

        pool, _data = make_pool(rig, capacity=8)
        process = rig.sim.spawn(reader())
        rig.sim.run(until=rig.sim.now + 5.0)
        assert (1, 2) in pool._inflight
        assert claims(pool, range(2, 3)) == []
        process.interrupt(cause="killed mid-read")
        rig.sim.run(until=rig.sim.now + 1e6)
        assert claims(pool, range(2, 3)) == [(1, 2)]

    def test_a_hole_ends_the_remembered_prefix(self, rig):
        pool, data = make_pool(rig, capacity=8)
        data.discard(2)
        rig.run(pool.get_page(1, 0))
        rig.run(pool.get_page(1, 1))
        assert claims(pool, range(0, 4)) == [(1, 3)]
        data.install(Page.build(1, 2, [(2, "late")]))  # filled behind the pool's back
        assert claims(pool, range(0, 4)) == [(1, 2)]


PAGE_NOS = st.integers(min_value=0, max_value=63)
DISTURBANCES = st.one_of(
    st.tuples(st.just("get"), PAGE_NOS),
    st.tuples(st.just("update"), PAGE_NOS),
    st.tuples(st.just("put"), PAGE_NOS),  # evicts without any read landing
    st.tuples(st.just("advance"), st.sampled_from([5.0, 200.0, 5e3, 2e5])),
    # Holes opened and filled behind the pool's back, reads in flight or not.
    st.tuples(st.just("discard"), PAGE_NOS),
    st.tuples(st.just("install"), PAGE_NOS),
    st.tuples(st.just("drop"), st.just(0)),
)
#: A scan: before each leaf something may disturb the pool, then the
#: read-ahead window slides — by one page mostly, sometimes it jumps.
SCAN_STEPS = st.lists(
    st.tuples(st.lists(DISTURBANCES, max_size=2), st.sampled_from([1, 1, 1, 1, 0, 2, -5, 23])),
    max_size=40,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=SCAN_STEPS, window=st.integers(min_value=1, max_value=24),
    capacity=st.sampled_from([4, 12, 48]),
)
def test_prefetch_memo_claims_what_the_unmemoised_filter_would(steps, window, capacity):
    """Property: under interleaved demand reads, evictions, dirty
    write-back, pool drops and pages vanishing or appearing in the file,
    the memoised window filter claims exactly what the full filter would."""
    from repro.engine.errors import PageNotFound
    from tests.engine.conftest import EngineRig

    def quietly(access):
        try:
            yield from access
        except PageNotFound:  # a hole, while it is one
            pass

    rig = EngineRig()
    pool, data = make_pool(rig, capacity=capacity)
    disturb = {
        "get": lambda n: rig.sim.spawn(quietly(pool.get_page(1, n))),
        "update": lambda n: rig.sim.spawn(quietly(update(pool, n, lambda page: None))),
        "put": lambda n: rig.sim.spawn(pool.put_page(Page.build(1, n, [(n, "new")]), dirty=True)),
        "advance": lambda us: rig.sim.run(until=rig.sim.now + us),
        "discard": data.discard,
        "install": lambda n: data.install(Page.build(1, n, [(n, "late")])),
        "drop": lambda _: pool.drop_all(),
    }
    start = 0
    for disturbances, slide in steps:
        for op, arg in disturbances:
            disturb[op](arg)
        start = max(0, min(70, start + slide))  # the file ends at page 63
        ahead = range(start, start + window)
        expected = unmemoised_claims(pool, 1, ahead)
        assert claims(pool, ahead) == expected


#: Counting updates: a worker fetches a page, waits (a log flush, say),
#: then bumps the page's counter through ``modify``.
BUMP_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("bump"), st.integers(0, 7), st.sampled_from([0.0, 3.0, 40.0, 3e3])),
        st.tuples(st.just("get"), st.integers(0, 15), st.just(0.0)),
        st.tuples(st.just("advance"), st.just(0), st.sampled_from([1.0, 15.0, 300.0, 6e3])),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    steps=BUMP_STEPS, capacity=st.sampled_from([2, 3, 5]),
    ext_pages=st.sampled_from([1, 3, 16]), lazy_writers=st.sampled_from([1, 4]),
    device=st.sampled_from(["hdd", "ssd"]),
)
@example(  # two writers' handles evicted across their waits
    steps=[("bump", 0, 3.0), ("bump", 3, 3.0), ("bump", 1, 0.0)],
    capacity=2, ext_pages=1, lazy_writers=1, device="ssd",
)
def test_counting_updates_are_conserved(steps, capacity, ext_pages, lazy_writers, device):
    """Property: whatever the schedule of fetches, waits, bumps, evictions,
    write-behinds and extension parks, the newest images add up to the
    bumps applied — read back through the pool, and in the file after a
    checkpoint."""
    from tests.engine.conftest import EngineRig

    rig = EngineRig()
    remote_file = rig.make_remote_file("bpext", ext_pages * 8192)
    store = RemotePageFile(50, remote_file, capacity_pages=ext_pages)
    pool = BufferPool(
        rig.db, capacity_pages=capacity, lazy_writers=lazy_writers,
        extension=BufferPoolExtension([Tier("bpext", store)]),
    )
    data = DevicePageFile(1, rig.db, getattr(rig, device))
    data.preload([Page.build(1, n, [(n, 0)]) for n in range(16)])
    pool.register_file(data)
    applied = 0

    def bump(page):
        nonlocal applied
        page.rows[0] = (page.rows[0][0], page.rows[0][1] + 1)
        applied += 1

    def worker(page_no, wait):
        page = yield from pool.get_page(1, page_no)
        if wait:
            yield rig.sim.timeout(wait)
        yield from pool.modify(page, bump)

    for op, page_no, us in steps:
        if op == "bump":
            rig.sim.spawn(worker(page_no, us))
        elif op == "get":
            rig.sim.spawn(pool.get_page(1, page_no))
        else:
            rig.sim.run(until=rig.sim.now + us)
    rig.sim.run(until=rig.sim.now + 1e6)
    assert sum(rig.run(pool.get_page(1, n)).rows[0][1] for n in range(16)) == applied
    rig.run(pool.flush_all())
    assert sum(data.peek(n).rows[0][1] for n in range(16)) == applied


class TestExtensionFaultHooks:
    """The BPExt side of the fault-injection surface."""

    def make_remote_ext_pool(self, rig, capacity=4, ext_pages=16):
        remote_file = rig.make_remote_file("bpext-faults", ext_pages * 8192)
        store = RemotePageFile(50, remote_file)
        pool, data = make_pool(rig, capacity=capacity, extension_store=store)
        return pool, data, store

    def test_on_failure_frees_slot_for_reuse(self, rig):
        """A failed slot goes back on the free list instead of leaking."""
        pool, _data, _store = self.make_remote_ext_pool(rig)
        ext = pool.extension
        for n in range(5):  # park page 0
            rig.run(pool.get_page(1, n))
        assert ext.contains((1, 0))
        slot = ext.levels[0].slots[(1, 0)]
        free_before = len(ext.levels[0].free)
        ext._on_failure(ext.levels[0], (1, 0), slot)
        assert not ext.contains((1, 0))
        assert slot in ext.levels[0].free
        assert len(ext.levels[0].free) == free_before + 1
        assert ext.failures == 1

    def test_on_failure_is_idempotent_per_slot(self, rig):
        """Two concurrent accesses can both observe the same failure;
        the slot must not be double-freed."""
        pool, _data, _store = self.make_remote_ext_pool(rig)
        ext = pool.extension
        for n in range(5):
            rig.run(pool.get_page(1, n))
        slot = ext.levels[0].slots[(1, 0)]
        ext._on_failure(ext.levels[0], (1, 0), slot)
        ext._on_failure(ext.levels[0], (1, 0), slot)  # second observer of the same loss
        assert ext.levels[0].free.count(slot) == 1

    def test_failed_page_refaults_from_base_and_reparks(self, rig):
        """Satellite fix: after a remote failure the page re-faults from
        the base file, and the freed slot is reusable for a re-park."""
        pool, data, _store = self.make_remote_ext_pool(rig, capacity=4, ext_pages=4)
        ext = pool.extension
        for n in range(5):
            rig.run(pool.get_page(1, n))
        assert ext.contains((1, 0))
        # Remote memory vanishes (lease expiry).
        rig.sim.run(until=rig.sim.now + rig.broker.lease_duration_us + 1)
        base_reads = data.page_reads
        page = rig.run(pool.get_page(1, 0))
        assert page.rows == [(0, "row0")]
        assert data.page_reads == base_reads + 1
        # Every dead slot was reclaimed, none leaked.
        dead = ext.failures
        assert dead >= 1
        assert len(ext.levels[0].free) + len(ext.levels[0].slots) == ext.capacity_pages

    def test_refault_log_observes_access_time_failures(self, rig):
        pool, _data, _store = self.make_remote_ext_pool(rig)
        seen = []
        rig.sim.observers.append(
            lambda _now, kind, fields: kind == "bpext.refault" and seen.append(fields["page_id"])
        )
        for n in range(5):
            rig.run(pool.get_page(1, n))
        rig.sim.run(until=rig.sim.now + rig.broker.lease_duration_us + 1)
        rig.run(pool.get_page(1, 0))
        assert (1, 0) in seen

    def test_read_outlived_by_its_lease_is_a_failure(self, rig):
        """A read posted while the lease was valid lands after the expiry
        emptied the region.  The object read aborts, the store raises
        RemoteMemoryUnavailable rather than the plain miss of a slot
        dropped mid-read, and the extension counts a failure."""
        pool, data, store = self.make_remote_ext_pool(rig)
        ext = pool.extension
        failed = []
        rig.sim.observers.append(
            lambda _now, kind, fields: kind == "bpext.refault" and failed.append(fields["page_id"])
        )
        for n in range(5):
            rig.run(pool.get_page(1, n))
        rig.sim.run(until=rig.sim.now + 1e3)  # page 0's write-behind lands
        slot = ext.levels[0].slots[(1, 0)]
        reader = rig.sim.spawn(pool.get_page(1, 0))
        rig.sim.run(until=rig.sim.now + 2.0)
        assert (1, 0) in pool._inflight  # the RDMA read is on its way
        assert rig.broker.force_expire(rig.broker.leases_for(holder="db"))
        base_reads = data.page_reads
        page = rig.sim.run_until_complete(reader)
        assert page.rows == [(0, "row0")]  # served from the data file
        assert data.page_reads == base_reads + 1
        # The read's failure comes first; parking the page it evicted
        # from the pool then fails on the dead lease too.
        assert failed[0] == (1, 0) and ext.failures == len(failed)
        assert pool.ext_hits == 0
        assert not store.contains(slot) and slot in ext.levels[0].free

    def test_on_fault_sweeps_provider_slots(self, rig):
        pool, _data, _store = self.make_remote_ext_pool(rig)
        ext = pool.extension
        for n in range(6):
            rig.run(pool.get_page(1, n))
        parked = len(ext.levels[0].slots)
        assert parked >= 1
        # A provider the store does not use loses nothing...
        assert ext.on_fault(provider="mem-elsewhere") == []
        assert len(ext.levels[0].slots) == parked
        # ...the real provider loses everything it backs.
        lost = ext.on_fault(provider="mem0")
        assert len(lost) == parked
        assert len(ext.levels[0].slots) == 0
        assert ext.pages_lost_to_faults == parked
        assert len(ext.levels[0].free) == ext.capacity_pages

    def test_on_fault_without_provider_sweeps_everything(self, rig):
        pool, _data, _store = self.make_remote_ext_pool(rig)
        ext = pool.extension
        for n in range(6):
            rig.run(pool.get_page(1, n))
        parked = len(ext.levels[0].slots)
        lost = ext.on_fault()
        assert len(lost) == parked and not ext.levels[0].slots

    def test_replace_store_resets_and_rewarms(self, rig):
        pool, _data, _store = self.make_remote_ext_pool(rig, ext_pages=16)
        ext = pool.extension
        for n in range(5):
            rig.run(pool.get_page(1, n))
        assert ext.levels[0].slots
        new_file = rig.make_remote_file("bpext-faults-2", 16 * 8192)
        new_store = RemotePageFile(50, new_file, capacity_pages=16)
        ext.replace_store(ext.levels[0], new_store)
        assert ext.levels[0].store is new_store
        assert not ext.levels[0].slots and len(ext.levels[0].free) == 16
        assert ext.enabled
        # The extension re-warms through normal eviction traffic.
        for n in range(8, 13):
            rig.run(pool.get_page(1, n))
        assert ext.levels[0].slots  # fresh pages parked in the new store


class TestFaultCompletion:
    """A fault's in-flight event fires only for someone who waits on it."""

    def test_a_fault_nobody_waits_on_retires_no_completion_event(self, rig):
        pool, _data = make_pool(rig)
        sim = rig.sim
        seen = {}

        def probe():
            yield sim.timeout(100)  # mid-fault: look, do not wait
            seen["done"] = pool._inflight[(1, 7)]

        sim.spawn(probe())
        rig.run(pool.get_page(1, 7))
        assert (1, 7) not in pool._inflight
        assert not seen["done"].triggered  # no now-queue slot was taken for it

    def test_a_peer_waiting_on_the_fault_wakes_in_its_instant(self, rig):
        pool, _data = make_pool(rig)
        sim = rig.sim
        log = []

        def faulting():
            yield from pool.get_page(1, 7)
            log.append(("faulted", sim.now))
            yield sim.timeout(0)  # the faulting process's next wake-up
            log.append(("continued", sim.now))

        def peer():
            yield sim.timeout(100)
            assert (1, 7) in pool._inflight
            yield from pool.get_page(1, 7)
            log.append(("peer", sim.now))

        sim.spawn(faulting())
        sim.spawn(peer())
        sim.run()
        landed = log[0][1]
        assert log == [("faulted", landed), ("peer", landed), ("continued", landed)]
        assert (pool.misses, pool.hits) == (1, 1)


def test_kernel_events_per_pool_miss_stay_within_budget():
    """``benchmarks/test_design_parity.py``'s Custom/analytic case: 196
    pool misses, each an RDMA read from the extension, and 2 165 kernel
    events retired in all (set-up included).  A slot that creeps back onto
    the page path — a grant thunk for a duration, a verb's bootstrap or
    completion slot, a fault's unobserved completion — raises the ratio."""
    from repro.harness import Design, build_database, prewarm_extension
    from repro.harness.dbbench import prewarm_pool
    from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

    setup = build_database(
        Design.CUSTOM, bp_pages=192, bpext_pages=1200, tempdb_pages=1024,
        data_spindles=8, analytic=True, seed=11,
    )
    table = build_customer_table(setup.database, 24_000)
    prewarm_extension(setup)
    prewarm_pool(setup)
    config = RangeScanConfig(
        n_rows=24_000, workers=16, queries_per_worker=4, update_fraction=0.0, seed=7
    )
    run_rangescan(setup.database, table, config, rng=setup.cluster.rng.stream("parity"))
    pool = setup.database.pool
    assert (pool.misses, pool.ext_hits) == (196, 196)
    assert setup.sim.events_processed / pool.misses <= 2165 / 196  # 11.05; 15.49 before
