"""Tests for the buffer pool, eviction, lazy writer and BPExt."""

import pytest
from hypothesis import HealthCheck, given, settings
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

        rig.run(pool.update_page(1, 0, bump))
        page = rig.run(pool.get_page(1, 0))
        assert page.rows[0] == (0, "updated")

    def test_dirty_eviction_flushes_to_file_in_background(self, rig):
        pool, data = make_pool(rig, capacity=4)

        def bump(page):
            page.rows[0] = (0, "updated")

        rig.run(pool.update_page(1, 0, bump))
        for n in range(1, 6):  # push page 0 out
            rig.run(pool.get_page(1, n))
        rig.sim.run(until=rig.sim.now + 1e6)  # let the lazy writer drain
        assert data._pages[0].rows[0] == (0, "updated")

    def test_read_during_pending_write_sees_new_data(self, rig):
        pool, _data = make_pool(rig, capacity=4)

        def bump(page):
            page.rows[0] = (0, "updated")

        rig.run(pool.update_page(1, 0, bump))
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
            rig.run(pool.update_page(1, n, bump))
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

        rig.run(pool.update_page(1, 0, bump))
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
        rig.run(pool.update_page(1, 0, lambda page: None))
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
        "update": lambda n: rig.sim.spawn(quietly(pool.update_page(1, n, lambda page: None))),
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

    def test_fault_listeners_observe_access_time_failures(self, rig):
        pool, _data, _store = self.make_remote_ext_pool(rig)
        ext = pool.extension
        seen = []
        ext.fault_listeners.append(seen.append)
        for n in range(5):
            rig.run(pool.get_page(1, n))
        rig.sim.run(until=rig.sim.now + rig.broker.lease_duration_us + 1)
        rig.run(pool.get_page(1, 0))
        assert (1, 0) in seen

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
