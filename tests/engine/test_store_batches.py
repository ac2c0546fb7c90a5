"""Batch I/O, priming API and provider behavior of the page stores.

The batch paths (TempDB spills, priming sweeps) and the public priming
surface (``install``/``iter_pages``/``peek``/``slot_provider``) are
exercised per medium: a local device, remote memory over RDMA, and a
RamDrive behind SMB.
"""

import pytest

from repro.engine.bufferpool import BufferPoolExtension
from repro.tiers import Tier
from repro.engine.errors import PageNotFound
from repro.engine.files import DevicePageFile, PageStore, RemotePageFile
from repro.engine.page import PAGE_SIZE, Page
from repro.reliability import ReliabilityLayer, ReliabilityPolicy
from repro.storage import MB


def make_pages(file_id, start, count):
    return [Page.build(file_id, start + n, [(start + n, "row")]) for n in range(count)]


def make_smb_store(rig, capacity=64):
    from repro.net import SmbDirectClient, SmbFileServer
    from repro.storage import RamDrive

    drive = rig.mem.attach_device("ramdrive", RamDrive(rig.sim))
    file_server = SmbFileServer(rig.mem, drive)
    return DevicePageFile(
        33, rig.db, SmbDirectClient(rig.db, file_server),
        capacity_pages=capacity, chunk_pages=None,
    )


class TestDeviceBatches:
    def test_write_batch_is_one_device_io(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd)
        writes_before = rig.ssd.writes
        rig.run(store.write_batch(0, make_pages(1, 0, 8)))
        assert rig.ssd.writes == writes_before + 1
        assert store.page_writes == 8
        back = rig.run(store.read_batch(0, 8))
        assert [p.rows for p in back] == [[(n, "row")] for n in range(8)]

    def test_batch_across_chunk_boundary(self, rig):
        # CHUNK_PAGES = 256: the extent straddles two scattered chunks
        # but stays one logical write, and every page reads back.
        store = DevicePageFile(1, rig.db, rig.ssd)
        start = DevicePageFile.CHUNK_PAGES - 4
        rig.run(store.write_batch(start, make_pages(1, start, 8)))
        back = rig.run(store.read_batch(start, 8))
        assert len(back) == 8
        single = rig.run(store.read_page(start + 6))  # past the boundary
        assert single.rows == [(start + 6, "row")]

    def test_read_batch_skips_missing_slots(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd)
        rig.run(store.write_page(Page.build(1, 0, [(0,)])))
        rig.run(store.write_page(Page.build(1, 2, [(2,)])))
        back = rig.run(store.read_batch(0, 3))
        assert [p.page_no for p in back] == [0, 2]

    def test_batch_capacity_enforced(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd, capacity_pages=8)
        with pytest.raises(PageNotFound):
            rig.run(store.write_batch(4, make_pages(1, 4, 8)))
        with pytest.raises(PageNotFound):
            rig.run(store.read_batch(4, 8))

    def test_discard_is_untimed_invalidation(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd)
        rig.run(store.write_page(Page.build(1, 3, [(3,)])))
        before = rig.sim.now
        store.discard(3)
        assert rig.sim.now == before
        assert not store.contains(3)
        with pytest.raises(PageNotFound):
            rig.run(store.read_page(3))


class TestRemoteBatches:
    def make_store(self, rig, size=64 * MB):
        return RemotePageFile(9, rig.make_remote_file("ext", size))

    def test_batch_roundtrip_one_extent(self, rig):
        store = self.make_store(rig)
        rig.run(store.write_batch(0, make_pages(9, 0, 8)))
        back = rig.run(store.read_batch(0, 8))
        assert [p.rows for p in back] == [[(n, "row")] for n in range(8)]

    def test_read_window_ending_inside_batch(self, rig):
        store = self.make_store(rig)
        rig.run(store.write_batch(0, make_pages(9, 0, 8)))
        back = rig.run(store.read_batch(0, 5))
        assert [p.page_no for p in back] == [0, 1, 2, 3, 4]

    def test_read_spans_batch_then_single_pages(self, rig):
        store = self.make_store(rig)
        rig.run(store.write_batch(0, make_pages(9, 0, 4)))
        for page in make_pages(9, 4, 2):
            rig.run(store.write_page(page))
        back = rig.run(store.read_batch(0, 6))
        assert [p.page_no for p in back] == [0, 1, 2, 3, 4, 5]

    def test_batch_straddling_memory_region_falls_back(self, rig):
        # The rig's proxy offers 16 MB regions: an extent across the
        # boundary cannot be one RDMA write, so the store degrades to
        # page-by-page — observable because *inner* slots then serve
        # single-page reads (a whole extent would not).
        store = self.make_store(rig)
        boundary = 16 * MB // PAGE_SIZE
        start = boundary - 2
        rig.run(store.write_batch(start, make_pages(9, start, 4)))
        for n in range(4):
            page = rig.run(store.read_page(start + n))
            assert page.page_no == start + n

    def test_discard_stops_serving_slot(self, rig):
        store = self.make_store(rig)
        rig.run(store.write_batch(0, make_pages(9, 0, 4)))
        store.discard(0)
        assert not store.contains(0)
        with pytest.raises(PageNotFound):
            rig.run(store.read_page(0))
        # Rewriting the slot re-establishes it as a single page.
        rig.run(store.write_page(Page.build(9, 0, [(0, "new")])))
        assert rig.run(store.read_page(0)).rows == [(0, "new")]


class TestSmbBatches:
    def test_read_batch_skips_missing_slots(self, rig):
        store = make_smb_store(rig)
        rig.run(store.write_page(Page.build(33, 1, [(1,)])))
        rig.run(store.write_page(Page.build(33, 3, [(3,)])))
        back = rig.run(store.read_batch(0, 4))
        assert [p.page_no for p in back] == [1, 3]

    def test_discard_and_capacity(self, rig):
        store = make_smb_store(rig, capacity=8)
        rig.run(store.write_page(Page.build(33, 2, [(2,)])))
        store.discard(2)
        assert not store.contains(2)
        with pytest.raises(PageNotFound):
            rig.run(store.write_batch(6, make_pages(33, 6, 4)))


class TestPrimingApi:
    """install/iter_pages/peek: the public untimed surface (no ``_pages``)."""

    def test_install_iter_peek_on_local_media(self, rig):
        for store in (
            DevicePageFile(1, rig.db, rig.ssd),
            make_smb_store(rig),
        ):
            before = rig.sim.now
            for page in make_pages(store.file_id, 0, 4):
                store.install(page)
            assert rig.sim.now == before
            assert sorted(slot for slot, _ in store.iter_pages()) == [0, 1, 2, 3]
            assert store.peek(2).page_no == 2
            with pytest.raises(PageNotFound):
                store.peek(9)

    def test_remote_install_is_untimed_and_readable(self, rig):
        store = RemotePageFile(9, rig.make_remote_file("ext", 16 * MB))
        before = rig.sim.now
        store.install(Page.build(9, 5, [(5, "primed")]))
        assert rig.sim.now == before
        assert store.contains(5)
        assert rig.run(store.read_page(5)).rows == [(5, "primed")]
        # Remote memory cannot enumerate its contents cheaply.
        assert list(store.iter_pages()) == []

    def test_slot_provider_names_the_memory_server(self, rig):
        store = RemotePageFile(9, rig.make_remote_file("ext", 16 * MB))
        assert store.slot_provider(0) == "mem0"
        assert DevicePageFile(1, rig.db, rig.ssd).slot_provider(0) is None
        assert make_smb_store(rig).slot_provider(0) is None

    def test_base_class_defaults(self, rig):
        class MinimalStore(PageStore):
            def read_page(self, slot, background=False):
                yield from ()

            def write_page(self, page, slot=None, background=False, on_abort=None):
                written.append((page.page_no, slot, background))
                yield from ()

            def contains(self, slot):
                return False

            def discard(self, slot):
                pass

        written = []
        store = MinimalStore(7)
        assert list(store.iter_pages()) == []
        assert store.slot_provider(0) is None
        with pytest.raises(NotImplementedError):
            store.install(Page.build(7, 0, []))
        with pytest.raises(PageNotFound):
            store.peek(0)
        # write_scattered defaults to one foreground write per page, in
        # the given order (no elevator sort), each at its page_no.
        pages = [Page.build(7, page_no, []) for page_no in (5, 2, 9)]
        rig.run(store.write_scattered(pages))
        assert written == [(5, None, False), (2, None, False), (9, None, False)]


class TestProviderQuarantine:
    """Breaker routing keys on ``slot_provider``: remote slots are
    skipped while their provider is quarantined; provider-less media
    never are; fault sweeps invalidate conservatively."""

    POLICY = ReliabilityPolicy(breaker_failure_threshold=3, breaker_open_us=10_000.0)

    def make_ext(self, rig, store):
        ext = BufferPoolExtension([Tier("bpext", store)])
        ext.reliability = ReliabilityLayer(
            rig.sim, rig.cluster.rng.stream("rel"), self.POLICY
        )
        return ext

    def park(self, rig, ext, file_id, count=3):
        for page in make_pages(file_id, 0, count):
            rig.run(ext.put(page))

    def trip(self, ext, provider="mem0"):
        for _ in range(self.POLICY.breaker_failure_threshold):
            ext.reliability.breakers.record_failure(provider)

    def test_quarantined_provider_is_skipped_then_recovers(self, rig):
        store = RemotePageFile(9, rig.make_remote_file("ext", 16 * MB))
        ext = self.make_ext(rig, store)
        self.park(rig, ext, 9)
        self.trip(ext)
        with pytest.raises(PageNotFound):
            rig.run(ext.get((9, 0)))
        assert ext.quarantine_skips == 1
        assert ext.contains((9, 0))  # mapping kept: the image is intact
        # The parked image survives the quarantine window.
        rig.sim.run(until=rig.sim.now + self.POLICY.breaker_open_us + 1)
        assert rig.run(ext.get((9, 0))).page_no == 0

    def test_local_store_ignores_quarantine(self, rig):
        store = DevicePageFile(50, rig.db, rig.ssd, capacity_pages=16)
        ext = self.make_ext(rig, store)
        self.park(rig, ext, 50)
        self.trip(ext)  # some remote provider elsewhere is quarantined
        assert rig.run(ext.get((50, 0))).page_no == 0
        assert ext.quarantine_skips == 0

    def test_fault_sweep_matches_provider_on_remote(self, rig):
        store = RemotePageFile(9, rig.make_remote_file("ext", 16 * MB))
        ext = self.make_ext(rig, store)
        self.park(rig, ext, 9)
        assert ext.on_fault(provider="somewhere-else") == []
        lost = ext.on_fault(provider="mem0")
        assert len(lost) == 3
        assert ext.pages_lost_to_faults == 3

    def test_fault_sweep_is_conservative_without_providers(self, rig):
        # A store that cannot name providers invalidates everything on
        # a provider-targeted sweep: correctness over retention.
        store = DevicePageFile(50, rig.db, rig.ssd, capacity_pages=16)
        ext = self.make_ext(rig, store)
        self.park(rig, ext, 50)
        lost = ext.on_fault(provider="mem0")
        assert len(lost) == 3
