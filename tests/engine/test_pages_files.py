"""Tests for pages and the three page-store media."""

import pytest

from repro.engine.errors import PageNotFound
from repro.engine.files import DevicePageFile, RemotePageFile
from repro.engine.page import PAGE_SIZE, Page, PageKind, rows_per_page
from repro.storage import MB


class TestPage:
    def test_rows_per_page_for_customer_width(self):
        # ~245-byte rows (paper's Customer table): ~33 rows fit.
        assert 30 <= rows_per_page(245) <= 35

    def test_rows_per_page_validation(self):
        with pytest.raises(ValueError):
            rows_per_page(0)

    def test_copy_isolates_row_list(self):
        page = Page.build(1, 0, [(1, "a"), (2, "b")])
        snapshot = page.copy()
        page.rows.append((3, "c"))
        assert len(snapshot.rows) == 2
        assert snapshot.page_id == page.page_id

    def test_copy_isolates_meta_lists(self):
        page = Page(page_id=(1, 0), kind=PageKind.BTREE_INTERNAL,
                    meta={"keys": [5], "children": [1, 2]})
        snapshot = page.copy()
        page.meta["children"].append(3)
        assert snapshot.meta["children"] == [1, 2]


class TestDevicePageFile:
    def test_write_read_roundtrip(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd)
        page = Page.build(1, 5, [(1, "row")])
        rig.run(store.write_page(page))
        got = rig.run(store.read_page(5))
        assert got.rows == [(1, "row")]
        assert got is not page  # snapshot isolation

    def test_disk_image_isolated_from_mutation(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd)
        page = Page.build(1, 5, [(1, "row")])
        rig.run(store.write_page(page))
        page.rows.append((2, "later"))  # mutate after write
        assert rig.run(store.read_page(5)).rows == [(1, "row")]

    def test_missing_page_raises(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd)
        with pytest.raises(PageNotFound):
            rig.run(store.read_page(0))

    def test_capacity_enforced(self, rig):
        store = DevicePageFile(1, rig.db, rig.ssd, capacity_pages=10)
        with pytest.raises(PageNotFound):
            rig.run(store.write_page(Page.build(1, 10, [])))

    def test_hdd_read_is_slow_ssd_class_faster(self, rig):
        hdd_store = DevicePageFile(1, rig.db, rig.hdd)
        ssd_store = DevicePageFile(2, rig.db, rig.ssd)
        hdd_store.preload([Page.build(1, 0, [(1,)])])
        rig.run(ssd_store.write_page(Page.build(2, 0, [(1,)])))
        start = rig.sim.now
        rig.run(hdd_store.read_page(0))
        hdd_latency = rig.sim.now - start
        start = rig.sim.now
        rig.run(ssd_store.read_page(0))
        ssd_latency = rig.sim.now - start
        assert hdd_latency > 5 * ssd_latency

    def test_preload_requires_no_time(self, rig):
        store = DevicePageFile(1, rig.db, rig.hdd)
        before = rig.sim.now
        store.preload([Page.build(1, n, [(n,)]) for n in range(100)])
        assert rig.sim.now == before
        assert store.contains(99)


class TestRemotePageFile:
    def test_roundtrip_via_rdma(self, rig):
        remote = rig.make_remote_file("ext", 64 * MB)
        store = RemotePageFile(9, remote)
        page = Page.build(9, 3, [(7, "remote")])
        rig.run(store.write_page(page))
        got = rig.run(store.read_page(3))
        assert got.rows == [(7, "remote")]

    def test_capacity_from_file_size(self, rig):
        remote = rig.make_remote_file("ext", 64 * MB)
        store = RemotePageFile(9, remote)
        assert store.capacity_pages == 64 * MB // PAGE_SIZE

    def test_remote_read_latency_is_rdma_class(self, rig):
        remote = rig.make_remote_file("ext", 64 * MB)
        store = RemotePageFile(9, remote)
        rig.run(store.write_page(Page.build(9, 0, [(1,)])))
        start = rig.sim.now
        rig.run(store.read_page(0))
        assert rig.sim.now - start < 30

    def test_lease_loss_surfaces_unavailable(self, rig):
        from repro.remotefile import RemoteMemoryUnavailable

        remote = rig.make_remote_file("ext", 16 * MB)
        store = RemotePageFile(9, remote)
        rig.run(store.write_page(Page.build(9, 0, [(1,)])))
        rig.sim.run(until=rig.sim.now + rig.broker.lease_duration_us + 1)
        with pytest.raises(RemoteMemoryUnavailable):
            rig.run(store.read_page(0))


class TestSmbPageFile:
    """A RamDrive behind SMB is mounted as an ordinary data file: a
    linear :class:`DevicePageFile` over the client, itself a device."""

    def test_roundtrip_via_smb(self, rig):
        from repro.net import SmbDirectClient, SmbFileServer
        from repro.storage import RamDrive

        drive = rig.mem.attach_device("ramdrive", RamDrive(rig.sim))
        file_server = SmbFileServer(rig.mem, drive)
        client = SmbDirectClient(rig.db, file_server)
        store = DevicePageFile(33, rig.db, client, capacity_pages=64, chunk_pages=None)
        page = Page.build(33, 5, [(1, "via smb")])
        rig.run(store.write_page(page))
        got = rig.run(store.read_page(5))
        assert got.rows == [(1, "via smb")]
        assert (client.writes, client.reads) == (1, 1)

    def test_batch_roundtrip(self, rig):
        from repro.net import SmbClient, SmbFileServer
        from repro.storage import RamDrive

        drive = rig.mem.attach_device("ramdrive2", RamDrive(rig.sim))
        file_server = SmbFileServer(rig.mem, drive)
        client = SmbClient(rig.db, file_server)
        store = DevicePageFile(34, rig.db, client, capacity_pages=64, chunk_pages=None)
        pages = [Page.build(34, n, [(n,)]) for n in range(8)]
        rig.run(store.write_batch(0, pages))
        back = rig.run(store.read_batch(0, 8))
        assert [p.rows for p in back] == [[(n,)] for n in range(8)]
        # One I/O each way, of the whole extent.
        assert (client.bytes_written, client.bytes_read) == (8 * PAGE_SIZE, 8 * PAGE_SIZE)
