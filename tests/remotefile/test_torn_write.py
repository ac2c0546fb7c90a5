"""Torn multi-segment writes report the partially-written range.

Only a timing-only write may span several leases (an object extent
lives in one region), and it is not atomic.  When a later segment fails
after an earlier one landed, the caller learns exactly which prefix
went out.
"""

import pytest

from repro.remotefile import RemoteMemoryUnavailable, TornWrite
from repro.storage import KB, MB

from .test_remotefile import complete, create_open, make_fs

BOUNDARY = 16 * MB  # mr_bytes in make_fs: leases are 16 MB each


def make_spanning_file():
    cluster, fs, broker, proxies = make_fs(memory_servers=2)
    file = create_open(cluster, fs, size=32 * MB, spread=True)
    assert len(file.leases) >= 2
    assert file.leases[0].provider != file.leases[1].provider
    return cluster, file


def expire(cluster, lease):
    lease.expires_at_us = cluster.sim.now - 1.0


class TestTornWrite:
    def test_second_segment_failure_reports_written_prefix(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 32 * KB
        expire(cluster, file.leases[1])

        with pytest.raises(TornWrite) as excinfo:
            complete(cluster.sim, file.write_nodata(offset, 64 * KB))
        torn = excinfo.value
        assert torn.written_range == (offset, offset + 32 * KB)
        assert torn.intended == 64 * KB
        assert isinstance(torn, RemoteMemoryUnavailable)
        assert isinstance(torn.__cause__, RemoteMemoryUnavailable)
        # The reported prefix really went out: one write on the first lease.
        assert file._qps[file.leases[0].provider].writes == 1

    def test_first_segment_failure_is_not_torn(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 32 * KB
        expire(cluster, file.leases[0])

        with pytest.raises(RemoteMemoryUnavailable) as excinfo:
            complete(cluster.sim, file.write_nodata(offset, 64 * KB))
        assert not isinstance(excinfo.value, TornWrite)

    def test_single_segment_failure_is_not_torn(self):
        cluster, file = make_spanning_file()
        expire(cluster, file.leases[1])

        with pytest.raises(RemoteMemoryUnavailable) as excinfo:
            complete(cluster.sim, file.write(BOUNDARY + 1 * MB, 8 * KB, "page"))
        assert not isinstance(excinfo.value, TornWrite)

    def test_nodata_write_reports_torn_range_too(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 8 * KB
        expire(cluster, file.leases[1])

        with pytest.raises(TornWrite) as excinfo:
            complete(cluster.sim, file.write_nodata(offset, 16 * KB))
        assert excinfo.value.written_range == (offset, offset + 8 * KB)

    def test_healthy_spanning_write_roundtrips(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 32 * KB
        complete(cluster.sim, file.write_nodata(offset, 64 * KB))
        complete(cluster.sim, file.read_nodata(offset, 64 * KB))
        for lease in file.leases[:2]:
            qp = file._qps[lease.provider]
            assert (qp.writes, qp.reads) == (1, 1)
