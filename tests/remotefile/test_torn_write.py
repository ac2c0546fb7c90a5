"""A write spanning leases is not atomic.

Only a timing-only write may span several leases (an object extent
lives in one region).  When a later segment fails after an earlier one
landed, the failing segment's own error surfaces; nothing undoes the
segments already written.
"""

import pytest

from repro.remotefile import RemoteMemoryUnavailable
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


def writes(file, lease):
    return file._qps[lease.provider].writes


class TestTornWrite:
    def test_spanning_write_is_not_atomic(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 32 * KB
        expire(cluster, file.leases[1])

        with pytest.raises(RemoteMemoryUnavailable):
            complete(cluster.sim, file.write_nodata(offset, 64 * KB))
        # The first lease took its write, then the error surfaced.
        assert writes(file, file.leases[0]) == 1
        assert writes(file, file.leases[1]) == 0

    def test_first_segment_failure_is_not_torn(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 32 * KB
        expire(cluster, file.leases[0])

        with pytest.raises(RemoteMemoryUnavailable):
            complete(cluster.sim, file.write_nodata(offset, 64 * KB))
        assert writes(file, file.leases[0]) == writes(file, file.leases[1]) == 0

    def test_single_segment_failure_is_not_torn(self):
        cluster, file = make_spanning_file()
        expire(cluster, file.leases[1])

        with pytest.raises(RemoteMemoryUnavailable):
            complete(cluster.sim, file.write(BOUNDARY + 1 * MB, 8 * KB, "page"))

    def test_spanning_write_raises_the_failing_segments_own_error(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 8 * KB
        lease = file.leases[1]
        expire(cluster, lease)

        with pytest.raises(RemoteMemoryUnavailable) as excinfo:
            complete(cluster.sim, file.write_nodata(offset, 16 * KB))
        assert type(excinfo.value) is RemoteMemoryUnavailable
        assert f"lease {lease.lease_id} on {lease.provider}" in str(excinfo.value)
        assert file.writes == 0  # the call as a whole did not complete

    def test_healthy_spanning_write_roundtrips(self):
        cluster, file = make_spanning_file()
        offset = BOUNDARY - 32 * KB
        complete(cluster.sim, file.write_nodata(offset, 64 * KB))
        complete(cluster.sim, file.read_nodata(offset, 64 * KB))
        for lease in file.leases[:2]:
            qp = file._qps[lease.provider]
            assert (qp.writes, qp.reads) == (1, 1)
