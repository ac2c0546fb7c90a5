"""Property-based tests for the remote-memory file API."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.broker import MemoryBroker, MemoryProxy
from repro.cluster import Cluster
from repro.net import Network
from types import SimpleNamespace

import pytest

from repro.remotefile import RemoteFile, RemoteFileError, RemoteMemoryFilesystem, StagingPool
from repro.storage import GB, MB


def make_file(size_mb=48, mr_mb=16):
    cluster = Cluster()
    network = Network(cluster.sim)
    db = cluster.add_server("db")
    mem = cluster.add_server("mem0")
    network.attach(db)
    network.attach(mem)
    broker = MemoryBroker(cluster.sim)
    proxy = MemoryProxy(mem, broker, mr_bytes=mr_mb * MB)
    fs = RemoteMemoryFilesystem(db, broker, StagingPool(db))
    sim = cluster.sim

    def setup():
        yield from fs.initialize()
        yield from proxy.offer_available(limit_bytes=2 * GB)
        file = yield from fs.create("f", size_mb * MB)
        yield from file.open()
        return file

    return cluster, sim.run_until_complete(sim.spawn(setup()))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40 * MB),
            st.binary(min_size=1, max_size=4096),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_byte_fidelity_matches_reference_buffer(writes):
    """Property: the remote file behaves exactly like one big bytearray,
    including writes that straddle memory-region boundaries."""
    cluster, file = make_file()
    reference = bytearray(file.size)

    def run(generator):
        return cluster.sim.run_until_complete(cluster.sim.spawn(generator))

    for offset, payload in writes:
        run(file.write(offset, payload))
        reference[offset : offset + len(payload)] = payload
    for offset, payload in writes:
        data = run(file.read(offset, len(payload)))
        assert data == bytes(reference[offset : offset + len(payload)])


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    offset=st.integers(min_value=0, max_value=47 * MB),
    size=st.integers(min_value=1, max_value=1 * MB),
)
def test_locate_covers_exact_range(offset, size):
    """Property: offset translation tiles the request exactly, in order,
    within region bounds."""
    cluster, file = make_file()
    size = min(size, file.size - offset)
    segments = file._locate(offset, size)
    assert sum(length for _l, _o, length in segments) == size
    cursor = offset
    for lease, mr_offset, length in segments:
        assert 0 <= mr_offset < lease.region.size
        assert mr_offset + length <= lease.region.size
        cursor += length
    assert cursor == offset + size


def test_locate_bisects_mixed_size_leases():
    """Offset translation over leases of unequal sizes: both ends of
    every lease, a range spanning two, and the range check."""
    sizes = [3 * MB, 1 * MB, 5 * MB, 2 * MB]
    leases = [SimpleNamespace(region=SimpleNamespace(size=size)) for size in sizes]
    file = RemoteFile("mixed", owner=None, leases=leases, staging=None)
    start = 0
    for lease, size in zip(leases, sizes):
        assert file._locate(start, 1) == [(lease, 0, 1)]
        assert file._locate(start + size - 1, 1) == [(lease, size - 1, 1)]
        start += size
    # From the last 10 bytes of lease 1 through lease 2 into lease 3.
    assert file._locate(4 * MB - 10, 5 * MB + 20) == [
        (leases[1], 1 * MB - 10, 10),
        (leases[2], 0, 5 * MB),
        (leases[3], 0, 10),
    ]
    assert file._locate(file.size, 0) == []
    for offset, size in ((-1, 1), (file.size, 1), (file.size - 1, 2)):
        with pytest.raises(RemoteFileError, match="outside file"):
            file._locate(offset, size)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sizes=st.lists(st.integers(min_value=1 * MB, max_value=40 * MB),
                      min_size=1, max_size=4))
def test_broker_conservation(sizes):
    """Property: leased + available bytes is conserved through any
    sequence of create/delete."""
    cluster = Cluster()
    network = Network(cluster.sim)
    db = cluster.add_server("db")
    mem = cluster.add_server("mem0")
    network.attach(db)
    network.attach(mem)
    broker = MemoryBroker(cluster.sim)
    proxy = MemoryProxy(mem, broker, mr_bytes=16 * MB)
    fs = RemoteMemoryFilesystem(db, broker, StagingPool(db))
    sim = cluster.sim

    def run(generator):
        return sim.run_until_complete(sim.spawn(generator))

    def setup():
        yield from fs.initialize()
        yield from proxy.offer_available(limit_bytes=1 * GB)

    run(setup())
    total = broker.available_bytes()
    files = []
    for index, size in enumerate(sizes):
        try:
            file = run(fs.create(f"f{index}", size))
        except Exception:
            break
        files.append(file)
        leased = sum(f.size for f in files)
        assert broker.available_bytes() + leased == total
    for file in files:
        run(fs.delete(file))
    assert broker.available_bytes() == total
