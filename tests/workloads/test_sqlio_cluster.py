"""Tests for the SQLIO driver and the cluster/server model."""

import pytest

from repro.cluster import Cluster
from repro.harness import build_io_target
from repro.storage import GB, KB
from repro.workloads import (
    RANDOM_8K,
    SEQUENTIAL_512K,
    SqlioPattern,
    drive_clients,
    run_sqlio,
    sqlio_clients,
)


class TestCluster:
    def test_memory_accounting(self):
        cluster = Cluster()
        server = cluster.add_server("s", memory_bytes=10 * GB)
        server.commit_memory(4 * GB)
        assert server.memory_available == 6 * GB
        server.release_memory(4 * GB)
        assert server.memory_available == 10 * GB

    def test_overcommit_rejected(self):
        cluster = Cluster()
        server = cluster.add_server("s", memory_bytes=1 * GB)
        with pytest.raises(MemoryError):
            server.commit_memory(2 * GB)

    def test_over_release_rejected(self):
        cluster = Cluster()
        server = cluster.add_server("s")
        with pytest.raises(ValueError):
            server.release_memory(1)

    def test_duplicate_server_name_rejected(self):
        cluster = Cluster()
        cluster.add_server("s")
        with pytest.raises(ValueError):
            cluster.add_server("s")

    def test_duplicate_device_key_rejected(self):
        from repro.storage import SsdDevice

        cluster = Cluster()
        server = cluster.add_server("s")
        server.attach_device("ssd", SsdDevice(cluster.sim))
        with pytest.raises(ValueError):
            server.attach_device("ssd", SsdDevice(cluster.sim))

    def test_iteration_and_len(self):
        cluster = Cluster()
        cluster.add_server("a")
        cluster.add_server("b")
        assert len(cluster) == 2
        assert {server.name for server in cluster} == {"a", "b"}


class TestSqlio:
    def test_op_count_and_bytes(self):
        target = build_io_target("SSD", span_bytes=8 * GB)
        pattern = SqlioPattern(name="t", threads=3, io_bytes=8 * KB,
                               random=True, ops_per_thread=7)
        result = run_sqlio(target.cluster.sim, target, pattern,
                           span_bytes=target.span_bytes)
        assert result.latency.count == 21
        assert sum(record[3] for record in result.records) == 21 * 8 * KB

    def test_deterministic_given_seed(self):
        def once():
            target = build_io_target("HDD(4)", span_bytes=8 * GB)
            result = run_sqlio(
                target.cluster.sim, target, RANDOM_8K,
                span_bytes=target.span_bytes,
                rng=target.cluster.rng.stream("sqlio"),
            )
            return result.latency.mean

        assert once() == once()

    def test_sequential_streams_are_disjoint(self):
        offsets = []
        target = build_io_target("SSD", span_bytes=8 * GB)
        original = target._reader.read

        def recording_read(offset, size):
            offsets.append(offset)
            yield from original(offset, size)

        target._reader.read = recording_read
        pattern = SqlioPattern(name="t", threads=4, io_bytes=512 * KB,
                               random=False, ops_per_thread=5)
        run_sqlio(target.cluster.sim, target, pattern, span_bytes=8 * GB)
        slice_bytes = 8 * GB // 4
        for thread in range(4):
            lo = thread * slice_bytes
            hi = lo + slice_bytes
            thread_offsets = [o for o in offsets if lo <= o < hi]
            assert len(thread_offsets) == 5

    def test_launch_does_not_block(self):
        target = build_io_target("SSD", span_bytes=8 * GB)
        sim = target.cluster.sim
        process = sim.spawn(drive_clients(
            sim, sqlio_clients(target, SEQUENTIAL_512K, span_bytes=target.span_bytes)
        ))
        assert process.is_alive
        result = sim.run_until_complete(process)
        assert result.latency.count == SEQUENTIAL_512K.threads * SEQUENTIAL_512K.ops_per_thread
