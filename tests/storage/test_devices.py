"""Unit tests for the block-device models."""

import pytest

from repro.sim import Simulator
from repro.storage import (
    KB,
    MB,
    HddSpindle,
    IoOp,
    Raid0Array,
    RamDrive,
    SsdDevice,
)


def run_io(device, op, offset, size):
    sim = device.sim
    process = sim.spawn(device.io(op, offset, size))
    return sim.run_until_complete(process)


class TestHdd:
    def test_random_read_dominated_by_seek(self):
        sim = Simulator()
        disk = HddSpindle(sim)
        latency = run_io(disk, IoOp.READ, 10 * MB, 8 * KB)
        # ~4.5 ms positioning +/- jitter, plus ~89 us transfer.
        assert 2500 < latency < 7000

    def test_sequential_read_much_faster(self):
        sim = Simulator()
        disk = HddSpindle(sim)
        run_io(disk, IoOp.READ, 0, 512 * KB)
        latency = run_io(disk, IoOp.READ, 512 * KB, 512 * KB)
        # Track-to-track positioning + 512K at ~90 MB/s (~5.7 ms total is
        # wrong; should be ~0.3 + 5.7 = 6 ms? transfer = 512K/94.4 B/us).
        assert latency < 6500
        assert latency > 5000  # transfer time alone is ~5.5 ms

    def test_head_serializes_requests(self):
        sim = Simulator()
        disk = HddSpindle(sim)
        events = [disk.submit(IoOp.READ, i * 100 * MB, 8 * KB) for i in range(4)]
        sim.run()
        latencies = sorted(e.value for e in events)
        # Each later request queues behind the earlier ones.
        assert latencies[-1] > 3 * latencies[0] * 0.8

    def test_accounting(self):
        sim = Simulator()
        disk = HddSpindle(sim)
        run_io(disk, IoOp.READ, 0, 8 * KB)
        run_io(disk, IoOp.WRITE, 0, 16 * KB)
        assert disk.reads == 1 and disk.writes == 1
        assert disk.bytes_read == 8 * KB
        assert disk.bytes_written == 16 * KB
        assert len(disk.read_latency) == 1

    def test_invalid_requests_rejected(self):
        sim = Simulator()
        disk = HddSpindle(sim)
        with pytest.raises(ValueError):
            sim.run_until_complete(sim.spawn(disk.io(IoOp.READ, 0, 0)))
        with pytest.raises(ValueError):
            sim.run_until_complete(sim.spawn(disk.io(IoOp.READ, -5, 8 * KB)))


class TestRaid0:
    def test_chunking_round_robin(self):
        sim = Simulator()
        array = Raid0Array(sim, spindles=4, stripe_bytes=64 * KB)
        chunks = list(array._chunks(0, 256 * KB))
        assert [c[0] for c in chunks] == [0, 1, 2, 3]
        assert all(c[2] == 64 * KB for c in chunks)

    def test_chunking_unaligned(self):
        sim = Simulator()
        array = Raid0Array(sim, spindles=2, stripe_bytes=64 * KB)
        chunks = list(array._chunks(32 * KB, 64 * KB))
        # Crosses one stripe boundary: two half-stripe chunks.
        assert len(chunks) == 2
        assert chunks[0][2] == 32 * KB and chunks[1][2] == 32 * KB
        assert chunks[0][0] == 0 and chunks[1][0] == 1

    def test_chunk_disk_offsets_fold_by_spindle_count(self):
        sim = Simulator()
        array = Raid0Array(sim, spindles=2, stripe_bytes=64 * KB)
        # Stripe index 2 lands on spindle 0 at its stripe slot 1.
        (spindle, disk_offset, _length), = list(array._chunks(128 * KB, 64 * KB))
        assert spindle == 0
        assert disk_offset == 64 * KB

    def test_sequential_bandwidth_scales_with_spindles(self):
        def measure(spindles):
            sim = Simulator()
            array = Raid0Array(sim, spindles=spindles)
            total = 40 * MB

            def streamer(tag):
                # 5 concurrent 512K streams, as in the SQLIO benchmark.
                for index in range(16):
                    offset = (tag * 16 + index) * 512 * KB
                    yield from array.read(offset, 512 * KB)

            for tag in range(5):
                sim.spawn(streamer(tag))
            sim.run()
            return total / sim.now  # bytes per us

        slow = measure(4)
        fast = measure(20)
        assert fast > 2.5 * slow

    def test_single_spindle_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Raid0Array(sim, spindles=0)


class TestSsd:
    def test_random_faster_than_hdd(self):
        sim = Simulator()
        ssd = SsdDevice(sim)
        latency = run_io(ssd, IoOp.READ, 123 * MB, 8 * KB)
        assert latency < 200  # ~100 access + ~33 pipe

    def test_write_penalty(self):
        sim = Simulator()
        ssd = SsdDevice(sim)
        read = run_io(ssd, IoOp.READ, 0, 512 * KB)
        write = run_io(ssd, IoOp.WRITE, 0, 512 * KB)
        assert write > read * 1.2

    def test_pipe_serializes_large_io(self):
        sim = Simulator()
        ssd = SsdDevice(sim)
        events = [ssd.submit(IoOp.READ, i * MB, 512 * KB) for i in range(5)]
        sim.run()
        latencies = sorted(e.value for e in events)
        # 5 concurrent 512K reads: last one waits for four pipe slots.
        assert latencies[-1] > 4 * latencies[0] * 0.7


class TestRamDevices:
    def test_ramdrive_is_microsecond_class(self):
        sim = Simulator()
        drive = RamDrive(sim)
        drive_latency = run_io(drive, IoOp.READ, 0, 8 * KB)
        assert RamDrive.ACCESS_US < drive_latency < 10
