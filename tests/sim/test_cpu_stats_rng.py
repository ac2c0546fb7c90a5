"""Unit tests for the CPU model, stats collectors and RNG registry."""

import pytest

from repro.sim import Cpu, LatencyRecorder, RngRegistry, Simulator
from repro.sim.stats import summarize


class TestCpu:
    def test_compute_occupies_core(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        finish = []

        def worker(tag):
            yield from cpu.compute(10)
            finish.append((tag, sim.now))

        sim.spawn(worker("a"))
        sim.spawn(worker("b"))
        sim.run()
        assert finish == [("a", 10.0), ("b", 20.0)]

    def test_sync_wait_holds_core(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        finish = []

        def spinner():
            yield from cpu.sync_wait(sim.timeout(50))
            finish.append(("spinner", sim.now))

        def compute_job():
            yield sim.timeout(1)  # arrive second
            yield from cpu.compute(5)
            finish.append(("compute", sim.now))

        sim.spawn(spinner())
        sim.spawn(compute_job())
        sim.run()
        # The spinner monopolizes the core until 50, so the compute job
        # only finishes afterwards: the cost of synchronous spinning.
        assert finish == [("spinner", 50.0), ("compute", 55.0)]

    def test_async_wait_releases_core_but_pays_switch(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1, context_switch_us=2, reschedule_delay_us=8)
        finish = []

        def io_job():
            yield from cpu.async_wait(sim.timeout(50))
            finish.append(("io", sim.now))

        def compute_job():
            yield sim.timeout(1)
            yield from cpu.compute(5)
            finish.append(("compute", sim.now))

        sim.spawn(io_job())
        sim.spawn(compute_job())
        sim.run()
        # Compute proceeds during the I/O wait; the I/O job pays 50
        # (wait) + 8 (resched) + 2 (switch-in) = 60.
        assert ("compute", 6.0) in finish
        assert ("io", 60.0) in finish
        assert cpu.context_switches == 1

    def test_async_wait_returns_event_value(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)

        def job():
            value = yield from cpu.async_wait(sim.timeout(3, value="data"))
            return value

        process = sim.spawn(job())
        assert sim.run_until_complete(process) == "data"

    def test_utilization_tracking(self):
        """``utilization(since=mark)`` is the busy core-µs after the mark
        over the window's core capacity, whichever path took the core."""
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        sim.spawn(cpu.compute(30))  # core 1: 0-30, straddles the mark
        sim.run(until=20)
        mark = cpu.mark_utilization()

        def late_compute():
            yield sim.timeout(0)  # queue behind the spinner
            yield from cpu.compute(10)

        sim.spawn(cpu.compute(25))  # core 2: 20-45, free core
        sim.spawn(cpu.sync_wait(sim.timeout(30)))  # queued; spins 30-50
        sim.spawn(late_compute())  # queued; 45-55
        sim.run(until=100)
        busy_after_mark = (30 - 20) + 25 + (50 - 30) + 10
        assert cpu.utilization(mark) == pytest.approx(busy_after_mark / (80 * 2))
        assert cpu.utilization(mark) == cpu.utilization(mark)
        assert cpu.utilization() == pytest.approx((30 + 25 + 20 + 10) / (100 * 2))


class TestStats:
    def test_latency_percentiles(self):
        rec = LatencyRecorder()
        for value in range(1, 101):
            rec.record(float(value))
        assert rec.p50 == 50
        assert rec.p95 == 95
        assert rec.p99 == 99
        assert rec.mean == pytest.approx(50.5)
        assert rec.maximum == 100

    def test_empty_recorder_is_zero(self):
        rec = LatencyRecorder()
        assert rec.mean == 0
        assert rec.p99 == 0
        assert rec.maximum == 0

    def test_summarize_keys(self):
        rec = LatencyRecorder()
        rec.record(10)
        summary = summarize(rec)
        assert set(summary) == {"count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"}
        assert summary["count"] == 1

    def test_summarize_values(self):
        rec = LatencyRecorder()
        for value in range(1, 101):
            rec.record(float(value))
        summary = summarize(rec)
        assert summary["count"] == 100
        assert summary["mean_us"] == pytest.approx(50.5)
        assert summary["p50_us"] == 50
        assert summary["p95_us"] == 95
        assert summary["p99_us"] == 99
        assert summary["max_us"] == 100

    def test_summarize_empty_recorder_is_all_zero(self):
        summary = summarize(LatencyRecorder())
        assert summary == {
            "count": 0.0, "mean_us": 0.0, "p50_us": 0.0,
            "p95_us": 0.0, "p99_us": 0.0, "max_us": 0.0,
        }

    def test_percentile_cache_invalidates_on_record(self):
        rec = LatencyRecorder()
        rec.record(10)
        assert rec.p99 == 10  # populates the sorted cache
        rec.record(5)  # must invalidate it
        assert rec.p50 == 5
        assert rec.p99 == 10
        assert rec.percentile(0) == 5

    def test_percentile_cache_repeated_reads_are_stable(self):
        rec = LatencyRecorder()
        for value in (30, 10, 20):
            rec.record(value)
        # Same answers on the cached path as on the first (sorting) read.
        assert [rec.p50, rec.p50, rec.p95, rec.p99] == [20, 20, 30, 30]
        assert rec.samples == [30, 10, 20]  # insertion order untouched

    def test_percentile_guards_direct_sample_appends(self):
        rec = LatencyRecorder()
        rec.record(10)
        assert rec.p50 == 10
        rec.samples.append(1)  # bypasses record(); length check catches it
        assert rec.p50 == 1

    def test_reset_clears_cache(self):
        rec = LatencyRecorder()
        rec.record(10)
        assert rec.p50 == 10
        rec.reset()
        assert rec.p50 == 0
        rec.record(7)
        assert rec.p50 == 7


class TestRng:
    def test_streams_are_deterministic(self):
        a = RngRegistry(seed=7).stream("disk").random(5).tolist()
        b = RngRegistry(seed=7).stream("disk").random(5).tolist()
        assert a == b

    def test_streams_are_independent_by_name(self):
        registry = RngRegistry(seed=7)
        a = registry.stream("disk").random(5).tolist()
        b = registry.stream("net").random(5).tolist()
        assert a != b

    def test_new_stream_does_not_perturb_existing(self):
        r1 = RngRegistry(seed=7)
        first = r1.stream("disk").random(3).tolist()
        r2 = RngRegistry(seed=7)
        r2.stream("other")  # extra consumer created first
        second = r2.stream("disk").random(3).tolist()
        assert first == second

    def test_reset_restores_sequences(self):
        registry = RngRegistry(seed=3)
        first = registry.stream("x").random(4).tolist()
        registry.reset()
        again = registry.stream("x").random(4).tolist()
        assert first == again


class TestTimeSeriesSplitting:
    def test_busy_interval_splits_across_buckets(self):
        """Long computations spread over consecutive mark-to-mark
        windows, not lumped into the one where they finish."""
        sim = Simulator()
        cpu = Cpu(sim, cores=1)
        sim.spawn(cpu.compute(35))
        busy = []
        mark = cpu.mark_utilization()
        for end in (10, 20, 30, 40):
            sim.run(until=end)
            busy.append(cpu.utilization(mark) * (end - mark))
            mark = cpu.mark_utilization()
        assert busy == pytest.approx([10, 10, 10, 5])

    def test_background_load_steals_cpu(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        sim.spawn(cpu.background_load(per_event_us=40, event_stream_period_us=50))
        sim.run(until=1000)
        # Each cycle: 50 us idle + 40 us busy on one of two cores.
        assert 0.15 < cpu.utilization() < 0.3
