"""Registry semantics: two instrument kinds, collisions, flat export."""

import pytest

from repro.harness import Design, build_database
from repro.sim import LatencyRecorder, summarize
from repro.telemetry import MetricsError, MetricsRegistry


class TestGetOrCreate:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("db.depth", lambda: 1.0)
        recorder = registry.register("db.read_latency", LatencyRecorder("db"))
        assert registry.get("db.depth") is gauge
        assert registry.get("db.read_latency") is recorder

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.gauge("db.reads", lambda: 1.0)
        with pytest.raises(MetricsError):
            registry.register("db.reads", LatencyRecorder("db"))
        registry.register("db.latency", LatencyRecorder("db"))
        with pytest.raises(MetricsError):
            registry.gauge("db.latency", lambda: 2.0)

    def test_gauge_name_collision_raises(self):
        registry = MetricsRegistry()
        registry.gauge("db.depth", lambda: 1.0)
        with pytest.raises(MetricsError):
            registry.gauge("db.depth", lambda: 2.0)


class TestRegister:
    def test_adopting_is_idempotent_for_the_same_object(self):
        registry = MetricsRegistry()
        recorder = LatencyRecorder("dev")
        assert registry.register("dev.read_latency", recorder) is recorder
        assert registry.register("dev.read_latency", recorder) is recorder

    def test_different_object_under_taken_name_raises(self):
        registry = MetricsRegistry()
        registry.register("dev.read_latency", LatencyRecorder("a"))
        with pytest.raises(MetricsError):
            registry.register("dev.read_latency", LatencyRecorder("b"))

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        recorder = LatencyRecorder()
        registry.register("x.y", recorder)
        assert "x.y" in registry
        assert "x.z" not in registry
        assert registry.get("x.y") is recorder

    @pytest.mark.parametrize("foreign", [42, 7.5, object()], ids=["int", "float", "object"])
    def test_anything_but_a_recorder_is_refused(self, foreign):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.register("x.y", foreign)
        assert "x.y" not in registry


class TestLookup:
    def test_names_filters_by_dotted_prefix(self):
        registry = MetricsRegistry()
        registry.gauge("dev.ssd.reads", lambda: 0.0)
        registry.gauge("dev.ssd.writes", lambda: 0.0)
        registry.gauge("dev.ssdx.reads", lambda: 0.0)  # not under "dev.ssd"
        assert registry.names("dev.ssd") == ["dev.ssd.reads", "dev.ssd.writes"]


class TestFlat:
    def test_each_kind_flattens(self):
        registry = MetricsRegistry()
        registry.gauge("g", lambda: 7.5)
        histogram = registry.register("h", LatencyRecorder("h"))
        histogram.record(10)
        histogram.record(20)

        flat = registry.flat()
        assert flat["g"] == 7.5
        assert flat["h.count"] == 2
        assert flat["h.mean_us"] == pytest.approx(15.0)
        assert flat["h.p50_us"] == 10
        assert set(flat) == {"g"} | {f"h.{stat}" for stat in summarize(histogram)}

    def test_flat_respects_prefix(self):
        registry = MetricsRegistry()
        registry.gauge("a.x", lambda: 1)
        registry.gauge("b.x", lambda: 2)
        assert registry.flat("a") == {"a.x": 1}


class TestForeignInstruments:
    """A gauge reads its component and nothing else: what goes wrong
    there surfaces at the read."""

    def test_other_errors_from_value_propagate(self):
        def broken():
            raise KeyError("gone")

        registry = MetricsRegistry()
        registry.gauge("broken", broken)
        with pytest.raises(KeyError):
            registry.flat()


class TestReadingChangesNothing:
    def test_flat_twice_at_one_instant_is_equal_and_leaves_cpu_marks(self):
        setup = build_database(Design.CUSTOM, bp_pages=64, bpext_pages=128, tempdb_pages=64)
        cpu = setup.db_server.cpu
        setup.sim.spawn(cpu.compute(250.0))
        setup.sim.run(until=setup.sim.now + 1_000.0)
        marks = list(cpu.cores._busy_marks)
        first = setup.metrics.flat()
        second = setup.metrics.flat()
        assert first == second
        assert cpu.cores._busy_marks == marks
        assert first["server.db.cpu.utilization"] == cpu.utilization()
