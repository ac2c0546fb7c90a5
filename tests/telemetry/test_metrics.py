"""Registry semantics: get-or-create, collisions, flat export."""

import pytest

from repro.sim import Counter, LatencyRecorder, TimeSeries
from repro.telemetry import MetricsError, MetricsRegistry


class TestGetOrCreate:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("db.reads")
        second = registry.counter("db.reads")
        assert first is second

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("db.reads")
        with pytest.raises(MetricsError):
            registry.histogram("db.reads")

    def test_timeline_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.timeline("db.bytes", bucket_us=1e6)
        assert registry.timeline("db.bytes", bucket_us=1e6) is registry.get("db.bytes")
        with pytest.raises(MetricsError):
            registry.timeline("db.bytes", bucket_us=2e6)

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
        counter = Counter()
        registry.register("x.y", counter)
        assert "x.y" in registry
        assert "x.z" not in registry
        assert registry.get("x.y") is counter


class TestLookup:
    def test_names_filters_by_dotted_prefix(self):
        registry = MetricsRegistry()
        registry.counter("dev.ssd.reads")
        registry.counter("dev.ssd.writes")
        registry.counter("dev.ssdx.reads")  # not under "dev.ssd"
        assert registry.names("dev.ssd") == ["dev.ssd.reads", "dev.ssd.writes"]

    def test_subtree_strips_the_prefix(self):
        registry = MetricsRegistry()
        registry.counter("bp.hits")
        registry.counter("bp.misses")
        assert set(registry.subtree("bp")) == {"hits", "misses"}


class TestFlat:
    def test_each_kind_flattens(self):
        registry = MetricsRegistry()
        registry.counter("c").add(3)
        registry.gauge("g", lambda: 7.5)
        histogram = registry.histogram("h")
        histogram.record(10)
        histogram.record(20)
        series = registry.timeline("t", bucket_us=1e6)
        series.add(0.5e6, 4)
        series.add(2.5e6, 6)
        registry.register("raw", 42)  # foreign plain number

        flat = registry.flat()
        assert flat["c"] == 3
        assert flat["g"] == 7.5
        assert flat["h.count"] == 2
        assert flat["h.mean_us"] == pytest.approx(15.0)
        assert flat["h.p50_us"] == 10
        assert flat["t.buckets"] == 2
        assert flat["t.total"] == 10
        assert flat["raw"] == 42.0

    def test_flat_respects_prefix(self):
        registry = MetricsRegistry()
        registry.counter("a.x").add(1)
        registry.counter("b.x").add(2)
        assert registry.flat("a") == {"a.x": 1}

    def test_adopted_timeseries_flattens_like_created_one(self):
        registry = MetricsRegistry()
        series = TimeSeries(bucket_us=10, name="ext")
        series.add(5, 100)
        registry.register("ext.bytes", series)
        flat = registry.flat()
        assert flat["ext.bytes.total"] == 100


class TestForeignInstruments:
    def test_non_numeric_value_reads_as_absent(self):
        class Label:
            def value(self):
                return "not a number"

        class Nothing:
            def value(self):
                return None

        registry = MetricsRegistry()
        registry.register("label", Label())
        registry.register("nothing", Nothing())
        registry.register("raw", 42)
        assert registry.flat() == {"raw": 42.0}

    def test_other_errors_from_value_propagate(self):
        class Broken:
            def value(self):
                raise KeyError("gone")

        registry = MetricsRegistry()
        registry.register("broken", Broken())
        with pytest.raises(KeyError):
            registry.flat()
