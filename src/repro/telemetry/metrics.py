"""Hierarchical metrics registry: one tree for every device and cache.

The repo grew up with scattered ad-hoc :class:`~repro.sim.stats`
instruments — a ``LatencyRecorder`` here, a ``Counter`` there, counters
as plain ints on device objects.  The registry unifies them behind
dotted names (``db.dev.ssd0.read_latency``) so a benchmark can walk one
tree instead of knowing where each instrument lives.

Three ways instruments enter the tree:

* ``counter()/histogram()/timeline()`` — get-or-create by name (the
  same name always returns the same instance, so two call sites share
  one instrument);
* ``register()`` — adopt an instrument that already exists on a device
  (a ``BlockDevice.read_latency`` recorder, say) without copying it;
* ``gauge()`` — register a zero-argument callable sampled lazily at
  export time (utilization, queue depth, bytes cached).

Name semantics: one name maps to exactly one instrument.  Re-creating
under the same name with a *different* kind — or ``register()``-ing a
second object under a taken name — raises :class:`MetricsError`, which
turns silent double-accounting into a loud failure.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.stats import Counter, LatencyRecorder, TimeSeries, summarize

__all__ = ["Gauge", "MetricsError", "MetricsRegistry"]


class MetricsError(RuntimeError):
    """Name collision or kind mismatch in a :class:`MetricsRegistry`."""


class Gauge:
    """A lazily-sampled value: wraps a zero-argument callable."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return self.fn()


class MetricsRegistry:
    """Flat store of instruments addressable by dotted name."""

    def __init__(self, name: str = "metrics"):
        self.name = name
        self._instruments: dict[str, Any] = {}

    # -- creation ----------------------------------------------------------

    def _get_or_create(self, name: str, kind: type, factory: Callable[[], Any]) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise MetricsError(
                    f"{name!r} is already a {type(existing).__name__}, "
                    f"not a {kind.__name__}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def histogram(self, name: str) -> LatencyRecorder:
        return self._get_or_create(name, LatencyRecorder, lambda: LatencyRecorder(name))

    def timeline(self, name: str, bucket_us: float) -> TimeSeries:
        series = self._get_or_create(
            name, TimeSeries, lambda: TimeSeries(bucket_us=bucket_us, name=name)
        )
        if series.bucket_us != bucket_us:
            raise MetricsError(
                f"{name!r} already has bucket_us={series.bucket_us:g}, "
                f"requested {bucket_us:g}"
            )
        return series

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        if name in self._instruments:
            raise MetricsError(f"metric name {name!r} already registered")
        gauge = Gauge(name, fn)
        self._instruments[name] = gauge
        return gauge

    def register(self, name: str, instrument: Any) -> Any:
        """Adopt an existing instrument (device recorder, counter, ...).

        Idempotent for the *same object*; a different object under a
        taken name is a collision.
        """
        existing = self._instruments.get(name)
        if existing is not None:
            if existing is instrument:
                return instrument
            raise MetricsError(f"metric name {name!r} already registered")
        self._instruments[name] = instrument
        return instrument

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Any:
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self, prefix: str = "") -> list[str]:
        """Sorted instrument names, optionally under a dotted prefix."""
        if not prefix:
            return sorted(self._instruments)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in self._instruments if n == prefix or n.startswith(dotted))

    def subtree(self, prefix: str) -> dict[str, Any]:
        """Instruments under ``prefix``, keyed by their remaining suffix."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        out: dict[str, Any] = {}
        for name in self.names(prefix):
            key = name[len(dotted):] if name.startswith(dotted) else name
            out[key] = self._instruments[name]
        return out

    # -- export ------------------------------------------------------------

    def flat(self, prefix: str = "") -> dict[str, float]:
        """Flatten the tree into a benchmark-friendly ``{name: value}``.

        Counters and gauges yield one entry; histograms expand through
        :func:`~repro.sim.stats.summarize`; timelines report their
        bucket count and total (the full series stays available on the
        instrument itself).
        """
        out: dict[str, float] = {}
        for name in self.names(prefix):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                out[name] = float(instrument.read())
            elif isinstance(instrument, LatencyRecorder):
                for stat, value in summarize(instrument).items():
                    out[f"{name}.{stat}"] = value
            elif isinstance(instrument, TimeSeries):
                out[f"{name}.buckets"] = float(len(instrument.buckets))
                out[f"{name}.total"] = float(sum(instrument.buckets.values()))
            else:
                value = _read_unknown(instrument)
                if value is not None:
                    out[name] = value
        return out


def _read_unknown(instrument: Any) -> Optional[float]:
    """Best-effort numeric read for foreign instruments."""
    if isinstance(instrument, (int, float)):
        return float(instrument)
    for attr in ("value", "read"):
        candidate = getattr(instrument, attr, None)
        if callable(candidate):
            try:
                return float(candidate())
            except (TypeError, ValueError):  # not a number: read as absent
                return None
        if isinstance(candidate, (int, float)):
            return float(candidate)
    return None
