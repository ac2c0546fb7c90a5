"""Hierarchical metrics registry: one tree for every device and cache.

Components keep their own measurements: a count is a plain attribute
on the component that owns it, a distribution is a
:class:`~repro.sim.stats.LatencyRecorder`.  The registry puts both
behind dotted names (``db.dev.ssd0.read_latency``) so a benchmark can
walk one tree instead of knowing where each measurement lives.  It
holds two kinds of instrument:

* ``gauge()`` — a zero-argument callable read at export time (a count,
  a utilization, a queue depth, bytes cached);
* ``register()`` — adopt a ``LatencyRecorder`` that already exists on a
  component (a ``BlockDevice.read_latency``, say) without copying it.

Reading the registry changes nothing: a window over any of its values
is the difference of two reads.  One name maps to exactly one
instrument; a second instrument under a taken name raises
:class:`MetricsError`, which turns silent double-accounting into a loud
failure.
"""

from __future__ import annotations

from typing import Callable, Union

from ..sim.stats import LatencyRecorder, summarize

__all__ = ["Gauge", "MetricsError", "MetricsRegistry"]


class MetricsError(RuntimeError):
    """Name collision or unknown instrument kind in a :class:`MetricsRegistry`."""


class Gauge:
    """A lazily-read value: wraps a zero-argument callable."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]):
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return self.fn()


Instrument = Union[Gauge, LatencyRecorder]


class MetricsRegistry:
    """Flat store of instruments addressable by dotted name."""

    def __init__(self, name: str = "metrics"):
        self.name = name
        self._instruments: dict[str, Instrument] = {}

    # -- creation ----------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        if name in self._instruments:
            raise MetricsError(f"metric name {name!r} already registered")
        gauge = Gauge(name, fn)
        self._instruments[name] = gauge
        return gauge

    def register(self, name: str, recorder: LatencyRecorder) -> LatencyRecorder:
        """Adopt an existing latency recorder (a device's, a pool's, ...).

        Idempotent for the *same object*; a different object under a
        taken name is a collision, and anything but a recorder is
        refused (a count is read through :meth:`gauge`).
        """
        if not isinstance(recorder, LatencyRecorder):
            raise MetricsError(
                f"{name!r}: register adopts a LatencyRecorder, not a "
                f"{type(recorder).__name__} (read a count through gauge())"
            )
        existing = self._instruments.get(name)
        if existing is not None:
            if existing is recorder:
                return recorder
            raise MetricsError(f"metric name {name!r} already registered")
        self._instruments[name] = recorder
        return recorder

    # -- lookup ------------------------------------------------------------

    def get(self, name: str) -> Instrument:
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self, prefix: str = "") -> list[str]:
        """Sorted instrument names, optionally under a dotted prefix."""
        if not prefix:
            return sorted(self._instruments)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in self._instruments if n == prefix or n.startswith(dotted))

    # -- export ------------------------------------------------------------

    def flat(self, prefix: str = "") -> dict[str, float]:
        """Flatten the tree into a benchmark-friendly ``{name: value}``.

        A gauge yields one entry; a recorder expands through
        :func:`~repro.sim.stats.summarize`.
        """
        out: dict[str, float] = {}
        for name in self.names(prefix):
            instrument = self._instruments[name]
            if isinstance(instrument, Gauge):
                out[name] = float(instrument.read())
            else:
                for stat, value in summarize(instrument).items():
                    out[f"{name}.{stat}"] = value
        return out
