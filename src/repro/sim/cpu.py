"""CPU model: cores, context switches, spin-versus-yield I/O waits.

The paper's key scheduling insight (Section 4.1.3) is that a remote
memory access completes in ~10 µs, which is comparable to the cost of a
context switch, so treating RDMA as a classic asynchronous I/O wastes
most of the benefit.  This module gives simulation threads the two
options the paper contrasts:

* :meth:`Cpu.sync_wait` — keep the core and spin until the transfer
  completes (the paper's *Custom* design),
* :meth:`Cpu.async_wait` — yield the core, and on completion pay the
  context-switch and re-scheduling penalty (what stock SQL Server does
  for any I/O, including *SMBDirect+RamDrive*).
"""

from __future__ import annotations

from ..telemetry.tracer import NOOP_SPAN as _NOOP_SPAN
from .kernel import Event, ProcessGenerator, Resource, Simulator, Timeout
from .stats import TimeSeries

__all__ = ["Cpu"]

#: Direct cost of a context switch (register/state swap), microseconds.
CONTEXT_SWITCH_US = 2.0
#: Extra penalty after switch-in: processor cache pollution plus the lag
#: between I/O completion and the thread being scheduled back in.
RESCHEDULE_DELAY_US = 8.0


class Cpu:
    """A server's processor: ``cores`` identical cores with a run queue."""

    def __init__(
        self,
        sim: Simulator,
        cores: int,
        name: str = "",
        context_switch_us: float = CONTEXT_SWITCH_US,
        reschedule_delay_us: float = RESCHEDULE_DELAY_US,
    ):
        self.sim = sim
        self.cores = Resource(sim, capacity=cores, name=f"{name}.cores")
        self.name = name
        self.context_switch_us = context_switch_us
        self.reschedule_delay_us = reschedule_delay_us
        self.busy_series: TimeSeries | None = None
        self.context_switches = 0

    # -- measurement ----------------------------------------------------

    def track_utilization(self, bucket_us: float = 1e6) -> TimeSeries:
        """Start bucketing busy core-microseconds for drill-down figures."""
        self.busy_series = TimeSeries(bucket_us, name=f"{self.name}.busy_us")
        return self.busy_series

    def _record_busy(self, start_us: float, duration: float) -> None:
        if self.busy_series is None or duration <= 0:
            return
        # Split the busy interval across buckets so long computations do
        # not all land in the bucket where they finish.
        series = self.busy_series
        remaining = duration
        cursor = start_us
        while remaining > 0:
            bucket_end = (int(cursor // series.bucket_us) + 1) * series.bucket_us
            chunk = min(remaining, bucket_end - cursor)
            series.add(cursor, chunk)
            cursor += chunk
            remaining -= chunk

    def utilization(self, since: float = 0.0) -> float:
        """Mean core utilization since ``since`` (see Resource.utilization).

        Windowed queries (``since > 0``) are exact only for times
        snapshotted with :meth:`mark_utilization` — the busy-area
        integral starts at core creation, so an unanchored window would
        overestimate.
        """
        return self.cores.utilization(since)

    def mark_utilization(self) -> float:
        """Snapshot busy-area now; returns the time to pass as ``since``."""
        return self.cores.mark_utilization()

    # -- execution primitives -------------------------------------------

    def acquire_core(self) -> ProcessGenerator:
        """Wait for a core grant, interrupt-safely.

        A process interrupted while *queued* for a core (e.g. a
        reliability deadline expiring under CPU contention) must not
        leave its request behind — the eventual grant would go to a dead
        process and leak the core forever.
        """
        if self.cores.try_acquire():
            return  # free core: granted inline, no scheduler round-trip
        request = self.cores.request()
        tracer = self.sim.tracer
        try:
            # Only an actual wait gets a span — an immediate grant
            # would just litter the trace with zero-width events.
            with tracer.span("cpu.runq", cat="queue") if tracer.enabled else _NOOP_SPAN:
                yield request
        except BaseException:
            self.cores.cancel(request)
            raise

    def compute(self, duration_us: float) -> ProcessGenerator:
        """Occupy one core for ``duration_us`` of pure computation.

        The kernel's hottest site (one call per modelled CPU slice).  A
        free core is taken inline; a busy CPU is one kernel-advanced
        hold, which resumes this generator once, after the slice, and
        tells it where ``cpu.runq`` ended and ``cpu.compute`` began.
        """
        if duration_us <= 0:
            return
        sim = self.sim
        tracer = sim.tracer
        if not self.cores.try_acquire():
            span = tracer.span("cpu.runq", cat="queue") if tracer.enabled else _NOOP_SPAN
            hold = self.cores.hold(duration_us)
            try:
                yield hold
            finally:
                hold.finish()
                start = hold.granted_at
                if tracer.enabled:
                    span.split(start, "cpu.compute", cat="cpu").close()
                if start is not None and self.busy_series is not None:
                    self._record_busy(start, sim.now - start)
            return
        start = sim.now
        span = tracer.span("cpu.compute", cat="cpu") if tracer.enabled else _NOOP_SPAN
        try:
            yield Timeout(sim, duration_us)
        finally:
            span.close()
            if self.busy_series is not None:
                self._record_busy(start, sim.now - start)
            self.cores.release()

    def sync_wait(self, event: Event) -> ProcessGenerator:
        """Spin on a core until ``event`` fires (no context switch).

        The core is *busy* for the whole wait — this is what makes the
        synchronous model cheap in latency but expensive in CPU, exactly
        the trade-off in Section 4.1.3.
        """
        sim = self.sim
        tracer = sim.tracer
        if not self.cores.try_acquire():
            span = tracer.span("cpu.runq", cat="queue") if tracer.enabled else _NOOP_SPAN
            hold = self.cores.hold(event)
            try:
                return (yield hold)
            finally:
                hold.finish()
                start = hold.granted_at
                if tracer.enabled:
                    span.split(start, "cpu.spin", cat="cpu").close()
                if start is not None and self.busy_series is not None:
                    self._record_busy(start, sim.now - start)
        start = sim.now
        span = tracer.span("cpu.spin", cat="cpu") if tracer.enabled else _NOOP_SPAN
        try:
            return (yield event)
        finally:
            span.close()
            if self.busy_series is not None:
                self._record_busy(start, sim.now - start)
            self.cores.release()

    def async_wait(self, event: Event) -> ProcessGenerator:
        """Yield the core, wait for ``event``, pay the switch-in penalty."""
        yield event
        self.context_switches += 1
        sim = self.sim
        tracer = sim.tracer
        span = tracer.span("cpu.switchin", cat="cpu") if tracer.enabled else _NOOP_SPAN
        try:
            # Reschedule lag, then a core slice for the switch-in itself
            # (which may queue behind others).
            yield sim.timeout(self.reschedule_delay_us)
            yield from self.compute(self.context_switch_us)
        finally:
            span.close()
        return event.value

    def background_load(self, per_event_us: float, event_stream_period_us: float):
        """Generator simulating kernel work (e.g. TCP interrupt handling).

        Spawn with ``sim.spawn`` to steal ``per_event_us`` of CPU every
        ``event_stream_period_us``; used to model protocol processing on
        the remote server.
        """
        while True:
            yield self.sim.timeout(event_stream_period_us)
            yield from self.compute(per_event_us)
