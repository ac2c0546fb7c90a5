"""Virtual-time span tracer for the DES stack.

The paper reads its drill-downs (Figures 11 and 14) off perfmon; this
module is the simulation-side equivalent: spans opened in *virtual*
microseconds with causal parent links, so a query's latency can be
decomposed into operator / page-fault / NIC / device time after the
fact.

Design constraints (and how they are met):

* **Zero cost when disabled.**  Every :class:`~repro.sim.Simulator` is
  born with :data:`NOOP_TRACER`; its hooks are empty methods and its
  ``span()`` returns one shared no-op context manager, so uninstrumented
  runs pay a single attribute load plus a no-op call per span site.
* **No perturbation of virtual time or determinism.**  The tracer never
  creates events, never yields, and never advances the clock — it only
  *reads* ``sim.now``.  Same seed with tracing on or off therefore
  produces bit-identical results and virtual clocks (asserted in
  ``tests/telemetry/test_determinism.py``).
* **Interleaving-safe causality.**  Kernel processes interleave, so a
  single global span stack would attribute children to whichever
  process last resumed.  The tracer keeps one stack *per process* (the
  kernel exposes the currently-resuming process as
  ``sim._active_process``) and, when a process spawns another, the
  child inherits the spawner's innermost open span as its causal
  parent.  That is how a page-fault span ends up as the ancestor of the
  NIC spans opened inside the spawned RDMA transfer process.

This module deliberately imports nothing from the rest of ``repro`` —
``sim/kernel.py`` imports :data:`NOOP_TRACER` from here, so any import
back into the package would cycle.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "Span",
    "NoopSpan",
    "NoopTracer",
    "TraceRecorder",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "install",
]


class Span:
    """One timed interval in virtual microseconds, with a causal parent.

    Used as a context manager; ``__exit__`` stamps the end time off the
    simulator clock.  ``parent_id == 0`` marks a root span.
    """

    __slots__ = (
        "sid",
        "parent_id",
        "name",
        "cat",
        "start_us",
        "end_us",
        "tid",
        "depth",
        "args",
        "_tracer",
        "_stack",
    )

    def __init__(
        self,
        tracer: "TraceRecorder",
        sid: int,
        parent_id: int,
        name: str,
        cat: Optional[str],
        start_us: float,
        tid: int,
        depth: int,
        args: Optional[dict],
        stack: list,
    ):
        self.sid = sid
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.tid = tid
        self.depth = depth
        self.args = args
        self._tracer = tracer
        self._stack = stack

    @property
    def duration_us(self) -> float:
        end = self.end_us if self.end_us is not None else self._tracer.sim.now
        return end - self.start_us

    def set(self, **args: Any) -> "Span":
        """Attach (or update) key/value annotations on the span."""
        if self.args is None:
            self.args = {}
        self.args.update(args)
        return self

    def close(self) -> None:
        if self.end_us is None:
            self._tracer._close(self)

    def split(self, at_us, name: str, cat: Optional[str] = None, **args: Any) -> "Span":
        """End this span at ``at_us`` and open its successor there: for a
        wait whose second phase began while its process was not running (a
        queued ``Resource.hold`` granted at ``at_us``), called by that
        process when it next runs.  ``None`` splits nothing."""
        if at_us is None:
            return self
        self.close()
        self.end_us = at_us
        successor = self._tracer.span(name, cat, **args)
        successor.start_us = at_us
        return successor

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.end_us is None:
            self.set(error=type(exc).__name__)
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, sid={self.sid}, "
            f"parent={self.parent_id}, [{self.start_us:g}, {self.end_us}])"
        )


class NoopSpan:
    """Shared do-nothing span handed out by the disabled tracer."""

    __slots__ = ()

    def set(self, **args: Any) -> "NoopSpan":
        return self

    def close(self) -> None:
        pass

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NoopTracer:
    """The default tracer: every hook is a no-op.

    Instrumentation sites test nothing — they call ``sim.tracer.span``
    unconditionally and the cost collapses to one method call returning
    a shared object.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: Optional[str] = None, **args: Any) -> NoopSpan:
        return NOOP_SPAN

    def current(self) -> None:
        return None

    def on_spawn(self, process: Any) -> None:
        pass

    def on_finish(self, process: Any) -> None:
        pass


NOOP_SPAN = NoopSpan()
NOOP_TRACER = NoopTracer()


class TraceRecorder:
    """Recording tracer: collects every span opened on one simulator.

    ``install(sim)`` (or constructing one directly and assigning
    ``sim.tracer``) switches a simulator from :data:`NOOP_TRACER` to a
    recorder.  Spans opened outside any process (driver code between
    ``run_until_complete`` calls) land on a "main" pseudo-thread with
    ``tid == 0``.
    """

    enabled = True

    def __init__(self, sim: Any):
        self.sim = sim
        #: Every span ever opened, in opening order (deterministic).
        self.spans: list[Span] = []
        #: tid -> display name, for exporter thread metadata.
        self.thread_names: dict[int, str] = {0: "main"}
        self._stacks: dict[Any, list[Span]] = {}
        self._inherited: dict[Any, Span] = {}
        self._tids: dict[Any, int] = {}
        self._global: list[Span] = []
        self._next_sid = 0
        self._next_tid = 0

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, cat: Optional[str] = None, **args: Any) -> Span:
        """Open a span at ``sim.now`` under the active process's stack."""
        process = getattr(self.sim, "_active_process", None)
        if process is None:
            stack = self._global
            tid = 0
            parent = stack[-1] if stack else None
        else:
            stack = self._stacks.get(process)
            if stack is None:
                stack = self._stacks[process] = []
            parent = stack[-1] if stack else self._inherited.get(process)
            tid = self._tids.get(process)
            if tid is None:
                self._next_tid += 1
                tid = self._tids[process] = self._next_tid
                self.thread_names[tid] = process.name
        self._next_sid += 1
        span = Span(
            tracer=self,
            sid=self._next_sid,
            parent_id=parent.sid if parent is not None else 0,
            name=name,
            cat=cat,
            start_us=self.sim.now,
            tid=tid,
            depth=parent.depth + 1 if parent is not None else 0,
            args=args or None,
            stack=stack,
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_us = self.sim.now
        stack = span._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:
            # Out-of-order close (e.g. explicit ``close()`` under an
            # open child): drop it from wherever it sits.
            try:
                stack.remove(span)
            except ValueError:
                pass

    def current(self) -> Optional[Span]:
        """The innermost open span of the active context, if any."""
        process = getattr(self.sim, "_active_process", None)
        if process is None:
            return self._global[-1] if self._global else None
        stack = self._stacks.get(process)
        if stack:
            return stack[-1]
        return self._inherited.get(process)

    # -- kernel hooks ------------------------------------------------------

    def on_spawn(self, process: Any) -> None:
        """Called by ``Process.__init__``: inherit the spawner's span."""
        parent = self.current()
        if parent is not None:
            self._inherited[process] = parent

    def on_finish(self, process: Any) -> None:
        """Called when a process ends: release its per-process state."""
        self._stacks.pop(process, None)
        self._inherited.pop(process, None)
        self._tids.pop(process, None)

    # -- queries -----------------------------------------------------------

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.sid]

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def depth_of(self, span: Span) -> int:
        """Parent-chain length: 0 for roots (cross-process aware)."""
        index = {s.sid: s for s in self.spans}
        depth = 0
        while span.parent_id:
            span = index[span.parent_id]
            depth += 1
        return depth

    def max_depth(self) -> int:
        """Deepest parent-chain nesting across the whole trace."""
        index = {s.sid: s for s in self.spans}
        best = 0
        for span in self.spans:
            depth = 0
            walk = span
            while walk.parent_id:
                walk = index[walk.parent_id]
                depth += 1
            best = max(best, depth)
        return best


def install(sim: Any) -> TraceRecorder:
    """Attach a recording tracer to ``sim`` and return it."""
    tracer = TraceRecorder(sim)
    sim.tracer = tracer
    return tracer
