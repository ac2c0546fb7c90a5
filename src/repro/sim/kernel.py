"""Discrete-event simulation kernel.

Everything in this reproduction runs on virtual time measured in
*microseconds*.  The kernel is a small, SimPy-flavoured engine:

* a :class:`Simulator` owns the virtual clock and the event heap,
* a :class:`Process` wraps a generator that ``yield``\\ s :class:`Event`
  objects and is resumed when they fire,
* a :class:`Resource` models a server with fixed capacity and a FIFO
  queue (a disk spindle, a NIC DMA engine, a CPU core, ...).

The kernel is deterministic: events scheduled for the same instant fire
in scheduling order, so simulations are exactly reproducible for a
given RNG seed.

Scheduling discipline (see DESIGN.md §10 for the determinism argument):

* Future events (timers) live in a binary heap keyed ``(when, seq)``.
* Events triggered *at the current instant* go to a FIFO **now-queue**
  instead of the heap.  ``seq`` is still assigned globally, so the
  now-queue is in ``seq`` order by construction and the loop merely
  merges the two structures by ``(when, seq)`` — the firing order is
  bit-identical to the all-heap discipline, but the common case
  (trigger now, fire now) costs two deque operations instead of two
  ``O(log n)`` heap operations.
* :class:`Timeout`\\ s support **lazy cancellation**: ``cancel()``
  tombstones the timer in place and the loop skips it when its heap
  entry surfaces.  Abandoned deadline/hedge timers therefore cost one
  skipped pop instead of a callback cascade.
* A failed event processed with *no callbacks* raises
  :class:`SimulationError` — failures must be observed, not silently
  dropped.  Attach a no-op callback to deliberately discard one.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable, Optional, Union

from ..telemetry.tracer import NOOP_TRACER

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Chain",
    "ABORTED",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Resource",
    "Store",
    "Simulator",
    "SimulationError",
]

#: Type alias for the generator coroutines driven by the kernel.
ProcessGenerator = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, yield of a non-event, ...)."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause
        #: The inline :class:`Chain` the process was waiting on: it stood
        #: for generator frames of that process, so it unwinds with them.
        self.abandoned: Optional["Chain"] = None


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* once :meth:`succeed`
    or :meth:`fail` is called, and all registered callbacks run at the
    simulation instant it fires.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered", "_processed")

    #: Tombstone flag.  Plain events are never cancelled, so this is a
    #: class attribute (no per-instance storage); subclasses that support
    #: cancellation (:class:`Timeout`, the store's getter) shadow it
    #: with a real slot.
    _cancelled = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def ok(self) -> bool:
        return self._triggered and self._exception is None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        sim._nowq.append((sim._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception delivered to waiters.

        A failed event must be *observed*: if it is processed with no
        callbacks attached, the loop raises instead of dropping the
        exception.  Attach a no-op callback to discard one on purpose.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._exception = exception
        sim = self.sim
        sim._seq += 1
        sim._nowq.append((sim._seq, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._cancelled:
            raise SimulationError("cannot wait on a cancelled event")
        if self._processed:
            # Late subscription: run at the current instant.
            self.sim.call_soon(lambda: callback(self))
        else:
            self.callbacks.append(callback)


class _Soon:
    """A bare ``call_soon`` entry: a function ``fn``, not a full event.
    (No ``__init__``: one is allocated per grant and per chain, and a
    Python-level constructor doubles the cost of that.)"""

    __slots__ = ("fn",)
    _cancelled = False


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation.

    Supports **lazy cancellation**: :meth:`cancel` tombstones the timer;
    its heap entry is skipped (no callbacks run, ``processed`` stays
    false) when the loop reaches it.  :class:`AnyOf` cancels losing
    timers automatically, so abandoned deadline/hedge timers do not
    cascade through the callback machinery when they expire.
    """

    __slots__ = ("delay", "_cancelled")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Inlined Event.__init__ plus scheduling: Timeout construction is
        # one of the hottest kernel paths (one per modelled service time).
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True  # scheduled immediately; fires at now+delay
        self._processed = False
        self._cancelled = False
        self.delay = delay
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._seq, self))

    def cancel(self) -> None:
        """Tombstone the timer: it will never fire.

        Idempotent; a no-op once the timer has already fired.  Waiting
        on a cancelled timer is a kernel error (the wait could never
        end), so ``add_callback`` raises on tombstoned events.
        """
        if self._processed or self._cancelled:
            return
        self._cancelled = True
        self.callbacks.clear()


class Process(Event):
    """A running coroutine; as an event, fires when the coroutine returns."""

    __slots__ = ("generator", "name", "_target", "_interrupts", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        # Bound methods cached once: _resume is the single hottest
        # call site in the kernel (one invocation per event fired).
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        #: Allocated by the first :meth:`interrupt`; most processes get none.
        self._interrupts: Optional[deque[Interrupt]] = None
        # Causal link for tracing: the child inherits the spawner's
        # innermost open span (short-circuited under the no-op tracer).
        if sim.tracer.enabled:
            sim.tracer.on_spawn(self)
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            return
        if self._interrupts is None:
            self._interrupts = deque()
        interrupt = Interrupt(cause)
        self._interrupts.append(interrupt)
        target = self._target
        if target is not None and not target._processed:
            # Detach from the event we were waiting on and wake up now.
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None
            if isinstance(target, Chain) and not target._spawned:
                target._detach()
                interrupt.abandoned = target
            wake = Event(self.sim)
            wake.callbacks.append(self._resume)
            wake.succeed()

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        self._target = None
        # Expose the stepping process so the tracer can keep one span
        # stack per process (processes interleave arbitrarily).
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self
        try:
            try:
                if self._interrupts:
                    interrupt = self._interrupts.popleft()
                    if interrupt.abandoned is not None:
                        # Innermost frames unwind first: so does the chain.
                        interrupt.abandoned._abandon()
                    step = self._throw(interrupt)
                elif event._exception is not None:
                    step = self._throw(event._exception)
                else:
                    step = self._send(event._value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except Interrupt:
                # Process chose not to handle the interrupt: dies silently.
                self._finish(None)
                return
        finally:
            sim._active_process = previous
        if not isinstance(step, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(step).__name__}, expected Event"
            )
        if self._interrupts:
            # An interrupt arrived while we were stepping: wake immediately.
            wake = Event(sim)
            wake.callbacks.append(self._resume)
            wake.succeed()
            return
        if step._cancelled:
            raise SimulationError(
                f"process {self.name!r} yielded a cancelled event (it would never fire)"
            )
        self._target = step
        if step._processed:
            step.add_callback(self._resume)  # rare: already-fired event
        else:
            step.callbacks.append(self._resume)

    def _finish(self, value: Any) -> None:
        self._triggered = True
        self._value = value
        sim = self.sim
        if sim.tracer.enabled:
            sim.tracer.on_finish(self)
        sim._seq += 1
        sim._nowq.append((sim._seq, self))


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(Event):
    """Fires when the first child event fires; value is (index, value).

    On the first firing the composite *detaches* its callbacks from the
    losing children: a later ``fail()`` on a loser is then processed
    with no observers and escalates through the loop's unobserved-
    failure check instead of being silently swallowed by the
    ``_triggered`` guard.  Losing :class:`Timeout`\\ s with no other
    waiters are tombstoned outright, so abandoned race timers (deadline
    budgets, hedge delays, adaptive spin budgets) expire as skipped heap
    pops rather than callback cascades.
    """

    __slots__ = ("_events", "_waits")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf needs at least one event")
        self._waits: list[Callable[[Event], None]] = []
        for index, event in enumerate(self._events):
            callback = (lambda e, i=index: self._child_done(i, e))
            self._waits.append(callback)
            event.add_callback(callback)

    def _child_done(self, index: int, event: Event) -> None:
        if self._triggered:
            return
        # Detach from every loser so their eventual outcomes are not
        # swallowed by the guard above; tombstone bare losing timers.
        for loser, callback in zip(self._events, self._waits):
            if loser is event or loser._processed:
                continue
            try:
                loser.callbacks.remove(callback)
            except ValueError:
                pass
            if isinstance(loser, Timeout) and not loser.callbacks:
                loser.cancel()
        self._waits = []
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed((index, event._value))


class _Request(Event):
    __slots__ = ("resource", "amount")

    def __init__(self, sim: "Simulator", resource: "Resource", amount: int):
        # Inlined Event.__init__ (request issue is a kernel hot path).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self.resource = resource
        self.amount = amount


class _Hold(_Request):
    """A :meth:`Resource.hold`: the grant *and* the service time as one event.

    The grant keeps its now-queue slot as a bare thunk (:meth:`_arm`)
    that starts the clock instead of waking the waiter: every ``seq`` is
    allocated where ``request()`` + ``timeout()`` allocate them, and the
    waiter is resumed once, not twice (DESIGN §10, "Kernel-advanced holds").
    """

    __slots__ = ("timing", "granted_at")

    def _arm(self) -> None:
        """The grant's now-queue slot: start the clock, wake nobody.

        ``timing`` is evaluated here, where a woken waiter would have
        evaluated it: state-dependent service times (link degradation,
        seeded drop draws) see the same state in the same order.
        """
        if not self.callbacks:
            return  # the waiter was interrupted before this slot: nobody to serve
        sim = self.sim
        self.granted_at = sim.now
        timing = self.timing
        if timing.__class__ is not float:
            if isinstance(timing, Event):
                timing.add_callback(self._relay)
                return
            if callable(timing):
                timing = timing()
        if timing < 0:
            raise SimulationError(f"negative hold: {timing}")
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + timing, sim._seq, self))

    def _relay(self, event: Event) -> None:
        """The awaited event fired: wake our waiter in its callback slot."""
        self._value = event._value
        self._exception = event._exception
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def finish(self) -> None:
        """The one exit, interrupt-safe and idempotent: leave the queue /
        give back a grant whose thunk has not run (it then does nothing) /
        release, served out or interrupted midway / no-op once finished."""
        resource = self.resource
        if resource is None:
            return
        self.resource = None
        if not self._triggered:
            resource._queue.remove(self)
            return
        if not self._processed and isinstance(self.timing, Event):
            try:
                self.timing.callbacks.remove(self._relay)
            except ValueError:
                pass
        resource.release(self.amount)


class Resource:
    """Capacity-limited server with a FIFO wait queue.

    ``request()`` returns an event that fires when capacity is granted;
    the holder must call ``release()`` exactly once per grant.
    ``hold(x)`` is the grant and a service time ``x`` in one event.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque[_Request] = deque()
        # Busy-time accounting for utilization reporting.
        self._busy_area = 0.0
        self._last_change = sim.now
        # Busy-area snapshots for *windowed* utilization queries:
        # (time, busy_area-at-that-time), appended by mark_utilization().
        # The creation snapshot makes utilization(since=creation) exact.
        self._busy_marks: list[tuple[float, float]] = [(sim.now, 0.0)]

    def try_acquire(self, amount: int = 1) -> bool:
        """Grant ``amount`` units inline, without an event, when possible.

        Returns True and takes the capacity if no one is queued and the
        units are free — the caller proceeds immediately (same virtual
        instant as an immediately-granted ``request()``, minus the
        scheduler round-trip) and must ``release(amount)`` exactly once.
        Returns False without side effects when the caller must queue
        via ``request()``.
        """
        if self._queue or self.in_use + amount > self.capacity:
            return False
        now = self.sim.now
        self._busy_area += self.in_use * (now - self._last_change)
        self._last_change = now
        self.in_use += amount
        return True

    def request(self, amount: int = 1) -> Event:
        if amount > self.capacity:
            raise SimulationError("request exceeds resource capacity")
        req = _Request(self.sim, self, amount)
        queue = self._queue
        queue.append(req)
        if len(queue) == 1 and self.in_use + amount <= self.capacity:
            self.release(0)  # free capacity, nobody ahead: granted in this instant
        return req

    def hold(self, timing: Any, amount: int = 1) -> _Hold:
        """Queue FIFO for ``amount`` units, then keep them for ``timing``.

        ``timing`` is a duration, a callable returning one (evaluated at
        the grant) or an :class:`Event` (keep the units until it fires;
        its value or failure is delivered).  Yield the returned event
        and call its ``finish()`` in a ``finally``: that releases on
        every path, an interrupt while still queued included.  The
        schedule (``seq`` order, ``events_processed``) is exactly that of
        ``request()``, ``timeout()``/the event, ``release()``.
        """
        if amount > self.capacity:
            raise SimulationError("request exceeds resource capacity")
        hold = _Hold(self.sim, self, amount)
        hold.timing = timing
        hold.granted_at = None  # when the clock started; None until then
        queue = self._queue
        queue.append(hold)
        if len(queue) == 1 and self.in_use + amount <= self.capacity:
            self.release(0)  # as in request()
        return hold

    def release(self, amount: int = 1) -> None:
        """Give ``amount`` units back and grant every queue head that now fits.

        A grant only *schedules* (the loop pops the entry later), so no
        release interleaves with the batch.  A hold's entry is a thunk
        allocated here: owned by the hold it would be a cycle per slice.
        """
        sim = self.sim
        now = sim.now
        self._busy_area += self.in_use * (now - self._last_change)
        self._last_change = now
        in_use = self.in_use - amount
        if in_use < 0:
            raise SimulationError(f"resource {self.name!r} over-released")
        queue = self._queue
        while queue and in_use + queue[0].amount <= self.capacity:
            waiter = queue.popleft()
            in_use += waiter.amount
            waiter._triggered = True
            entry = waiter
            if waiter.__class__ is _Hold:
                entry = _Soon()
                entry.fn = waiter._arm
            sim._seq += 1
            sim._nowq.append((sim._seq, entry))
        self.in_use = in_use

    def cancel(self, request: Event) -> None:
        """Abandon a grant request (interrupt-safe teardown).

        If the request was already granted, the capacity is released; if
        it is still queued, it is forgotten.  Processes that can be
        interrupted while waiting for a grant must use this instead of a
        bare ``release`` so capacity is never leaked either way.
        """
        if not isinstance(request, _Request) or request.resource is not self:
            raise SimulationError("cancel() takes a request issued by this resource")
        if request._triggered:
            self.release(request.amount)
            return
        try:
            self._queue.remove(request)
        except ValueError:
            pass

    def _account(self) -> None:
        now = self.sim.now
        self._busy_area += self.in_use * (now - self._last_change)
        self._last_change = now

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def mark_utilization(self) -> float:
        """Snapshot the busy-area now; returns the snapshot time.

        ``utilization(since=<returned time>)`` is then exact for the
        window between the mark and any later instant.
        """
        self._account()
        now = self.sim.now
        marks = self._busy_marks
        if marks[-1][0] != now:
            marks.append((now, self._busy_area))
        return now

    def utilization(self, since: float = 0.0) -> float:
        """Mean fraction of capacity in use between ``since`` and now.

        ``since`` must be 0, at-or-before the resource's creation, or a
        time previously snapshotted with :meth:`mark_utilization` —
        otherwise the busy area consumed before ``since`` is unknown and
        the quotient would overestimate, so the query raises instead of
        silently returning a wrong number.
        """
        self._account()
        now = self.sim.now
        elapsed = now - since
        if elapsed <= 0:
            return 0.0
        area = self._busy_area
        if since > 0.0:
            area -= self._area_at(since)
        return area / (elapsed * self.capacity)

    def _area_at(self, when: float) -> float:
        """Busy area accumulated by ``when`` (needs a snapshot there)."""
        marks = self._busy_marks
        if when <= marks[0][0]:
            return 0.0  # before the resource existed: nothing accumulated
        lo, hi = 0, len(marks) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if marks[mid][0] <= when:
                lo = mid
            else:
                hi = mid - 1
        time, area = marks[lo]
        if time != when:
            raise SimulationError(
                f"windowed utilization needs a mark_utilization() snapshot at "
                f"t={when:g}us (nearest earlier mark: t={time:g}us)"
            )
        return area

    def use(
        self, duration: Union[float, Callable[[], float]], amount: int = 1
    ) -> ProcessGenerator:
        """Hold ``amount`` units for ``duration`` microseconds: a duration,
        or a callable evaluated at the grant (see :meth:`hold`)."""
        hold = self.hold(duration, amount)
        try:
            yield hold
        finally:
            hold.finish()


#: Value of a spawned :class:`Chain` that did not run to its end: it was
#: interrupted, or a stage raised one of its ``absorb`` exceptions.
ABORTED = object()


class Chain(Event):
    """A straight-line sequence of stages that the event loop advances.

    For work with no control flow — an RDMA verb is six service times in
    a row — a generator is resumed through every ``yield from`` frame
    above it only to arm the next timer.  A chain is that work as data:
    ``program`` is a tuple of functions ``stage(chain)``, run in order.  A
    stage does its inline checks and accounting and returns what to wait
    for: a delay, ``chain.serve(resource, timing)``, or nothing — then the
    next stage follows at once.  The loop runs each stage with
    one plain call from the timer (or grant) that ended the stage before
    it, and every ``seq`` is allocated where the generator spelling
    allocated it (DESIGN §10, "Kernel-stepped chains").

    A chain stands for one of two things, and keeps that one's schedule:

    * *inline* (``spawn=None``) — generator frames of the process that
      yields it, as ``yield from`` ran them: the first stage runs in the
      constructor (and raises from it), the last one resumes the waiter
      in its own slot, a failing stage throws into the waiter there, and
      when the waiter is interrupted the chain unwinds with it.  It must
      wait at least once, and be yielded where it is built.
    * *spawned* (``spawn=name``) — a :class:`Process` of that name:
      bootstrap slot first, completion slot last, :meth:`interrupt` takes
      a wake-up slot, ``sim._active_process`` during a step, and the
      tracer's ``on_spawn``/``on_finish``.  An interrupt, or a stage
      raising one of the ``absorb`` exceptions, completes it with
      :data:`ABORTED`; anything else escapes into the event loop, as it
      did from a process.

    A subclass keeps its state in slots, set before ``Chain.__init__``;
    ``result`` becomes the value, ``_unwind`` undoes what stages did
    when the chain is cut short (the generator's ``finally`` blocks).
    """

    __slots__ = ("name", "result", "_program", "_pc", "_spawned", "_absorb", "_thunk",
                 "_release", "_hold", "_caller")

    def __init__(
        self,
        sim: "Simulator",
        program: tuple,
        spawn: Optional[str] = None,
        absorb: tuple = (),
    ):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self.result = None
        self._program = program
        #: Next stage; -1 once finished or cut short (stale timers then no-op).
        self._pc = 0
        #: Gives back what the stage in progress holds, if anything;
        #: ``_hold`` is then the queued hold behind it (None: served inline).
        self._release: Optional[Callable[[], None]] = None
        # One thunk for every slot this chain takes.  It is a cycle
        # (chain -> thunk -> step -> chain), cut when the chain ends.
        self._thunk = thunk = _Soon()
        thunk.fn = self._step
        traced = sim.tracer.enabled
        if traced:
            #: Whom an inline chain steps as (tracing only).
            self._caller = sim._active_process
            thunk.fn = partial(self._as_actor, thunk.fn)
        if spawn is None:
            self._spawned = False
            self.name = "chain"
            self._step()
        else:
            self._spawned = True
            self._absorb = absorb
            self.name = spawn
            if traced:
                sim.tracer.on_spawn(self)
            sim._seq += 1
            sim._nowq.append((sim._seq, thunk))

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    # -- stepping ----------------------------------------------------------

    def serve(self, resource: "Resource", timing: Any) -> Any:
        """For a stage to return: queue FIFO for a unit of ``resource``, keep
        it for ``timing`` — a duration, or a callable evaluated at the
        grant — and give it back when the next stage starts.  A free unit
        is taken inline, as ``try_acquire`` and a timer were; a busy one
        is a :meth:`Resource.hold`."""
        if resource.try_acquire():
            self._hold = None
            self._release = resource.release
            return timing() if callable(timing) else timing
        hold = self._hold = resource.hold(timing)
        hold.callbacks.append(self._thunk.fn)
        self._release = hold.finish
        return True

    def _step(self, _event: Optional[Event] = None) -> None:
        """Run stages up to the next wait: the loop's one call per stage."""
        pc = self._pc
        if pc < 0:
            return  # the timer an aborted chain left behind: one retired event
        try:
            release = self._release
            if release is not None:
                self._release = None
                release()
            program = self._program
            end = len(program)
            while pc < end:
                wait = program[pc](self)
                pc += 1
                if wait is None:
                    continue  # inline step: checks, accounting
                self._pc = pc
                if wait is not True:  # a delay: one seq, one heap entry, as a Timeout
                    if wait < 0:
                        raise SimulationError(f"negative timeout: {wait}")
                    sim = self.sim
                    sim._seq += 1
                    heapq.heappush(sim._heap, (sim.now + wait, sim._seq, self._thunk))
                return
        except Exception as exc:
            self._detach()
            self._abandon()
            if not self._spawned:
                if not self.callbacks:
                    raise  # still in the constructor: nobody else to tell
                self._exception = exc
                self._finish(None)
            elif isinstance(exc, self._absorb):
                self._finish(ABORTED)
            else:
                raise
            return
        self._finish(self.result)

    def _as_actor(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn`` as the process this chain stands for (tracing only)."""
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self if self._spawned else self._caller
        try:
            fn(*args)
        finally:
            sim._active_process = previous

    def _finish(self, value: Any) -> None:
        """Complete: in a slot of its own when spawned, in this one inline."""
        self._pc = -1
        self._thunk = None
        self._triggered = True
        self._value = value
        sim = self.sim
        if self._spawned:
            if sim.tracer.enabled:
                sim.tracer.on_finish(self)
            sim._seq += 1
            sim._nowq.append((sim._seq, self))
            return
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    # -- cutting it short --------------------------------------------------

    def interrupt(self, cause: Any = None) -> None:
        """Abort at the current instant; a no-op once finished or aborting.

        Spawned, exactly as a process whose generator turned the
        interrupt into a return value: detach now, unwind and complete
        with :data:`ABORTED` in a wake-up slot — or in the bootstrap slot
        when that has not run yet (a process died there with ``None``,
        its ``try`` never entered).  Inline, waiters get the
        :class:`Interrupt` at once.
        """
        if self._pc < 0:
            return
        sim = self.sim
        if not self._spawned:
            self._detach()
            self._abandon()
            self._exception = Interrupt(cause)
            self._finish(None)
        elif self._pc == 0:
            self._program = ()
            self.result = ABORTED
        else:
            wake = _Soon()
            wake.fn = self._abort
            if sim.tracer.enabled:
                wake.fn = partial(self._as_actor, wake.fn)
            self._detach()
            sim._seq += 1
            sim._nowq.append((sim._seq, wake))

    def _abort(self) -> None:
        self._abandon()
        self._finish(ABORTED)

    def _detach(self) -> None:
        """Stop listening, where an interrupted process stopped: a timer
        left behind pops as nothing, a hold granted from now on sees no
        waiter and never starts its clock."""
        self._pc = -1
        self._thunk = None
        if self._release is not None and self._hold is not None:
            self._hold.callbacks.clear()

    def _abandon(self) -> None:
        """Unwind, where the generator's ``finally`` blocks ran."""
        release = self._release
        if release is not None:
            self._release = None
            release()
        self._unwind()

    def _unwind(self) -> None:
        """Undo what the stages run so far left open (subclass hook)."""


class _Get(Event):
    """A pending ``Store.get()``; cancellable so interrupts don't eat items."""

    __slots__ = ("store", "_cancelled")

    def __init__(self, sim: "Simulator", store: "Store"):
        super().__init__(sim)
        self.store = store
        self._cancelled = False


class Store:
    """An unbounded FIFO channel of items between processes.

    Interrupt safety: a process interrupted while waiting on ``get()``
    detaches from its getter event, but the event would still sit in
    the waiter queue — and a ``put()`` succeeding it would hand the item
    to a process that never consumes it.  ``put()`` therefore skips
    getters that are cancelled or have no remaining observers, and
    :meth:`cancel` provides the explicit teardown path (mirroring
    :meth:`Resource.cancel`), returning an already-delivered item to the
    head of the queue.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[_Get] = deque()

    def put(self, item: Any) -> None:
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._cancelled or not getter.callbacks:
                # Dead getter: cancelled, or its waiter was interrupted
                # and detached.  Succeeding it would vanish the item.
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        event = _Get(self.sim, self)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def cancel(self, event: Event) -> None:
        """Abandon a ``get()`` (interrupt-safe teardown).

        If the getter already received an item that was never consumed,
        the item is returned to the *head* of the queue (it was the
        oldest); a still-pending getter is tombstoned and purged.
        """
        if not isinstance(event, _Get) or event.store is not self:
            raise SimulationError("cancel() takes a get() event issued by this store")
        if event._cancelled:
            return
        if event._triggered:
            self._items.appendleft(event._value)
            event._cancelled = True
            return
        event._cancelled = True
        event.callbacks.clear()
        try:
            self._getters.remove(event)
        except ValueError:
            pass  # already purged by put()

    def __len__(self) -> int:
        return len(self._items)


class _Never:
    """``run()``'s stop condition: it never triggers."""

    __slots__ = ()
    _triggered = False


_NEVER = _Never()
_INF = float("inf")


class Simulator:
    """Owns the virtual clock (microseconds) and runs the event loop."""

    def __init__(self):
        self.now: float = 0.0
        #: Future events: a heap of ``(when, seq, event)``.
        self._heap: list[tuple[float, int, Event]] = []
        #: Events triggered at the current instant: ``(seq, event)`` in
        #: FIFO (= seq) order.  Always drained before the clock advances.
        self._nowq: deque[tuple[int, Any]] = deque()
        self._seq = 0
        self._running = False
        #: Total events popped by the loop (perf accounting; includes
        #: skipped tombstones and ``call_soon`` thunks).
        self.events_processed = 0
        #: Span tracer; :data:`~repro.telemetry.NOOP_TRACER` unless a
        #: :class:`~repro.telemetry.TraceRecorder` is installed.
        self.tracer = NOOP_TRACER
        #: The process currently being stepped (tracing context).
        self._active_process: Optional[Process] = None

    # -- scheduling ------------------------------------------------------

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the current instant, after already-queued events."""
        soon = _Soon()
        soon.fn = fn
        self._seq += 1
        self._nowq.append((self._seq, soon))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def resource(self, capacity: int = 1, name: str = "") -> Resource:
        return Resource(self, capacity, name)

    def store(self, name: str = "") -> Store:
        return Store(self, name)

    # -- main loop -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or the clock passes ``until``."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            self._loop(_NEVER, _INF if until is None else until)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def run_until_complete(self, process: Process, limit: float = 1e15) -> Any:
        """Run until ``process`` finishes and return its value."""
        if not self._loop(process, limit):
            if self._heap:
                raise SimulationError(f"process {process.name!r} exceeded time limit")
            raise SimulationError(f"deadlock: process {process.name!r} cannot complete")
        return process.value

    def _loop(self, stop: Any, horizon: float) -> bool:
        """Retire events in ``(when, seq)`` order until ``stop`` has
        triggered (True), or the queues drain or the next timer lies past
        ``horizon`` (False).  The one event loop: the kernel spends the
        whole simulation in it, so its per-event path is inlined."""
        heappop = heapq.heappop
        nowq = self._nowq
        heap = self._heap
        events = 0
        try:
            while not stop._triggered:
                if nowq and not (heap and heap[0][0] <= self.now and heap[0][1] < nowq[0][0]):
                    _seq, event = nowq.popleft()
                else:
                    if not heap or heap[0][0] > horizon:
                        return False
                    when, _seq, event = heappop(heap)
                    if when < self.now:
                        raise SimulationError("time ran backwards")
                    self.now = when
                events += 1
                if event._cancelled:
                    continue
                if event.__class__ is _Soon:
                    event.fn()
                    continue
                event._processed = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
                elif event._exception is not None:
                    raise SimulationError(
                        f"failed event died unobserved: {event._exception!r}"
                    ) from event._exception
            return True
        finally:
            self.events_processed += events
