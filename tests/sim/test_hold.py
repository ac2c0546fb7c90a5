"""``Resource.hold``: the kernel-advanced "queue, keep it for x, give it back".

A hold must produce the schedule of the spelling it replaces —
``request()``, then ``timeout()`` or an event, then ``release()``, with
``cancel()`` on the interrupt paths — with one difference: a duration
for a waiter that is already waiting starts at the grant, inside
``release()``, instead of in a now-queue slot of its own.  It therefore
fires before an equal-delay timer armed later in the grant's instant,
and it retires one event fewer.  That spelling is kept here as the
reference, on a resource that arms such a timer at the grant.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, SimulationError, Simulator
from repro.sim.kernel import Event, Resource


def via_hold(res, what, grants):
    hold = res.hold(what)
    try:
        return (yield hold)
    finally:
        hold.finish()
        grants.append(hold.granted_at)


class ArmsAtGrant(Resource):
    """The reference resource: ``request()``/``release()`` as the kernel has
    them, plus the hold contract's one change.  A granted request whose
    waiter is waiting and that registered a timer in ``at_grant`` gets the
    timer armed right after the grant, in grant order."""

    def __init__(self, sim, capacity):
        super().__init__(sim, capacity)
        self.at_grant = {}
        #: Timers armed at a grant: one grant slot each that a hold does not take.
        self.armed = 0

    def release(self, amount=1):
        queued = list(self._queue)
        super().release(amount)
        for request in queued[: len(queued) - len(self._queue)]:
            start = self.at_grant.pop(request, None)
            if start is not None and request.callbacks:
                start()
                self.armed += 1


def via_request(res, what, grants):
    """The parent commit's spelling of the same thing, on :class:`ArmsAtGrant`."""
    sim = res.sim
    request = res.request()
    started = []  # (when the clock started, its timer)

    def start():
        started.append((sim.now, sim.timeout(what() if callable(what) else what)))

    if not isinstance(what, Event):
        res.at_grant[request] = start  # too late if request() granted it at once
    try:
        yield request
        if isinstance(what, Event):
            started.append((sim.now, None))
            return (yield what)
        if not started:
            start()
        yield started[0][1]
    finally:
        res.at_grant.pop(request, None)
        res.cancel(request)
        grants.append(started[0][0] if started else None)


# -- the four states finish() can find a hold in --------------------------------


def _interrupted_hold(interrupt_at, expect_granted, expect_granted_at, on_event=False):
    """One unit; ``first`` keeps it over [0, 10); ``victim`` queues at t=1
    for 5 us, or until an event that fires at t=15."""
    sim = Simulator()
    res = sim.resource(capacity=1)
    seen = {}
    what = sim.timeout(15) if on_event else 5

    def victim():
        yield sim.timeout(1)
        hold = res.hold(what)
        try:
            yield hold
        except Interrupt:
            seen["interrupted"] = (sim.now, hold.triggered, hold.granted_at)
        finally:
            hold.finish()
            hold.finish()  # idempotent: the fourth state

    def later():
        yield sim.timeout(2)
        yield from res.use(1)
        seen["later_done"] = sim.now

    sim.spawn(res.use(10))
    process = sim.spawn(victim())
    sim.spawn(later())

    def interrupter():
        # In two legs, so that the second timer is armed after first's:
        # at an equal instant it fires later (seq order).
        yield sim.timeout(interrupt_at / 2)
        yield sim.timeout(interrupt_at / 2)
        process.interrupt()

    sim.spawn(interrupter())
    sim.run()
    assert seen["interrupted"] == (interrupt_at, expect_granted, expect_granted_at)
    assert res.in_use == 0 and res.queue_length == 0
    return seen


def test_interrupt_while_queued_leaves_the_queue():
    seen = _interrupted_hold(4, expect_granted=False, expect_granted_at=None)
    assert seen["later_done"] == 11  # granted at 10, straight after `first`


def test_interrupt_between_grant_and_thunk_gives_the_unit_back():
    # A hold on an event keeps its grant slot (the `_arm` thunk).  At t=10
    # first releases, the victim is granted, and the interrupt lands
    # before that slot is popped: the hold never subscribes, the unit goes
    # straight on to `later`.
    seen = _interrupted_hold(10, expect_granted=True, expect_granted_at=None, on_event=True)
    assert seen["later_done"] == 11


def test_interrupt_in_the_grant_instant_gives_the_unit_back():
    # A duration starts at the grant, inside first's release: the
    # interrupt in that instant finds the victim holding, and the unit
    # goes straight on to `later` all the same.
    seen = _interrupted_hold(10, expect_granted=True, expect_granted_at=10)
    assert seen["later_done"] == 11


def test_hold_granted_in_release_fires_before_an_equal_timer_armed_later():
    """The tie rule: a duration is armed at its grant, so at an equal end
    time it fires before a timer armed later in the grant's instant.  (With
    a grant slot, the timer armed between the grant and the slot fired
    first.)"""
    sim = Simulator()
    res = sim.resource(capacity=1)
    order = []

    def queued():
        yield from res.use(5)  # queued at t=0, granted at t=10: ends at 15
        order.append(("hold", sim.now))

    def lockstep():
        # In two legs, so that its t=10 timer pops after first's release.
        yield sim.timeout(5)
        yield sim.timeout(5)
        yield sim.timeout(5)  # armed at t=10, after the grant: ends at 15
        order.append(("timer", sim.now))

    sim.spawn(res.use(10))
    sim.spawn(queued())
    sim.spawn(lockstep())
    sim.run()
    assert order == [("hold", 15), ("timer", 15)]


def test_interrupt_while_holding_releases():
    seen = _interrupted_hold(12, expect_granted=True, expect_granted_at=10)
    assert seen["later_done"] == 13


def test_hold_on_an_event_delivers_value_and_failure():
    sim = Simulator()
    res = sim.resource(capacity=1)
    good, bad = sim.event(), sim.event()
    out = []

    def spinner(event):
        try:
            out.append((yield from via_hold(res, event, [])))
        except RuntimeError as exc:
            out.append(str(exc))
        out.append(sim.now)

    def fire():
        yield sim.timeout(3)
        good.succeed("payload")
        yield sim.timeout(3)
        bad.fail(RuntimeError("boom"))

    sim.spawn(spinner(good))
    sim.spawn(spinner(bad))
    sim.spawn(fire())
    sim.run()
    assert out == ["payload", 3, "boom", 6]
    assert res.in_use == 0


def test_negative_hold_is_a_kernel_error():
    sim = Simulator()
    res = sim.resource(capacity=1)
    sim.spawn(res.use(-1))
    with pytest.raises(SimulationError, match="negative hold"):
        sim.run()


# -- Resource.use: the leak the old spelling had ---------------------------------


def test_interrupting_a_queued_use_leaks_nothing():
    """``use()`` used to ``yield self.request()`` outside its ``try``: an
    interrupt while queued orphaned the request, which was later granted
    to the dead process and never released."""
    sim = Simulator()
    res = sim.resource(capacity=1)
    sim.spawn(res.use(10))
    done = []

    def queued():
        try:
            yield from res.use(5)
        except Interrupt:
            pass

    def later():
        yield sim.timeout(20)
        yield from res.use(1)
        done.append(sim.now)

    victim = sim.spawn(queued())
    sim.spawn(later())

    def interrupter():
        yield sim.timeout(3)
        victim.interrupt()

    sim.spawn(interrupter())
    sim.run()
    assert res.in_use == 0 and res.queue_length == 0
    assert done == [21]


# -- schedule equivalence ---------------------------------------------------------

#: Small pools, ints and floats mixed, so equal durations, same-instant
#: arrivals and lock-stepped clients (hence ``seq`` ties) are the norm.
TIMES = st.sampled_from([0, 1, 2, 3, 5, 0.5, 1.5, 2.5, 0.1, 0.3])
WHATS = st.one_of(
    st.tuples(st.just("for"), TIMES),
    st.tuples(st.just("drawn"), TIMES),
    st.tuples(st.just("until"), st.integers(min_value=0, max_value=2)),
    # Not on the resource: a timer that can tie with a hold's end.
    st.tuples(st.just("sleep"), TIMES),
)
JOBS = st.lists(
    st.tuples(
        TIMES,  # arrival
        st.lists(WHATS, min_size=1, max_size=3),  # consecutive holds and sleeps
        st.one_of(st.none(), st.floats(min_value=0, max_value=12), TIMES),  # interrupt at
    ),
    min_size=1,
    max_size=8,
)
#: Shared events: (fires at, succeeds?)
EVENTS = st.lists(st.tuples(TIMES, st.booleans()), min_size=3, max_size=3)


def _run_schedule(variant, capacity, jobs, events):
    sim = Simulator()
    res = ArmsAtGrant(sim, capacity)
    shared = [sim.event() for _ in events]
    for event in shared:
        event.callbacks.append(lambda _e: None)  # a failure is always observed
    draws = [0]

    def drawn(base):
        # Stateful service time: equal only if evaluated in the same order.
        def timing():
            draws[0] += 1
            return base + draws[0] % 3
        return timing

    log = []

    def job(index, arrival, whats):
        yield sim.timeout(arrival)
        for kind, arg in whats:
            if kind == "sleep":
                yield sim.timeout(arg)
                log.append((index, "slept", sim.now))
                continue
            what = arg if kind == "for" else drawn(arg) if kind == "drawn" else shared[arg]
            grants = []
            begin = sim.now
            try:
                value = yield from variant(res, what, grants)
                outcome = ("done", value)
            except Interrupt:
                outcome = ("interrupted", None)
            except RuntimeError as exc:
                outcome = ("failed", str(exc))
            log.append((index, begin, grants[0], sim.now, outcome))
            if outcome[0] == "interrupted":
                return

    def fire(event, at, ok, index):
        yield sim.timeout(at)
        if ok:
            event.succeed(index)
        else:
            event.fail(RuntimeError(f"event {index}"))

    def interrupter(process, at):
        yield sim.timeout(at)
        process.interrupt()

    processes = [sim.spawn(job(i, arrival, whats)) for i, (arrival, whats, _at) in enumerate(jobs)]
    for index, (event, (at, ok)) in enumerate(zip(shared, events)):
        sim.spawn(fire(event, at, ok, index))
    for process, (_arrival, _whats, at) in zip(processes, jobs):
        if at is not None:
            sim.spawn(interrupter(process, at))
    sim.run()
    assert res.in_use == 0 and res.queue_length == 0
    schedule = (log, sim.now, res.utilization(), draws[0])
    return schedule, sim.events_processed, res.armed


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(capacity=st.integers(min_value=1, max_value=3), jobs=JOBS, events=EVENTS)
def test_hold_schedules_exactly_like_request_timeout_release(capacity, jobs, events):
    """Property: per process the same (queued, granted, ended) floats and
    outcome, the same completion order, final clock, busy-time integral
    and order of service-time draws; and exactly one event fewer per
    duration armed at its grant."""
    held, held_events, _ = _run_schedule(via_hold, capacity, jobs, events)
    reference, reference_events, armed = _run_schedule(via_request, capacity, jobs, events)
    assert held == reference
    assert held_events == reference_events - armed
