"""Tests for the PR-6 kernel fixes and the fast-loop scheduling discipline.

Covers the behaviors DESIGN.md §10 documents:

* windowed ``Resource.utilization`` anchored on ``mark_utilization``
  snapshots (the old implementation silently overestimated),
* interrupt-safe ``Store`` (dead getters never eat items; ``cancel``
  re-queues a delivered-but-unconsumed item),
* ``AnyOf`` detaching from losers so a late losing failure escalates
  instead of dying unobserved, and auto-tombstoning losing timers,
* lazy ``Timeout.cancel`` tombstones (skipped heap pops, no callbacks),
* now-queue determinism: same-instant events fire in trigger order and
  interleave with heap entries by global ``seq``,
* ``call_soon`` ordering and the unobserved-failure escalation rule.
"""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator
from repro.sim.kernel import Timeout


# -- windowed utilization ---------------------------------------------------


def test_utilization_full_horizon_unchanged():
    sim = Simulator()
    res = sim.resource(capacity=1)
    sim.spawn(res.use(40))
    sim.run(until=100)
    assert res.utilization() == pytest.approx(0.4)


def test_windowed_utilization_is_exact_at_marks():
    sim = Simulator()
    res = sim.resource(capacity=2)

    def load():
        # [0, 50): one of two cores busy; [50, 100): both idle.
        yield from res.use(50)

    sim.spawn(load())
    marks = {}

    def prober():
        yield sim.timeout(25)
        marks[25] = res.mark_utilization()
        yield sim.timeout(25)
        marks[50] = res.mark_utilization()

    sim.spawn(prober())
    sim.run(until=100)
    # Window [25, 100): busy area = 1 core * 25us of 150 core-us.
    assert res.utilization(since=marks[25]) == pytest.approx(25 / 150)
    # Window [50, 100): fully idle.
    assert res.utilization(since=marks[50]) == pytest.approx(0.0)


def test_windowed_utilization_would_have_overestimated():
    # The pre-fix implementation divided the *whole-life* busy area by
    # the window width: with a long busy prefix it could exceed 1.0.
    sim = Simulator()
    res = sim.resource(capacity=1)
    sim.spawn(res.use(90))
    mark = []

    def prober():
        yield sim.timeout(90)
        mark.append(res.mark_utilization())

    sim.spawn(prober())
    sim.run(until=100)
    windowed = res.utilization(since=mark[0])
    assert windowed == pytest.approx(0.0)  # old math: 90 / 10 = 9.0
    assert windowed <= 1.0


def test_windowed_utilization_requires_a_mark():
    sim = Simulator()
    res = sim.resource(capacity=1)
    sim.spawn(res.use(10))
    sim.run(until=20)
    with pytest.raises(SimulationError, match="mark_utilization"):
        res.utilization(since=5.0)


def test_windowed_utilization_before_creation_is_exact():
    sim = Simulator()
    sim.run(until=10)  # resource born at t=10
    res = sim.resource(capacity=1)
    sim.spawn(res.use(10))
    sim.run(until=30)
    # since=0 predates the resource: nothing accumulated before it.
    assert res.utilization(since=0.0) == pytest.approx(10 / 30)


def test_cpu_windowed_utilization_gauge_path():
    from repro.sim.cpu import Cpu

    sim = Simulator()
    cpu = Cpu(sim, cores=1, name="srv")

    def work():
        yield from cpu.compute(30)

    sim.spawn(work())
    since = []

    def prober():
        yield sim.timeout(30)
        since.append(cpu.mark_utilization())

    sim.spawn(prober())
    sim.run(until=60)
    assert cpu.utilization() == pytest.approx(0.5)
    assert cpu.utilization(since=since[0]) == pytest.approx(0.0)


# -- interrupt-safe Store ---------------------------------------------------


def test_store_put_skips_interrupted_getter():
    sim = Simulator()
    store = sim.store()
    received = []

    def victim():
        try:
            item = yield store.get()
            received.append(("victim", item))
        except Interrupt:
            pass

    def survivor():
        yield sim.timeout(2)
        item = yield store.get()
        received.append(("survivor", item))

    v = sim.spawn(victim())
    sim.spawn(survivor())

    def driver():
        yield sim.timeout(1)
        v.interrupt(cause="test")
        yield sim.timeout(2)
        store.put("payload")

    sim.spawn(driver())
    sim.run()
    # Pre-fix: put() succeeded the victim's detached getter and the
    # item vanished — the survivor deadlocked.
    assert received == [("survivor", "payload")]


def test_store_cancel_requeues_delivered_item():
    sim = Simulator()
    store = sim.store()
    store.put("oldest")
    store.put("newer")
    event = store.get()  # delivered immediately: event carries "oldest"
    assert event.triggered
    store.cancel(event)  # never consumed: back to the head
    got = []

    def consumer():
        first = yield store.get()
        second = yield store.get()
        got.extend([first, second])

    sim.spawn(consumer())
    sim.run()
    assert got == ["oldest", "newer"]


def test_store_cancel_pending_getter_purges_it():
    sim = Simulator()
    store = sim.store()
    event = store.get()
    store.cancel(event)
    assert event.cancelled
    store.put("item")
    assert len(store) == 1  # parked, not fed to the cancelled getter
    store.cancel(event)  # idempotent
    with pytest.raises(SimulationError):
        store.cancel(sim.event())  # foreign event rejected


# -- AnyOf loser handling ---------------------------------------------------


def test_any_of_losing_failure_escalates():
    sim = Simulator()
    loser = sim.event()

    def racer():
        yield sim.any_of([sim.timeout(1), loser])

    sim.spawn(racer())

    def late_failure():
        yield sim.timeout(5)
        loser.fail(RuntimeError("lost data"))

    sim.spawn(late_failure())
    # Pre-fix the composite's _triggered guard swallowed this silently.
    with pytest.raises(SimulationError, match="died unobserved"):
        sim.run()


def test_any_of_losing_failure_observable_by_design():
    sim = Simulator()
    loser = sim.event()
    observed = []

    def racer():
        yield sim.any_of([sim.timeout(1), loser])
        loser.add_callback(lambda e: observed.append(e._exception))

    sim.spawn(racer())

    def late_failure():
        yield sim.timeout(5)
        loser.fail(RuntimeError("lost data"))

    sim.spawn(late_failure())
    sim.run()
    assert len(observed) == 1 and str(observed[0]) == "lost data"


def test_any_of_tombstones_losing_timer():
    sim = Simulator()
    winner = sim.event()
    timer = sim.timeout(1000)
    done = []

    def racer():
        index, value = yield sim.any_of([winner, timer])
        done.append((index, value))

    sim.spawn(racer())

    def fire():
        yield sim.timeout(1)
        winner.succeed("fast")

    sim.spawn(fire())
    sim.run()
    assert done == [(0, "fast")]
    assert timer.cancelled  # no other waiters: auto-tombstoned
    assert not timer.processed
    assert sim.now == 1000.0  # its heap entry still drained (skipped)


def test_any_of_does_not_cancel_shared_losing_timer():
    sim = Simulator()
    winner = sim.event()
    timer = sim.timeout(10)
    fired = []
    timer.add_callback(lambda e: fired.append(sim.now))

    def racer():
        yield sim.any_of([winner, timer])

    sim.spawn(racer())

    def fire():
        yield sim.timeout(1)
        winner.succeed()

    sim.spawn(fire())
    sim.run()
    assert not timer.cancelled  # an outside waiter still needs it
    assert fired == [10.0]


# -- lazy Timeout cancellation ----------------------------------------------


def test_cancelled_timeout_never_fires():
    sim = Simulator()
    timer = sim.timeout(10)
    fired = []
    timer.add_callback(lambda e: fired.append(sim.now))
    timer.cancel()
    timer.cancel()  # idempotent
    sim.run()
    assert fired == []
    assert timer.cancelled and not timer.processed


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    timer = sim.timeout(5)
    sim.run()
    assert timer.processed
    timer.cancel()
    assert not timer.cancelled


def test_waiting_on_cancelled_timer_is_an_error():
    sim = Simulator()
    timer = sim.timeout(10)
    timer.cancel()
    with pytest.raises(SimulationError, match="cancelled"):
        timer.add_callback(lambda e: None)

    def proc():
        yield timer

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="cancelled"):
        sim.run()


# -- now-queue discipline ---------------------------------------------------


def test_same_instant_events_fire_in_trigger_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        event = sim.event()
        event.add_callback(lambda e, t=tag: order.append(t))
        event.succeed()
    sim.run()
    assert order == ["a", "b", "c"]


def test_nowq_merges_with_due_heap_entries_by_seq():
    # A timer scheduled *before* a same-instant trigger must fire first
    # when both are due at the same now (global seq order).
    sim = Simulator()
    order = []

    def proc():
        early_timer = sim.timeout(5)  # seq N
        early_timer.add_callback(lambda e: order.append("timer"))
        yield sim.timeout(5)  # seq N+1: resumes us at t=5
        triggered = sim.event()
        triggered.add_callback(lambda e: order.append("triggered"))
        triggered.succeed()  # seq N+2, same instant
        late_timer = sim.timeout(0)  # seq N+3, heap entry due now
        late_timer.add_callback(lambda e: order.append("zero-delay"))
        yield triggered

    sim.spawn(proc())
    sim.run()
    assert order == ["timer", "triggered", "zero-delay"]


def test_call_soon_runs_after_queued_events():
    sim = Simulator()
    order = []
    first = sim.event()
    first.add_callback(lambda e: order.append("event"))
    first.succeed()
    sim.call_soon(lambda: order.append("soon"))
    sim.run()
    assert order == ["event", "soon"]


def test_events_processed_counter_advances():
    sim = Simulator()

    def proc():
        for _ in range(10):
            yield sim.timeout(1)

    sim.spawn(proc())
    sim.run()
    assert sim.events_processed >= 10


# -- unobserved failures ----------------------------------------------------


def test_unobserved_failed_event_raises():
    sim = Simulator()
    sim.event().fail(RuntimeError("nobody is listening"))
    with pytest.raises(SimulationError, match="died unobserved"):
        sim.run()


def test_observed_failed_event_is_fine():
    sim = Simulator()
    event = sim.event()
    caught = []
    event.add_callback(lambda e: caught.append(e._exception))
    event.fail(RuntimeError("handled"))
    sim.run()
    assert len(caught) == 1


def test_resource_grant_batch_preserves_fifo():
    sim = Simulator()
    res = sim.resource(capacity=2)
    order = []

    def worker(tag, hold):
        yield res.request()
        order.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    for index, tag in enumerate("abcd"):
        sim.spawn(worker(tag, 10))
    sim.run()
    assert order == [("a", 0.0), ("b", 0.0), ("c", 10.0), ("d", 10.0)]
    assert res.in_use == 0


def test_timeout_repr_fields():
    sim = Simulator()
    timer = sim.timeout(7, value="v")
    assert isinstance(timer, Timeout)
    assert timer.delay == 7
    sim.run()
    assert timer.value == "v"
