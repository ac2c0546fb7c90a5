"""Unit tests for the DES kernel: events, processes, resources."""

import random

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5)
        seen.append(sim.now)
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [5.0, 7.5]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1, value="hello")
        got.append(value)

    sim.spawn(proc())
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_process_return_value_via_run_until_complete():
    sim = Simulator()

    def proc():
        yield sim.timeout(3)
        return 42

    process = sim.spawn(proc())
    assert sim.run_until_complete(process) == 42
    assert sim.now == 3


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(10)
        gate.succeed("open")

    sim.spawn(waiter())
    sim.spawn(opener())
    sim.run()
    assert log == [(10.0, "open")]


def test_event_double_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_all_of_collects_values_in_order():
    sim = Simulator()
    results = []

    def proc():
        values = yield sim.all_of([sim.timeout(5, "a"), sim.timeout(2, "b")])
        results.append((sim.now, values))

    sim.spawn(proc())
    sim.run()
    assert results == [(5.0, ["a", "b"])]


def test_any_of_returns_first():
    sim = Simulator()
    results = []

    def proc():
        index, value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(2, "fast")])
        results.append((sim.now, index, value))

    sim.spawn(proc())
    sim.run()
    assert results == [(2.0, 1, "fast")]


def test_resource_fifo_ordering():
    sim = Simulator()
    resource = sim.resource(capacity=1)
    order = []

    def worker(name, hold):
        yield resource.request()
        order.append((name, sim.now))
        yield sim.timeout(hold)
        resource.release()

    sim.spawn(worker("a", 10))
    sim.spawn(worker("b", 10))
    sim.spawn(worker("c", 10))
    sim.run()
    assert order == [("a", 0.0), ("b", 10.0), ("c", 20.0)]


def test_resource_capacity_allows_parallelism():
    sim = Simulator()
    resource = sim.resource(capacity=2)
    done = []

    def worker(name):
        yield from resource.use(10)
        done.append((name, sim.now))

    for name in "abcd":
        sim.spawn(worker(name))
    sim.run()
    # Two run 0-10, two run 10-20.
    assert [t for _n, t in done] == [10.0, 10.0, 20.0, 20.0]


def test_resource_over_release_detected():
    sim = Simulator()
    resource = sim.resource(capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_utilization():
    sim = Simulator()
    resource = sim.resource(capacity=2)

    def worker():
        yield from resource.use(50)

    sim.spawn(worker())
    sim.run(until=100)
    # One of two cores busy for 50 of 100 us -> 25%.
    assert resource.utilization() == pytest.approx(0.25)


def test_store_fifo_between_processes():
    sim = Simulator()
    store = sim.store()
    received = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((sim.now, item))

    def producer():
        for index in range(3):
            yield sim.timeout(5)
            store.put(index)

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert received == [(5.0, 0), (10.0, 1), (15.0, 2)]


def test_interrupt_wakes_blocked_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1000)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    process = sim.spawn(sleeper())

    def interrupter():
        yield sim.timeout(7)
        process.interrupt(cause="wakeup")

    sim.spawn(interrupter())
    sim.run()
    assert log == [(7.0, "wakeup")]


def test_run_until_bound():
    sim = Simulator()

    def ticker():
        while True:
            yield sim.timeout(10)

    sim.spawn(ticker())
    sim.run(until=35)
    assert sim.now == 35


def test_deadlock_detected():
    sim = Simulator()

    def stuck():
        yield sim.event()  # never triggered

    process = sim.spawn(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)


def _seeded_scenario(seed=3):
    """Six workers with seeded delays over a two-unit resource; every
    step they finish is logged as ``(now, worker, step)``."""
    sim = Simulator()
    rng = random.Random(seed)
    res = sim.resource(capacity=2)
    log = []

    def worker(tag):
        for step in range(5):
            yield sim.timeout(rng.random() * 10)
            yield from res.use(rng.random() * 3)
            log.append((sim.now, tag, step))

    workers = [sim.spawn(worker(tag), name=f"w{tag}") for tag in range(6)]
    return sim, workers[2], log


def test_run_and_run_until_complete_share_one_loop():
    whole, _probe, whole_log = _seeded_scenario()
    whole.run()

    split, probe, split_log = _seeded_scenario()
    split.run_until_complete(probe)
    # Stopped at the probe's last step, with everything up to it retired.
    assert split.now == max(now for now, tag, _step in split_log if tag == 2)
    assert split_log == whole_log[:len(split_log)]
    until = (split.now + whole.now) / 2
    split.run(until=until)
    assert split.now == until
    assert split_log == [entry for entry in whole_log if entry[0] <= until]
    split.run()
    assert split_log == whole_log
    assert (split.now, split.events_processed) == (whole.now, whole.events_processed)


def test_loop_errors_keep_their_messages():
    sim = Simulator()

    def sleeper(delay):
        yield sim.timeout(delay)

    def stuck():
        yield sim.event()  # never triggered

    late = sim.spawn(sleeper(100), name="late")
    with pytest.raises(SimulationError, match="^process 'late' exceeded time limit$"):
        sim.run_until_complete(late, limit=10)
    sim.run_until_complete(late)
    waiter = sim.spawn(stuck(), name="stuck")
    with pytest.raises(SimulationError, match="^deadlock: process 'stuck' cannot complete$"):
        sim.run_until_complete(waiter)

    def reenter():
        yield sim.timeout(1)
        sim.run()

    sim.spawn(reenter())
    with pytest.raises(SimulationError, match="^simulator is not reentrant$"):
        sim.run()


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError, match="expected Event"):
        sim.run()


def test_same_instant_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in range(5):
        sim.spawn(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_all_of_propagates_failure():
    sim = Simulator()
    bad = sim.event()
    caught = []

    def waiter():
        try:
            yield sim.all_of([sim.timeout(10), bad])
        except RuntimeError as exc:
            caught.append((sim.now, str(exc)))

    sim.spawn(waiter())
    bad.fail(RuntimeError("child failed"))
    sim.run()
    assert caught == [(0.0, "child failed")]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    seen = []

    def waiter():
        values = yield sim.all_of([])
        seen.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert seen == [(0.0, [])]


def test_event_value_before_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_late_callback_fires_at_current_instant():
    sim = Simulator()
    event = sim.timeout(5)
    seen = []

    def late_subscriber():
        yield sim.timeout(10)  # event already processed by now
        event.add_callback(lambda e: seen.append(sim.now))

    sim.spawn(late_subscriber())
    sim.run()
    assert seen == [10.0]


def test_store_multiple_waiters_fifo():
    sim = Simulator()
    store = sim.store()
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    sim.spawn(consumer("a"))
    sim.spawn(consumer("b"))
    store.put(1)
    store.put(2)
    sim.run()
    assert got == [("a", 1), ("b", 2)]
