"""The clock advanced in place: a timer that would be the next event, and
whose only effect is to resume the step arming it, is not armed.

``Cpu.compute`` on a free core, ``Cpu.async_wait``'s reschedule delay and
a chain stage that returns a delay advance ``sim.now`` themselves and
carry on when nothing else is due first.  The schedule must be the one
of the spelling with the timer — kept here as the reference: a
``try_acquire`` / ``Timeout`` / ``release`` CPU and chain stages whose
delays are armed as timers — and every timer not armed is exactly one
event not retired: ``events + fast_forwards`` equals the reference's
events.  Each guard of the predicate has a minimal reproducer below.
"""

import heapq

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Chain, Cpu, Interrupt, Simulator
from repro.sim.kernel import Timeout
from repro.telemetry import install


class TimerCpu(Cpu):
    """The reference CPU: every slice and switch-in delay is a timer."""

    def compute(self, duration_us):
        if duration_us <= 0:
            return
        if not self.cores.try_acquire():
            hold = self.cores.hold(duration_us)
            try:
                yield hold
            finally:
                hold.finish()
            return
        try:
            yield Timeout(self.sim, duration_us)
        finally:
            self.cores.release()

    def async_wait(self, event):
        yield event
        self.context_switches += 1
        yield Timeout(self.sim, self.reschedule_delay_us)
        yield from self.compute(self.context_switch_us)
        return event.value


def _armed(stage):
    """The reference stage: a delay it returns is pushed onto the heap as
    the timer that steps the chain, and the chain is told it waits."""

    def run(chain):
        wait = stage(chain)
        if wait is None or wait is True:
            return wait
        sim = chain.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now + wait, sim._seq, chain._thunk))
        return True

    return run


# -- one random world, two spellings ------------------------------------------------


def _world(reference, traced, cores, capacities, jobs, gates, interrupts):
    sim = Simulator()
    if traced:
        install(sim)
    cpu = (TimerCpu if reference else Cpu)(sim, cores=cores, name="cpu")
    resources = [sim.resource(capacity=c) for c in capacities]
    gate_events = [sim.event() for _ in gates]
    log = []

    def program(tag, stages):
        def stage_fn(index, stage):
            def run(chain):
                log.append((tag, "stage", index, sim.now))
                if stage[0] == "delay":
                    return stage[1]
                if stage[0] == "serve":
                    return chain.serve(resources[stage[1] % len(resources)], stage[2])
                return None

            return _armed(run) if reference else run

        return tuple(stage_fn(i, s) for i, s in enumerate(stages))

    def helper(tag, chain):
        yield chain
        log.append((tag, "joined", sim.now))
        yield from cpu.compute(1)
        log.append((tag, "helped", sim.now))

    def run_op(tag, op):
        kind = op[0]
        if kind == "compute":
            yield from cpu.compute(op[1])
        elif kind == "async":
            yield from cpu.async_wait(sim.timeout(op[1]))
        elif kind == "sleep":
            yield sim.timeout(op[1])
        elif kind == "hold":
            yield from resources[op[1] % len(resources)].use(op[2])
        elif kind == "gate":
            yield gate_events[op[1] % len(gate_events)]
        elif kind == "chain":
            yield Chain(sim, program(tag, op[1]))
        else:  # "post": a spawned chain, waited on by this job and its helpers
            chain = Chain(sim, program(tag, op[1]), spawn=f"post{tag}")
            for index in range(op[2]):
                sim.spawn(helper((tag, index), chain))
            log.append((tag, "posted", sim.now))
            yield chain

    def job(tag, arrival, ops):
        yield sim.timeout(arrival)
        for index, op in enumerate(ops):
            try:
                yield from run_op(tag, op)
                log.append((tag, index, sim.now))
            except Interrupt as exc:
                log.append((tag, index, "interrupted", exc.cause, sim.now))

    def opener(index, at):
        yield sim.timeout(at)
        gate_events[index].succeed()

    processes = [sim.spawn(job(tag, *spec)) for tag, spec in enumerate(jobs)]
    for index, at in enumerate(gates):
        sim.spawn(opener(index, at))

    def interrupter(target, at, times):
        yield sim.timeout(at)
        for n in range(times):
            processes[target % len(processes)].interrupt(n)

    for spec in interrupts:
        sim.spawn(interrupter(*spec))
    sim.run()
    busy = tuple(r.utilization() for r in resources)
    observed = (log, sim.now, busy, cpu.utilization(), cpu.context_switches)
    return observed, sim.events_processed, sim.fast_forwards


TIMES = st.sampled_from([0, 1, 2, 3, 5, 0.5, 1.5, 2.5, 0.1, 0.3])
STAGE_WAITS = st.one_of(
    st.tuples(st.just("delay"), TIMES),
    st.tuples(st.just("serve"), st.integers(0, 2), TIMES),
)
STAGES = st.builds(
    lambda head, wait, tail: head + [wait] + tail,
    st.lists(st.one_of(STAGE_WAITS, st.just(("note",))), max_size=2),
    STAGE_WAITS,
    st.lists(st.one_of(STAGE_WAITS, st.just(("note",))), max_size=2),
)
OPS = st.one_of(
    st.tuples(st.just("compute"), TIMES),
    st.tuples(st.just("async"), TIMES),
    st.tuples(st.just("sleep"), TIMES),
    st.tuples(st.just("hold"), st.integers(0, 2), TIMES),
    st.tuples(st.just("gate"), st.integers(0, 1)),
    st.tuples(st.just("chain"), STAGES),
    st.tuples(st.just("post"), STAGES, st.integers(0, 2)),
)
JOBS = st.lists(st.tuples(TIMES, st.lists(OPS, min_size=1, max_size=6)), min_size=1, max_size=5)
INTERRUPTS = st.lists(
    st.tuples(st.integers(0, 4), st.one_of(TIMES, st.floats(0, 12)), st.integers(1, 2)),
    max_size=2,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cores=st.integers(1, 2),
    capacities=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    jobs=JOBS,
    gates=st.lists(TIMES, min_size=2, max_size=2),
    interrupts=INTERRUPTS,
    traced=st.booleans(),
)
def test_clock_advanced_in_place_keeps_the_schedule_of_the_timers(
    cores, capacities, jobs, gates, interrupts, traced
):
    """Property: the same steps at the same instants in the same order,
    the same busy-time integrals and final clock — with same-instant
    wake-ups, queued cores, interrupts (twice in one instant included),
    chains posted with several waiters and tracing on or off — and each
    clock advanced in place is one event the reference retires."""
    reference, reference_events, none = _world(
        True, False, cores, capacities, jobs, gates, interrupts
    )
    observed, events, fast_forwards = _world(
        False, traced, cores, capacities, jobs, gates, interrupts
    )
    assert none == 0
    assert observed == reference
    assert events + fast_forwards == reference_events


# -- the guards, one reproducer each ------------------------------------------------


def test_a_free_core_slice_retires_no_event():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)

    def work():
        yield from cpu.compute(5)
        yield from cpu.compute(2)
        return sim.now

    assert sim.run_until_complete(sim.spawn(work())) == 7
    assert sim.fast_forwards == 2
    assert sim.events_processed == 1  # the bootstrap: the loop stops at the completion
    assert cpu.utilization() == 1.0


def test_the_second_waiter_of_an_event_runs_at_its_instant():
    # More is due at this instant while the loop calls an event's waiters.
    sim = Simulator()
    cpu = Cpu(sim, cores=2)
    gate, log = sim.event(), []

    def first():
        yield gate
        yield from cpu.compute(5)
        log.append(("first", sim.now))

    def second():
        yield gate
        log.append(("second", sim.now))

    def opener():
        yield sim.timeout(1)
        gate.succeed()
        yield sim.timeout(50)  # alive: no completion slot is due

    for body in (first(), second(), opener()):
        sim.spawn(body)
    sim.run()
    assert log == [("second", 1), ("first", 6)]


def test_an_event_succeeded_in_the_step_is_delivered_first():
    # A slot in the now-queue is due before any timer.
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    ready, log = sim.event(), []

    def waiter():
        yield ready
        log.append(("waiter", sim.now))

    def producer():
        yield sim.timeout(1)
        ready.succeed()
        yield from cpu.compute(5)
        log.append(("producer", sim.now))

    sim.spawn(waiter())
    sim.spawn(producer())
    sim.run()
    assert log == [("waiter", 1), ("producer", 6)]


def test_a_verb_posted_then_sync_waited_starts_where_it_is_posted():
    # A chain's first stage runs in its constructor: the poster goes on.
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    log = []

    def stage(chain):
        log.append(("stage", sim.now))
        return 3.0

    def poster():
        yield sim.timeout(1)
        verb = Chain(sim, (stage, stage), spawn="verb")
        log.append(("posted", sim.now))
        yield from cpu.sync_wait(verb)
        log.append(("reaped", sim.now))

    sim.spawn(poster())
    sim.run()
    assert log == [("stage", 1), ("posted", 1), ("stage", 4), ("reaped", 7)]
    assert sim.fast_forwards == 1  # the second stage's delay, in the first timer's slot


def test_a_resume_nested_in_another_step_leaves_that_step_its_instant():
    # Interrupting an inline chain calls its waiter in the interrupter's step.
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    chains, log = [], []

    def waiter():
        chains.append(Chain(sim, (lambda chain: 10.0,)))
        try:
            yield chains[0]
        except Interrupt:
            yield from cpu.compute(5)
            log.append(("waiter", sim.now))

    def interrupter():
        yield sim.timeout(2)
        chains[0].interrupt("why")
        log.append(("interrupter", sim.now))

    sim.spawn(waiter())
    sim.spawn(interrupter())
    sim.run()
    assert log == [("interrupter", 2), ("waiter", 7)]


def test_run_until_never_leaves_the_clock_past_its_horizon():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    log = []

    def work():
        yield from cpu.compute(10)
        log.append(sim.now)

    sim.spawn(work())
    sim.run(until=5)
    assert (sim.now, log) == (5, [])
    sim.run()
    assert (sim.now, log) == (10, [10])


def test_host_code_between_runs_arms_its_timers():
    # Outside the loop the horizon is -inf: nothing advances the clock.
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    sim.spawn(cpu.compute(3))
    sim.run()
    slice_ = cpu.compute(4)
    assert isinstance(next(slice_), Timeout)
    assert (sim.now, sim.fast_forwards) == (3, 1)  # only the slice the loop ran
    slice_.close()


def test_a_timer_at_the_same_instant_with_an_earlier_seq_fires_first():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    log = []

    def sleeper():
        yield sim.timeout(5)
        log.append("sleeper")

    def worker():
        yield from cpu.compute(5)
        log.append("worker")

    sim.spawn(sleeper())
    sim.spawn(worker())
    sim.run()
    assert log == ["sleeper", "worker"] and sim.now == 5


def test_the_loop_stops_where_its_stop_event_triggered():
    # A chain completes in its own slot and calls its waiter there; the
    # waiter must not run on past the instant run_until_complete stops at.
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    verb = Chain(sim, (lambda chain: 3.0,), spawn="verb")
    log = []

    def waiter():
        yield verb
        yield from cpu.compute(5)
        log.append(sim.now)

    sim.spawn(waiter())
    sim.run_until_complete(verb)
    assert (sim.now, log) == (3, [])
    sim.run()
    assert (sim.now, log) == (8, [8])


def test_an_interrupt_pending_on_the_stepping_process_lands_in_its_instant():
    # Two interrupts in one instant: the second is due while the first is
    # handled, so the slice it interrupts must not be skipped over.
    sim = Simulator()
    cpu = Cpu(sim, cores=1)
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt:
            try:
                yield from cpu.compute(5)
                log.append(("computed", sim.now))
            except Interrupt as exc:
                log.append(("interrupted", exc.cause, sim.now))

    process = sim.spawn(victim())

    def attacker():
        yield sim.timeout(1)
        process.interrupt("first")
        process.interrupt("second")
        yield sim.timeout(50)  # alive: no completion slot is due

    sim.spawn(attacker())
    sim.run()
    assert log == [("interrupted", "second", 1)]
    assert cpu.cores.in_use == 0


def test_async_wait_switch_in_delay_advances_in_place():
    sim = Simulator()
    cpu = Cpu(sim, cores=1, context_switch_us=2, reschedule_delay_us=8)

    def io():
        value = yield from cpu.async_wait(sim.timeout(10, value="page"))
        return value, sim.now

    assert sim.run_until_complete(sim.spawn(io())) == ("page", 20)
    assert sim.fast_forwards == 2  # the reschedule delay and the switch-in slice
    assert cpu.context_switches == 1
