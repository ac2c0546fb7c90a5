"""``Chain``: straight-line work the event loop advances without a generator.

A chain must produce the schedule of the generator it stands for while
being stepped with plain calls: ``yield from`` frames of its caller
exactly; a spawned process minus that process's two slots — its first
step runs where it is posted, and its waiters are called in its last
step's slot.  The generator spelling is kept here as the reference.
A chain's delay stage that would be the next event advances the clock in
place (``sim.fast_forwards``) where the reference retires its timer, so
event counts compare as ``events + fast_forwards``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import ABORTED, Chain, Interrupt, SimulationError, Simulator
from repro.sim.kernel import Event, Process
from repro.telemetry import install


def _nothing():
    pass


class Posted(Process):
    """The reference for a spawned chain: a process that takes its first
    step where it is spawned and calls its waiters in its last step's slot.
    It still allocates the bootstrap and completion slots of
    :class:`Process`, as entries that do nothing, so a spawned chain must
    retire exactly two events fewer."""

    def __init__(self, sim, generator, name):
        Event.__init__(self, sim)
        self.generator = generator
        self._send, self._throw = generator.send, generator.throw
        self.name = name
        self._target = self._interrupts = None
        sim.call_soon(_nothing)  # the bootstrap slot
        started = Event(sim)
        started._triggered = started._processed = True
        self._resume(started)

    def _finish(self, value):
        self._triggered = self._processed = True
        self._value = value
        self.sim.call_soon(_nothing)  # the completion slot
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Boom(RuntimeError):
    """A stage failure a spawned chain absorbs (the tests' ``NetworkDown``)."""


class Logged(Chain):
    """A chain that notes when it is cut short, as a ``finally`` would."""

    __slots__ = ("log", "tag")

    def __init__(self, sim, program, log, tag, spawn=None):
        self.log = log
        self.tag = tag
        Chain.__init__(self, sim, program, spawn, absorb=(Boom,))

    def _unwind(self):
        self.log.append((self.tag, "unwound", self.sim.now))


def _guarded(generator):
    """What ``remotefile.api._guarded`` was: faults become the sentinel."""
    try:
        return (yield from generator)
    except (Interrupt, Boom):
        return ABORTED


# -- one spec, two spellings --------------------------------------------------------


def _timing(spec, draws):
    """A stage's service time: fixed, or drawn from state at the grant."""
    kind, base = spec
    if kind == "for":
        return base

    def drawn():
        draws[0] += 1
        return base + draws[0] % 3

    return drawn


def as_program(sim, tag, stages, resources, flags, log, draws):
    def stage_fn(index, stage):
        def run(chain):
            log.append((tag, index, sim.now))
            if stage[0] == "delay":
                return stage[1]
            if stage[0] == "serve":
                return chain.serve(resources[stage[1] % len(resources)], _timing(stage[2], draws))
            if stage[0] == "check" and flags[stage[1]]:
                raise Boom(f"flag {stage[1]}")
            return None

        return run

    def done(chain):
        log.append((tag, "end", sim.now))
        chain.result = ("done", tag)

    return tuple(stage_fn(i, s) for i, s in enumerate(stages)) + (done,)


def as_generator(sim, tag, stages, resources, flags, log, draws):
    """The same stages as the generator the chain replaces."""
    try:
        for index, stage in enumerate(stages):
            log.append((tag, index, sim.now))
            if stage[0] == "delay":
                yield sim.timeout(stage[1])
            elif stage[0] == "serve":
                resource = resources[stage[1] % len(resources)]
                timing = _timing(stage[2], draws)
                if resource.try_acquire():
                    try:
                        yield sim.timeout(timing() if callable(timing) else timing)
                    finally:
                        resource.release()
                else:
                    hold = resource.hold(timing)
                    try:
                        yield hold
                    finally:
                        hold.finish()
            elif stage[0] == "check" and flags[stage[1]]:
                raise Boom(f"flag {stage[1]}")
        log.append((tag, "end", sim.now))
    except Exception:
        log.append((tag, "unwound", sim.now))
        raise
    return ("done", tag)


def _world(capacities, flag_times, users):
    sim = Simulator()
    resources = [sim.resource(capacity=c) for c in capacities]
    flags = [False] * len(flag_times)

    def raise_flag(index, at):
        yield sim.timeout(at)
        flags[index] = True

    for index, at in enumerate(flag_times):
        sim.spawn(raise_flag(index, at))

    def user(arrival, which, duration, plain):
        # Other traffic on the same resources: a hold, or the old spelling.
        yield sim.timeout(arrival)
        resource = resources[which % len(resources)]
        if plain:
            yield resource.request()
            try:
                yield sim.timeout(duration)
            finally:
                resource.release()
        else:
            yield from resource.use(duration)

    for spec in users:
        sim.spawn(user(*spec))
    return sim, resources, flags


def _run(chained, spawned, capacities, jobs, flag_times, users):
    sim, resources, flags = _world(capacities, flag_times, users)
    log, done, draws, handles = [], [], [0], {}

    def outcome_of(value):
        return "aborted" if value is ABORTED else value

    def starter(tag, arrival, stages):
        yield sim.timeout(arrival)
        args = (sim, tag, stages, resources, flags, log, draws)
        if spawned:
            if chained:
                handle = Logged(sim, as_program(*args), log, tag, spawn=f"job{tag}")
            else:
                handle = Posted(sim, _guarded(as_generator(*args)), f"job{tag}")
            handles[tag] = handle
            handle.add_callback(lambda e: done.append((tag, sim.now, outcome_of(e.value))))
            return
        try:
            if chained:
                value = yield Logged(sim, as_program(*args), log, tag)
            else:
                value = yield from as_generator(*args)
            outcome = value
        except Interrupt:
            outcome = "interrupted"
        except Boom as exc:
            outcome = f"failed: {exc}"
        done.append((tag, sim.now, outcome))
        yield sim.timeout(1)  # the waiter lives on: its next wake-up must match too
        done.append((tag, sim.now, "after"))

    def interrupter(tag, at):
        yield sim.timeout(at)
        target = handles.get(tag)
        if target is not None:
            target.interrupt("test")

    for tag, (arrival, stages, at) in enumerate(jobs):
        process = sim.spawn(starter(tag, arrival, stages))
        if not spawned:
            handles[tag] = process
        if at is not None:
            sim.spawn(interrupter(tag, at))
    sim.run()
    assert all(r.in_use == 0 and r.queue_length == 0 for r in resources)
    busy = tuple(r.utilization() for r in resources)
    # Every timer not armed is one event not retired.
    return (log, done, sim.now, busy, draws[0]), sim.events_processed + sim.fast_forwards


#: Small pools, ints and floats mixed, so equal delays, same-instant
#: arrivals and lock-stepped chains (hence ``seq`` ties) are the norm.
TIMES = st.sampled_from([0, 1, 2, 3, 5, 0.5, 1.5, 2.5, 0.1, 0.3])
WAITS = st.one_of(
    st.tuples(st.just("delay"), TIMES),
    st.tuples(
        st.just("serve"),
        st.integers(min_value=0, max_value=2),
        st.tuples(st.sampled_from(["for", "drawn"]), TIMES),
    ),
)
STAGES = st.one_of(
    WAITS,
    st.tuples(st.just("check"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("note")),
)
INTERRUPT_AT = st.one_of(st.none(), st.floats(min_value=0, max_value=12), TIMES)
CAPACITIES = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3)
FLAG_TIMES = st.lists(TIMES, min_size=2, max_size=2)
USERS = st.lists(
    st.tuples(TIMES, st.integers(min_value=0, max_value=2), TIMES, st.booleans()), max_size=4
)


def _jobs(stage_lists):
    return st.lists(st.tuples(TIMES, stage_lists, INTERRUPT_AT), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    capacities=CAPACITIES,
    jobs=_jobs(st.lists(STAGES, max_size=6)),
    flag_times=FLAG_TIMES,
    users=USERS,
)
def test_spawned_chain_schedules_like_a_process_stepped_where_it_is_posted(
    capacities, jobs, flag_times, users
):
    """Property: the same stage starts at the same instants in the same
    global order, the same outcomes in the same completion order, final
    clock, busy-time integrals and order of service-time draws —
    interrupts at any instant, the spawn instant and the grant instant
    included — and exactly two events fewer per chain: no bootstrap slot,
    no completion slot (counting each clock advanced in place as the
    event it replaces)."""
    chained, chained_events = _run(True, True, capacities, jobs, flag_times, users)
    reference, reference_events = _run(False, True, capacities, jobs, flag_times, users)
    assert chained == reference
    assert chained_events == reference_events - 2 * len(jobs)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    capacities=CAPACITIES,
    # An inline chain waits at least once (a generator that never yields
    # costs no event; a chain nobody waited for yet cannot say so).
    jobs=_jobs(st.builds(lambda head, wait, tail: head + [wait] + tail,
                         st.lists(STAGES, max_size=3), WAITS, st.lists(STAGES, max_size=3))),
    flag_times=FLAG_TIMES,
    users=USERS,
)
def test_inline_chain_schedules_exactly_like_yield_from(capacities, jobs, flag_times, users):
    """Property: as above, for a chain standing for ``yield from`` frames of
    its waiter — failures raise into it, its interrupts unwind the chain."""
    assert _run(True, False, capacities, jobs, flag_times, users) == _run(
        False, False, capacities, jobs, flag_times, users
    )


# -- the abort states, one by one --------------------------------------------------


def _spawned_chain_interrupted(at):
    """One engine, busy over [0, 10); the chain posts at t=1: a 2 us delay,
    then the engine for 5 us, then 1 us more."""
    sim = Simulator()
    engine = sim.resource(capacity=1)
    log = []
    sim.spawn(engine.use(10))
    stages = [("delay", 2), ("serve", 0, ("for", 5)), ("delay", 1)]
    seen = {}

    def poster():
        yield sim.timeout(1)
        program = as_program(sim, "c", stages, [engine], [], log, [0])
        seen["chain"] = Logged(sim, program, log, "c", spawn="c")
        seen["chain"].add_callback(lambda e: seen.update(value=e.value, at=sim.now))

    def interrupter():
        # In two legs, so that its timer is armed after the chain's and
        # the engine's: at an equal instant it fires later (seq order).
        yield sim.timeout(at / 2)
        yield sim.timeout(at / 2)
        seen["chain"].interrupt("test")
        seen["chain"].interrupt("twice")  # a no-op once it is on its way out

    def later():
        yield sim.timeout(3.5)
        yield from engine.use(1)
        seen["later_done"] = sim.now

    sim.spawn(poster())
    sim.spawn(interrupter())
    sim.spawn(later())
    sim.run()
    assert engine.in_use == 0 and engine.queue_length == 0
    return seen, log


def test_interrupt_in_the_posting_instant_unwinds_the_first_stage():
    # The first stage ran where the chain was posted: there is no instant
    # in which it is posted but not started.
    seen, log = _spawned_chain_interrupted(1)
    assert seen["value"] is ABORTED and seen["at"] == 1
    assert log == [("c", 0, 1), ("c", "unwound", 1)]
    assert seen["later_done"] == 11


def test_interrupt_during_a_delay_leaves_a_timer_that_pops_as_nothing():
    seen, log = _spawned_chain_interrupted(2)
    assert seen["value"] is ABORTED and seen["at"] == 2
    assert log == [("c", 0, 1), ("c", "unwound", 2)]
    assert seen["later_done"] == 11


def test_interrupt_while_queued_leaves_the_queue():
    seen, log = _spawned_chain_interrupted(4)
    assert seen["value"] is ABORTED and seen["at"] == 4
    assert seen["later_done"] == 11  # straight after the first holder


def test_interrupt_between_grant_and_arm_gives_the_unit_back():
    # At t=10 the engine is released and granted to the chain, whose
    # clock starts in that release; the interrupt lands in the same
    # instant: the unit goes straight on.
    seen, log = _spawned_chain_interrupted(10)
    assert seen["value"] is ABORTED and seen["at"] == 10
    assert seen["later_done"] == 11


def test_interrupt_while_holding_releases():
    seen, log = _spawned_chain_interrupted(12)
    assert seen["value"] is ABORTED and seen["at"] == 12
    assert seen["later_done"] == 13


def test_interrupt_after_the_end_is_a_no_op():
    seen, log = _spawned_chain_interrupted(40)
    assert seen["value"] == ("done", "c") and seen["at"] == 16


def test_spawned_chain_absorbs_only_its_own_failures():
    sim = Simulator()

    def absorbed(chain):
        raise Boom("down")

    def stray(chain):
        raise KeyError("bug")

    def later_stray(chain):
        raise KeyError("bug, later")

    chain = Logged(sim, (absorbed,), [], "a", spawn="a")
    assert chain.value is ABORTED  # in the first stage, hence at once
    with pytest.raises(KeyError, match="bug"):  # the first stage: into the poster
        Logged(sim, (stray,), [], "b", spawn="b")
    sim.run()  # ... and nothing of it is left in the loop
    Logged(sim, (lambda chain: 1.0, later_stray), [], "c", spawn="c")
    with pytest.raises(KeyError, match="bug, later"):  # later: into the loop
        sim.run()
    assert sim.events_processed == 1  # no slot but the one timer


def test_inline_chain_raises_from_its_constructor_and_into_its_waiter():
    sim = Simulator()
    flags = [True]
    log, out = [], []

    def waiter(stages):
        try:
            yield Logged(sim, as_program(sim, "w", stages, [], flags, log, [0]), log, "w")
        except Boom as exc:
            out.append((str(exc), sim.now))

    sim.spawn(waiter([("check", 0), ("delay", 5)]))  # first stage: in the constructor
    sim.spawn(waiter([("delay", 3), ("check", 0)]))  # later: in the timer's slot
    sim.run()
    assert out == [("flag 0", 0), ("flag 0", 3)]
    assert sim.now == 3  # the first never armed its timer


def test_inline_chain_interrupted_directly_tells_its_waiter():
    sim = Simulator()
    out = []
    chains = []

    def waiter():
        chains.append(Chain(sim, (lambda chain: 5.0,)))
        try:
            yield chains[0]
        except Interrupt as exc:
            out.append((exc.cause, sim.now))

    def interrupter():
        yield sim.timeout(2)
        chains[0].interrupt("why")

    sim.spawn(waiter())
    sim.spawn(interrupter())
    sim.run()
    assert out == [("why", 2)]


def test_negative_delay_is_a_kernel_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative timeout"):
        Chain(sim, (lambda chain: -1,))


# -- tracer identity ----------------------------------------------------------------


def _traced(spawned):
    sim = Simulator()
    tracer = install(sim)
    spans = {}

    def opened(chain):
        spans["first"] = sim.tracer.span("stage.first")
        return 2.0

    def closed(chain):
        spans["first"].close()
        with sim.tracer.span("stage.second"):
            pass

    def caller():
        with sim.tracer.span("caller.op"):
            if spawned:
                yield Chain(sim, (opened, closed), spawn="the-chain")
            else:
                yield Chain(sim, (opened, closed))

    sim.run_until_complete(sim.spawn(caller(), name="the-caller"))
    return tracer


@pytest.mark.parametrize("spawned", [True, False])
def test_spans_opened_by_stages_belong_to_the_process_the_chain_stands_for(spawned):
    tracer = _traced(spawned)
    (parent,) = tracer.find("caller.op")
    first, second = tracer.find("stage.first")[0], tracer.find("stage.second")[0]
    # Causally under the span that was open where the chain was built ...
    assert first.parent_id == second.parent_id == parent.sid
    assert (first.start_us, first.end_us, second.start_us) == (0, 2, 2)
    # ... on a thread of its own when spawned, on its caller's when inline.
    thread = tracer.thread_names[first.tid]
    assert thread == ("the-chain" if spawned else "the-caller")
    assert second.tid == first.tid
    assert (first.tid == parent.tid) is (not spawned)
