"""The two now-queue slots the kernel keeps although they carry no work.

Most slots that only held a ``seq`` are gone (a duration hold starts at
its grant; a spawned chain has no bootstrap or completion slot; a fault
nobody waits on fires nothing).  These two stay because each decides
who is woken first at a later instant: eliding either one moves the
results of the read-only range scan.  Each test is a minimised
two-process reproducer; DESIGN §10 cites them.
"""

from repro.sim import Simulator


def test_a_hold_on_an_event_subscribes_in_its_grant_slot():
    """``_Hold._arm``'s thunk for an event-timed hold (``Cpu.sync_wait``
    on a busy core).  ``releaser`` hands the unit to ``holder`` at t=1 and
    then waits on the same event itself.  The holder subscribes in its
    grant slot, after that; subscribing inside the release would put it
    first and wake it first at t=5."""
    sim = Simulator()
    res = sim.resource(capacity=1)
    fired = sim.timeout(5)
    order = []

    def releaser():
        yield res.request()
        yield sim.timeout(1)
        res.release()  # grants the queued hold
        yield fired
        order.append("releaser")

    def holder():
        hold = res.hold(fired)
        try:
            yield hold
        finally:
            hold.finish()
        order.append("holder")

    sim.spawn(releaser())
    sim.spawn(holder())
    sim.run()
    assert order == ["releaser", "holder"]
    assert sim.now == 5


def test_waiting_on_a_fired_event_wakes_in_a_slot_of_its_own():
    """The late-subscription relay of ``Event.add_callback``.  ``late``
    waits at t=1 on an event that fired at t=0; ``punctual``'s timer for
    t=1 was armed before that.  The relay queues the wake-up behind it;
    calling the waiter at once would run ``late`` first."""
    sim = Simulator()
    early = sim.event()
    early.succeed("early")
    order = []

    def late():
        yield sim.timeout(1)
        value = yield early
        order.append(("late", value))

    def punctual():
        yield sim.timeout(0.5)
        yield sim.timeout(0.5)
        order.append(("punctual", None))

    sim.spawn(late())
    sim.spawn(punctual())
    sim.run()
    assert order == [("punctual", None), ("late", "early")]
