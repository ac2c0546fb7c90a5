"""Lock manager: modes, FIFO grants, upgrades, deadlock detection."""

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator
from repro.txn import DeadlockAbort, LockManager, LockMode
from repro.txn.locks import _Lock, _LockRequest

S = LockMode.SHARED
X = LockMode.EXCLUSIVE


def drive(sim, gen):
    return sim.run_until_complete(sim.spawn(gen))


# -- reference detector ----------------------------------------------------
#
# The snapshot detector the lazy DFS replaced, kept verbatim: build every
# waiter's edges, then search.  The lazy detector must return exactly the
# same cycle (same members, same order) on every table.


def _conflicts(a, b):
    return a is LockMode.EXCLUSIVE or b is LockMode.EXCLUSIVE


def reference_blockers(locks, request, resource):
    lock = locks._locks.get(resource)
    if lock is None:
        return set()
    blockers = set()
    for holder, held in lock.holders.items():
        if holder != request.txn_id and _conflicts(request.mode, held):
            blockers.add(holder)
    for queued in lock.queue:
        if queued is request:
            break
        if queued.txn_id != request.txn_id and _conflicts(request.mode, queued.mode):
            blockers.add(queued.txn_id)
    return blockers


def reference_wait_for_edges(locks):
    edges = {}
    for txn_id, (request, resource) in locks._waiting.items():
        if request.event.triggered:
            continue  # granted, just not resumed yet
        edges[txn_id] = reference_blockers(locks, request, resource)
    return edges


def reference_find_cycle(locks, start):
    edges = reference_wait_for_edges(locks)
    if start not in edges:
        return None
    path = [start]
    on_path = {start}
    done = set()
    stack = [iter(sorted(edges[start]))]
    while stack:
        advanced = False
        for node in stack[-1]:
            if node in on_path:
                return path[path.index(node):]
            if node in done or node not in edges:
                continue  # finished subtree, or a non-waiting holder
            path.append(node)
            on_path.add(node)
            stack.append(iter(sorted(edges[node])))
            advanced = True
            break
        if not advanced:
            stack.pop()
            finished = path.pop()
            on_path.discard(finished)
            done.add(finished)
    return None


class ReferenceLockManager(LockManager):
    """A lock manager whose detector is the snapshot reference."""

    def _find_cycle(self, start):
        return reference_find_cycle(self, start)


class TestModes:
    def test_shared_locks_coexist(self):
        sim = Simulator()
        locks = LockManager(sim)

        def both():
            yield from locks.acquire(1, "r", S)
            yield from locks.acquire(2, "r", S)
            return locks.holders_of("r")

        holders = drive(sim, both())
        assert holders == {1: S, 2: S}
        assert locks.waits == 0

    def test_exclusive_excludes(self):
        sim = Simulator()
        locks = LockManager(sim)
        order = []

        def holder():
            yield from locks.acquire(1, "r", X)
            order.append("held")
            yield sim.timeout(10)
            locks.release_all(1)

        def waiter():
            yield sim.timeout(1)
            yield from locks.acquire(2, "r", S)
            order.append("granted")

        sim.spawn(holder())
        drive(sim, waiter())
        assert order == ["held", "granted"]
        assert locks.waits == 1
        assert locks.lock_wait_us == pytest.approx(9.0)

    def test_reentrant_acquire_is_noop(self):
        sim = Simulator()
        locks = LockManager(sim)

        def body():
            yield from locks.acquire(1, "r", X)
            yield from locks.acquire(1, "r", X)
            yield from locks.acquire(1, "r", S)  # weaker: still a no-op

        drive(sim, body())
        assert locks.holders_of("r") == {1: X}
        assert locks.waits == 0

    def test_release_all_leaves_table_idle(self):
        sim = Simulator()
        locks = LockManager(sim)

        def body():
            yield from locks.acquire(1, "a", S)
            yield from locks.acquire(1, "b", X)
            locks.release_all(1)

        drive(sim, body())
        assert locks.idle

    def test_s_batch_granted_together(self):
        """Consecutive S waiters behind an X are granted as one batch."""
        sim = Simulator()
        locks = LockManager(sim)
        granted_at = {}

        def holder():
            yield from locks.acquire(1, "r", X)
            yield sim.timeout(50)
            locks.release_all(1)

        def reader(txn_id):
            yield sim.timeout(txn_id)  # arrive at distinct times, in order
            yield from locks.acquire(txn_id, "r", S)
            granted_at[txn_id] = sim.now

        sim.spawn(holder())
        readers = [sim.spawn(reader(txn_id)) for txn_id in (2, 3, 4)]
        for process in readers:
            sim.run_until_complete(process)
        assert granted_at == {2: 50.0, 3: 50.0, 4: 50.0}


class TestUpgrades:
    def test_sole_holder_upgrades_inline(self):
        sim = Simulator()
        locks = LockManager(sim)

        def body():
            yield from locks.acquire(1, "r", S)
            yield from locks.acquire(1, "r", X)

        drive(sim, body())
        assert locks.holders_of("r") == {1: X}
        assert locks.upgrades == 1
        assert locks.waits == 0

    def test_upgrade_waits_for_other_readers_and_jumps_queue(self):
        sim = Simulator()
        locks = LockManager(sim)
        order = []

        def other_reader():
            yield from locks.acquire(2, "r", S)
            yield sim.timeout(30)
            locks.release_all(2)

        def upgrader():
            yield from locks.acquire(1, "r", S)
            yield sim.timeout(1)
            yield from locks.acquire(1, "r", X)  # waits for txn 2 only
            order.append(("upgrade", sim.now))
            yield sim.timeout(5)
            locks.release_all(1)

        def late_writer():
            yield sim.timeout(2)
            yield from locks.acquire(3, "r", X)  # queued behind the upgrade
            order.append(("late", sim.now))
            locks.release_all(3)

        sim.spawn(other_reader())
        sim.spawn(upgrader())
        drive(sim, late_writer())
        assert order == [("upgrade", 30.0), ("late", 35.0)]


class TestDeadlock:
    def test_two_txn_cycle_aborts_youngest(self):
        sim = Simulator()
        locks = LockManager(sim)
        outcome = {}

        def t1():
            yield from locks.acquire(1, "a", X)
            yield sim.timeout(5)
            yield from locks.acquire(1, "b", X)
            outcome[1] = "done"
            locks.release_all(1)

        def t2():
            yield from locks.acquire(2, "b", X)
            yield sim.timeout(5)
            try:
                yield from locks.acquire(2, "a", X)
            except DeadlockAbort as abort:
                outcome[2] = abort
                locks.release_all(2)

        survivor = sim.spawn(t1())
        drive(sim, t2())
        sim.run_until_complete(survivor)
        # Txn 2 (highest id in the cycle) is the victim — and because it
        # closed the cycle, the abort raised synchronously at its own call.
        assert isinstance(outcome[2], DeadlockAbort)
        assert outcome[2].txn_id == 2
        assert sorted(outcome[2].cycle) == [1, 2]
        assert outcome[1] == "done"
        assert locks.deadlocks == 1
        assert locks.idle

    def test_victim_can_be_a_parked_waiter(self):
        """When the cycle-closing requester is older, the parked younger
        transaction gets the abort thrown at its wait site."""
        sim = Simulator()
        locks = LockManager(sim)
        outcome = {}

        def young():
            yield from locks.acquire(9, "b", X)
            yield sim.timeout(1)
            try:
                yield from locks.acquire(9, "a", X)  # parks behind txn 1
            except DeadlockAbort as abort:
                outcome[9] = abort
                locks.release_all(9)

        def old():
            yield from locks.acquire(1, "a", X)
            yield sim.timeout(5)
            yield from locks.acquire(1, "b", X)  # closes the cycle; 9 dies
            outcome[1] = "done"
            locks.release_all(1)

        sim.spawn(young())
        drive(sim, old())
        assert outcome[9].txn_id == 9
        assert outcome[1] == "done"
        assert locks.idle

    def test_three_txn_cycle(self):
        sim = Simulator()
        locks = LockManager(sim)
        aborted = []

        def txn(txn_id, first, second):
            yield from locks.acquire(txn_id, first, X)
            yield sim.timeout(5)
            try:
                yield from locks.acquire(txn_id, second, X)
                yield sim.timeout(1)
            except DeadlockAbort:
                aborted.append(txn_id)
            locks.release_all(txn_id)

        processes = [
            sim.spawn(txn(1, "a", "b")),
            sim.spawn(txn(2, "b", "c")),
            sim.spawn(txn(3, "c", "a")),
        ]
        for process in processes:
            sim.run_until_complete(process)
        assert aborted == [3]  # youngest in the cycle, deterministically
        assert locks.idle

    def test_no_false_deadlock_on_plain_contention(self):
        sim = Simulator()
        locks = LockManager(sim)

        def holder():
            yield from locks.acquire(1, "r", X)
            yield sim.timeout(20)
            locks.release_all(1)

        def waiter():
            yield sim.timeout(1)
            yield from locks.acquire(2, "r", X)
            locks.release_all(2)

        sim.spawn(holder())
        drive(sim, waiter())
        assert locks.deadlocks == 0
        assert locks.idle

    def test_wait_for_edges_snapshot(self):
        sim = Simulator()
        locks = LockManager(sim)
        seen = {}

        def holder():
            yield from locks.acquire(1, "r", X)
            yield sim.timeout(10)
            seen.update(locks.wait_for_edges())
            locks.release_all(1)

        def waiter():
            yield sim.timeout(1)
            yield from locks.acquire(2, "r", S)
            locks.release_all(2)

        sim.spawn(holder())
        drive(sim, waiter())
        assert seen == {2: {1}}

    def test_detection_evaluates_only_waiters_reachable_from_the_requester(
        self, monkeypatch
    ):
        """Two independent waiting chains; a new waiter parks on one.  The
        search computes edges for the requester and what it reaches, and
        never touches the other chain (nor the waiter behind it)."""
        sim = Simulator()
        locks = LockManager(sim)

        def hold(txn_id, resource):
            yield from locks.acquire(txn_id, resource, X)

        def hold_then_wait(txn_id, held, wanted):
            yield from locks.acquire(txn_id, held, X)
            yield sim.timeout(1)
            yield from locks.acquire(txn_id, wanted, X)

        def wait(txn_id, resource):
            yield sim.timeout(2)
            yield from locks.acquire(txn_id, resource, X)

        for base, (first, second) in ((0, ("a", "b")), (10, ("c", "d"))):
            # base+3 waits on base+2, which waits on base+1.
            sim.spawn(hold(base + 1, first))
            sim.spawn(hold_then_wait(base + 2, second, first))
            sim.spawn(wait(base + 3, second))
        sim.run(until=5)
        assert locks.wait_for_edges() == {2: {1}, 3: {2}, 12: {11}, 13: {12}}

        evaluated = []
        blockers = locks._blockers

        def spy(request, resource):
            evaluated.append(request.txn_id)
            return blockers(request, resource)

        monkeypatch.setattr(locks, "_blockers", spy)
        sim.spawn(wait(20, "a"))  # blocked by holder 1 and queued 2
        sim.run(until=10)
        assert locks.deadlocks == 0
        assert sorted(evaluated) == [2, 20]


# -- lazy detector == snapshot reference -------------------------------------


@st.composite
def lock_tables(draw):
    """A lock table in any state the manager can be caught in mid-run:
    S or X holders, FIFO queues, upgrades at the queue front, and
    waiters whose grant fired but who have not resumed yet."""
    sim = Simulator()
    locks = LockManager(sim)
    # Ids spread wide enough that a set's iteration order is not sorted.
    txns = draw(st.lists(st.integers(1, 64), unique=True, min_size=2, max_size=6))
    resources = list(range(draw(st.integers(1, 4))))
    for resource in resources:
        lock = locks._locks[resource] = _Lock()
        if draw(st.booleans()):
            lock.holders[draw(st.sampled_from(txns))] = X
        else:
            for txn_id in draw(st.lists(st.sampled_from(txns), unique=True,
                                        min_size=1, max_size=3)):
                lock.holders[txn_id] = S
        for txn_id, mode in lock.holders.items():
            locks._held.setdefault(txn_id, {})[resource] = mode
    # A wait by a member of a drawn ring targets a resource the next member
    # holds, so cycles (and chains hanging off them) are common.
    ring = draw(st.lists(st.sampled_from(txns), unique=True, min_size=2))
    successor = dict(zip(ring, ring[1:] + ring[:1]))
    for txn_id in draw(st.permutations(txns)):
        if draw(st.integers(0, 3)) == 3:
            continue  # not waiting
        targets = [r for r in resources if successor.get(txn_id) in locks._locks[r].holders]
        resource = draw(st.sampled_from(targets or resources))
        mode = draw(st.sampled_from([X, S]))
        lock = locks._locks[resource]
        held = lock.holders.get(txn_id)
        if held is not None and held >= mode:
            continue  # reentrant: would not wait
        upgrade = held is S and mode is X
        request = _LockRequest(txn_id, mode, sim.event(), upgrade=upgrade)
        if upgrade:
            lock.queue.appendleft(request)
        else:
            lock.queue.append(request)
        locks._waiting[txn_id] = (request, resource)
        if draw(st.integers(0, 4)) == 4:  # granted, not yet resumed
            lock.queue.remove(request)
            lock.holders[txn_id] = mode
            request.event.succeed()
    return locks


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(locks=lock_tables())
def test_lazy_search_returns_the_reference_cycle(locks):
    assert locks.wait_for_edges() == reference_wait_for_edges(locks)
    for start in sorted(locks._waiting):
        cycle = locks._find_cycle(start)
        event("cycle" if cycle else "no cycle")
        assert cycle == reference_find_cycle(locks, start)


#: One transaction: start delay, (resource, mode, think) steps, hold time
#: before release.  Four resources among up to eight transactions make
#: waits, upgrades (S then X on one resource) and cycles common.
TXN_SCRIPTS = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from([S, X]), st.integers(0, 4)),
            min_size=1, max_size=4,
        ),
        st.integers(0, 6),
        st.integers(1, 8),
    ),
    min_size=3, max_size=8,
)


def replay(manager_class, scripts):
    """Run ``scripts`` on a fresh simulator; everything the detector can
    influence, for comparison across detectors."""
    sim = Simulator()
    locks = manager_class(sim)
    victims = []

    def txn(txn_id, start, steps, hold):
        yield sim.timeout(start)
        try:
            for resource, mode, think in steps:
                yield sim.timeout(think)
                yield from locks.acquire(txn_id, resource, mode)
            yield sim.timeout(hold)
        except DeadlockAbort as abort:
            victims.append((sim.now, abort.txn_id, abort.cycle))
        locks.release_all(txn_id)

    for txn_id, (start, steps, hold, rank) in enumerate(scripts, 1):
        locks.set_seniority(txn_id, rank)
        sim.spawn(txn(txn_id, start, steps, hold))
    sim.run()
    assert locks.idle
    return (victims, locks.deadlocks, locks.waits, locks.lock_wait_us,
            sim.now, sim.events_processed)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripts=TXN_SCRIPTS)
def test_lazy_detector_schedules_like_the_reference(scripts):
    lazy = replay(LockManager, scripts)
    event("deadlock" if lazy[1] else "no deadlock")
    assert lazy == replay(ReferenceLockManager, scripts)
