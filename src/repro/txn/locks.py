"""Strict two-phase locking with wait-for-graph deadlock detection.

The lock table maps arbitrary hashable resources (row keys, districts,
whole tables) to shared/exclusive lock state.  Waiters park on kernel
:class:`~repro.sim.kernel.Event`\\ s in FIFO queues — the same wait
semantics as :class:`~repro.sim.kernel.Resource`, generalized to lock
*modes*: shared requests at the queue head are granted in batches,
exclusive requests wait for an empty holder set, and an upgrade
(S → X by an existing holder) jumps to the queue front.

Deadlocks are detected *at wait time*: every blocked request triggers a
DFS over the wait-for graph (waiter → conflicting holders and
conflicting requests queued ahead of it).  The DFS starts at the
requester and computes a transaction's edges only when it reaches it,
so a search costs the part of the graph the new wait can reach, not
every waiter in the table.  Victim selection is
deterministic — the cycle member with the **largest seniority rank**
(the youngest *intent*, which has done the least work) is aborted by
failing its wait event with :class:`~repro.txn.errors.DeadlockAbort`.
Seniority is assigned by :meth:`LockManager.set_seniority` (the
transaction manager reuses the first attempt's rank across retries, so
a repeatedly victimized transaction ages into seniority and cannot
starve); unranked transactions fall back to their id.  Determinism
matters: a seeded run must pick the same victims every replay.

Nothing here draws randomness or time beyond the waits themselves, so
the lock manager adds no perturbation to seeded experiments.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

from ..sim.kernel import Event, ProcessGenerator, Simulator
from .errors import DeadlockAbort

__all__ = ["LockManager", "LockMode"]


class LockMode(enum.IntEnum):
    """Lock modes, ordered by strength (X subsumes S)."""

    SHARED = 1
    EXCLUSIVE = 2


@dataclass
class _LockRequest:
    txn_id: int
    mode: LockMode
    event: Event
    #: True when an S holder asks for X: queued at the front, grantable
    #: once every *other* holder has released.
    upgrade: bool = False


class _Lock:
    """Per-resource state: current holders plus the FIFO wait queue."""

    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}
        self.queue: deque[_LockRequest] = deque()


class LockManager:
    """2PL lock table shared by every transaction of one database."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._locks: dict[Hashable, _Lock] = {}
        #: txn_id -> {resource: mode} for everything currently held.
        self._held: dict[int, dict[Hashable, LockMode]] = {}
        #: txn_id -> (request, resource) while blocked (one wait at a time).
        self._waiting: dict[int, tuple[_LockRequest, Hashable]] = {}
        #: txn_id -> seniority rank for victim selection (lower = older
        #: intent; retries keep their first attempt's rank).
        self._seniority: dict[int, int] = {}
        self.acquires = 0
        self.waits = 0
        self.upgrades = 0
        #: Deadlock victims chosen (one per broken cycle).
        self.deadlocks = 0
        #: Total virtual time spent blocked on lock waits.
        self.lock_wait_us = 0.0

    # -- introspection -----------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when no locks are held and nobody waits (leak check)."""
        return not self._locks and not self._waiting

    def held_by(self, txn_id: int) -> dict[Hashable, LockMode]:
        return dict(self._held.get(txn_id, {}))

    def holders_of(self, resource: Hashable) -> dict[int, LockMode]:
        lock = self._locks.get(resource)
        return dict(lock.holders) if lock is not None else {}

    def set_seniority(self, txn_id: int, rank: int) -> None:
        """Rank ``txn_id`` for victim selection (lower = more senior).

        A retried transaction registered with its first attempt's rank
        outranks everything that started after that first attempt —
        without this, fresh-id-per-retry would re-victimize the same
        intent forever against a long-running senior holder.
        """
        self._seniority[txn_id] = rank

    # -- acquire / release -------------------------------------------------

    def acquire(
        self, txn_id: int, resource: Hashable, mode: LockMode
    ) -> ProcessGenerator:
        """Take ``resource`` in ``mode``; blocks (FIFO) on conflict.

        Reentrant: holding a mode at least as strong is a no-op; holding
        S and asking for X is an upgrade.  Raises
        :class:`~repro.txn.errors.DeadlockAbort` if this wait closes a
        cycle and the caller is chosen as victim; other victims have the
        exception thrown at their own wait site.
        """
        self.acquires += 1
        lock = self._locks.get(resource)
        if lock is None:
            lock = self._locks[resource] = _Lock()
        held_locks = self._held.get(txn_id)
        if held_locks is None:
            held_locks = self._held[txn_id] = {}
        held = held_locks.get(resource)
        if held is not None:
            if held >= mode:
                return  # reentrant
            # Holding S, asking for X: an upgrade.
            self.upgrades += 1
            if len(lock.holders) == 1:  # the only holder is txn_id itself
                lock.holders[txn_id] = mode
                held_locks[resource] = mode
                return
            request = _LockRequest(txn_id, mode, self.sim.event(), upgrade=True)
            lock.queue.appendleft(request)
        else:
            if not lock.queue and self._grantable_now(lock, txn_id, mode):
                lock.holders[txn_id] = mode
                held_locks[resource] = mode
                return
            request = _LockRequest(txn_id, mode, self.sim.event())
            lock.queue.append(request)
        self.waits += 1
        self._waiting[txn_id] = (request, resource)
        try:
            # May raise DeadlockAbort right here if *we* are the victim.
            self._resolve_deadlocks(txn_id)
        except BaseException:
            # Cleanup only: the abort (or anything else) re-raises.
            self._waiting.pop(txn_id, None)
            raise
        start = self.sim.now
        try:
            yield request.event
        except BaseException:
            # Cleanup only, then re-raise.  Interrupted (or failed) while
            # queued: unlink; if the grant already happened the held-set
            # cleanup falls to release_all.
            self._unlink(resource, request)
            raise
        finally:
            self.lock_wait_us += self.sim.now - start
            self._waiting.pop(txn_id, None)

    def release_all(self, txn_id: int) -> None:
        """Drop every lock of ``txn_id`` (commit/abort), granting waiters."""
        self._seniority.pop(txn_id, None)
        held = self._held.pop(txn_id, None) or {}
        for resource in held:
            lock = self._locks.get(resource)
            if lock is None:
                continue
            lock.holders.pop(txn_id, None)
            if lock.queue:
                self._grant_waiters(resource, lock)
            self._gc(resource, lock)

    # -- grant machinery ---------------------------------------------------

    def _grantable_now(self, lock: _Lock, txn_id: int, mode: LockMode) -> bool:
        if not lock.holders:
            return True
        if mode is LockMode.SHARED:
            return all(
                held is LockMode.SHARED
                for holder, held in lock.holders.items()
                if holder != txn_id
            )
        return all(holder == txn_id for holder in lock.holders)

    def _grant_waiters(self, resource: Hashable, lock: _Lock) -> None:
        """Grant from the queue head; consecutive S requests batch."""
        while lock.queue:
            head = lock.queue[0]
            if head.upgrade:
                ok = set(lock.holders) <= {head.txn_id}
            elif head.mode is LockMode.EXCLUSIVE:
                ok = not lock.holders
            else:
                ok = all(held is LockMode.SHARED for held in lock.holders.values())
            if not ok:
                return
            lock.queue.popleft()
            lock.holders[head.txn_id] = head.mode
            self._held.setdefault(head.txn_id, {})[resource] = head.mode
            head.event.succeed()

    def _unlink(self, resource: Hashable, request: _LockRequest) -> None:
        lock = self._locks.get(resource)
        if lock is None:
            return
        try:
            lock.queue.remove(request)
        except ValueError:
            return  # already granted (or already unlinked)
        # Removing a queued request can unblock everything behind it
        # (e.g. a doomed X waiter ahead of compatible S requests).
        self._grant_waiters(resource, lock)
        self._gc(resource, lock)

    def _gc(self, resource: Hashable, lock: _Lock) -> None:
        if not lock.holders and not lock.queue:
            del self._locks[resource]

    # -- deadlock detection ------------------------------------------------

    def _blockers(self, request: _LockRequest, resource: Hashable) -> set[int]:
        """Who must finish before ``request`` can be granted.

        Two modes conflict unless both are shared: an X request conflicts
        with everyone, an S request only with X holders and requests.
        """
        lock = self._locks.get(resource)
        if lock is None:
            return set()
        txn_id = request.txn_id
        exclusive = LockMode.EXCLUSIVE
        wants_x = request.mode is exclusive
        blockers: set[int] = set()
        for holder, held in lock.holders.items():
            if holder != txn_id and (wants_x or held is exclusive):
                blockers.add(holder)
        for queued in lock.queue:
            if queued is request:
                break
            if queued.txn_id != txn_id and (wants_x or queued.mode is exclusive):
                blockers.add(queued.txn_id)
        return blockers

    def _edges_of(self, txn_id: int) -> Optional[set[int]]:
        """``txn_id``'s out-edges in the wait-for graph; None when it is
        not waiting, or its grant fired and it has not resumed yet."""
        waiting = self._waiting.get(txn_id)
        if waiting is None:
            return None
        request, resource = waiting
        if request.event.triggered:
            return None
        return self._blockers(request, resource)

    def wait_for_edges(self) -> dict[int, set[int]]:
        """Snapshot of the whole wait-for graph (waiting txn -> blockers).

        Diagnostic only: detection computes the same edges lazily."""
        edges: dict[int, set[int]] = {}
        for txn_id in self._waiting:
            blockers = self._edges_of(txn_id)
            if blockers is not None:
                edges[txn_id] = blockers
        return edges

    def _resolve_deadlocks(self, requester: int) -> None:
        """Break every cycle reachable from ``requester``'s new edge.

        Victim = the least senior cycle member (deterministic; falls
        back to txn id — youngest first — when nothing is ranked).  If
        the requester itself is the victim the abort is raised
        synchronously, before it ever parks.
        """
        while True:
            cycle = self._find_cycle(requester)
            if cycle is None:
                return
            victim = max(
                cycle, key=lambda txn: (self._seniority.get(txn, txn), txn)
            )
            self.deadlocks += 1
            request, resource = self._waiting.pop(victim)
            self._unlink(resource, request)
            abort = DeadlockAbort(victim, tuple(cycle))
            if victim == requester:
                raise abort
            request.event.fail(abort)

    def _find_cycle(self, start: int) -> Optional[list[int]]:
        """First cycle through ``start`` in sorted-blocker DFS order.

        Edges are computed when the DFS first reaches a transaction;
        nothing changes during one search, so the result is the cycle
        a DFS over the full :meth:`wait_for_edges` snapshot would find.
        """
        blockers = self._edges_of(start)
        if blockers is None:
            return None
        path: list[int] = [start]
        on_path: set[int] = {start}
        done: set[int] = set()
        stack: list[Iterator[int]] = [iter(sorted(blockers))]
        while stack:
            advanced = False
            for node in stack[-1]:
                if node in on_path:
                    return path[path.index(node):]
                if node in done:
                    continue  # finished subtree
                blockers = self._edges_of(node)
                if blockers is None:
                    continue  # a holder that is not waiting
                path.append(node)
                on_path.add(node)
                stack.append(iter(sorted(blockers)))
                advanced = True
                break
            if not advanced:
                stack.pop()
                finished = path.pop()
                on_path.discard(finished)
                done.add(finished)
        return None
