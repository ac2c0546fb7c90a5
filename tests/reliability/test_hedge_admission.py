"""Hedge-delay derivation and per-provider admission control."""

import numpy as np
import pytest

from repro.reliability import (
    AdmissionController,
    HedgeStats,
    ReliabilityLayer,
    ReliabilityPolicy,
    hedge_delay_us,
)
from repro.sim import Simulator
from repro.sim.stats import LatencyRecorder

POLICY = ReliabilityPolicy(
    hedge_min_delay_us=100.0,
    hedge_max_delay_us=2_000.0,
    hedge_min_samples=8,
    per_provider_inflight=2,
)


class TestHedgeDelay:
    def test_cold_start_uses_conservative_maximum(self):
        recorder = LatencyRecorder("reads")
        for _ in range(POLICY.hedge_min_samples - 1):
            recorder.record(10.0)
        assert hedge_delay_us(POLICY, recorder) == POLICY.hedge_max_delay_us

    def test_warm_delay_tracks_the_tail(self):
        recorder = LatencyRecorder("reads")
        for value in [100.0] * 98 + [900.0] * 2:
            recorder.record(value)
        delay = hedge_delay_us(POLICY, recorder)
        assert delay == pytest.approx(900.0)

    def test_delay_clamps_low_and_high(self):
        fast = LatencyRecorder("fast")
        slow = LatencyRecorder("slow")
        for _ in range(POLICY.hedge_min_samples):
            fast.record(1.0)
            slow.record(1e6)
        assert hedge_delay_us(POLICY, fast) == POLICY.hedge_min_delay_us
        assert hedge_delay_us(POLICY, slow) == POLICY.hedge_max_delay_us

    def test_layer_exposes_the_same_derivation(self):
        sim = Simulator()
        layer = ReliabilityLayer(sim, np.random.default_rng(1), POLICY)
        recorder = LatencyRecorder("reads")
        assert layer.hedge_delay_us(recorder) == POLICY.hedge_max_delay_us


class TestHedgeStats:
    def test_backup_win_notifies_listeners(self):
        sim = Simulator()
        stats = HedgeStats(sim, "db")
        wins = []
        sim.observers.append(
            lambda _now, kind, _fields: kind == "hedge.backup_win" and wins.append(1)
        )
        stats.record_backup_win()
        stats.record_backup_win(rescued=True)
        assert len(wins) == 2
        assert stats.snapshot() == {
            "issued": 0,
            "primary_wins": 0,
            "backup_wins": 2,
            "rescues": 1,
        }


class TestAdmission:
    def make(self, policy=POLICY):
        sim = Simulator()
        return sim, AdmissionController(sim, policy)

    def test_admits_up_to_capacity_then_queues(self):
        sim, admission = self.make()
        tickets = []

        def worker():
            ticket = yield from admission.enter("mem0")
            tickets.append(ticket)

        for _ in range(3):
            sim.spawn(worker())
        sim.run(until=1.0)
        assert len(tickets) == POLICY.per_provider_inflight
        assert admission.inflight("mem0") == POLICY.per_provider_inflight
        assert admission.queue_length("mem0") == 1
        assert admission.queued == 1

        tickets[0].release()
        sim.run(until=2.0)
        assert len(tickets) == 3
        assert admission.queue_length("mem0") == 0

    def test_gates_are_per_provider(self):
        sim, admission = self.make()
        tickets = []

        def worker(provider):
            ticket = yield from admission.enter(provider)
            tickets.append(ticket)

        for _ in range(POLICY.per_provider_inflight):
            sim.spawn(worker("mem0"))
        sim.spawn(worker("mem1"))
        sim.run(until=1.0)
        # mem0 is full but mem1 admits immediately: no head-of-line blocking.
        assert len(tickets) == POLICY.per_provider_inflight + 1
        assert admission.inflight("mem1") == 1

    def test_interrupted_waiter_leaves_no_ghost(self):
        sim, admission = self.make()
        holders = []

        def holder():
            ticket = yield from admission.enter("mem0")
            holders.append(ticket)

        for _ in range(POLICY.per_provider_inflight):
            sim.spawn(holder())
        sim.run(until=1.0)

        def waiter():
            yield from admission.enter("mem0")

        victim = sim.spawn(waiter())
        sim.run(until=2.0)
        assert admission.queue_length("mem0") == 1
        victim.interrupt(cause="deadline")
        sim.run(until=3.0)
        assert admission.queue_length("mem0") == 0
        # Freed capacity still flows to live waiters.
        for ticket in holders:
            ticket.release()
        done = []

        def late():
            ticket = yield from admission.enter("mem0")
            done.append(ticket)

        sim.spawn(late())
        sim.run(until=4.0)
        assert len(done) == 1

    def test_ticket_release_is_idempotent(self):
        sim, admission = self.make()
        tickets = []

        def worker():
            ticket = yield from admission.enter("mem0")
            tickets.append(ticket)

        sim.spawn(worker())
        sim.run(until=1.0)
        (ticket,) = tickets
        ticket.release()
        ticket.release()
        assert admission.inflight("mem0") == 0

    def test_zero_inflight_disables_the_gate(self):
        sim, admission = self.make(ReliabilityPolicy(per_provider_inflight=0))
        assert not admission.enabled
        results = []

        def worker():
            ticket = yield from admission.enter("mem0")
            results.append(ticket)

        sim.spawn(worker())
        sim.run(until=1.0)
        assert results == [None]
        assert admission.inflight("mem0") == 0
