"""Hedge-delay derivation, the hedged race and per-provider admission
control, all on the reliability layer."""

import numpy as np
import pytest

from repro.reliability import ReliabilityLayer, ReliabilityPolicy
from repro.sim import Simulator
from repro.sim.stats import LatencyRecorder

POLICY = ReliabilityPolicy(
    hedge_min_delay_us=100.0,
    hedge_max_delay_us=2_000.0,
    hedge_min_samples=8,
    per_provider_inflight=2,
)


def make_layer(policy=POLICY):
    sim = Simulator()
    return sim, ReliabilityLayer(sim, np.random.default_rng(1), policy, server="db")


class LostPage(Exception):
    """What the racing reads raise when they cannot supply a value."""


def read(sim, delay_us, value, fails=False):
    yield sim.timeout(delay_us)
    if fails:
        raise LostPage(value)
    return value


class TestHedgeDelay:
    def test_cold_start_uses_conservative_maximum(self):
        _sim, layer = make_layer()
        recorder = LatencyRecorder("reads")
        for _ in range(POLICY.hedge_min_samples - 1):
            recorder.record(10.0)
        assert layer.hedge_delay_us(recorder) == POLICY.hedge_max_delay_us

    def test_warm_delay_tracks_the_tail(self):
        _sim, layer = make_layer()
        recorder = LatencyRecorder("reads")
        for value in [100.0] * 98 + [900.0] * 2:
            recorder.record(value)
        delay = layer.hedge_delay_us(recorder)
        assert delay == pytest.approx(900.0)

    def test_delay_clamps_low_and_high(self):
        _sim, layer = make_layer()
        fast = LatencyRecorder("fast")
        slow = LatencyRecorder("slow")
        for _ in range(POLICY.hedge_min_samples):
            fast.record(1.0)
            slow.record(1e6)
        assert layer.hedge_delay_us(fast) == POLICY.hedge_min_delay_us
        assert layer.hedge_delay_us(slow) == POLICY.hedge_max_delay_us

    def test_layer_exposes_the_same_derivation(self):
        # The race asks for its backup exactly one derived delay after
        # issuing the primary.
        sim, layer = make_layer()
        recorder = LatencyRecorder("reads")
        for _ in range(POLICY.hedge_min_samples):
            recorder.record(300.0)
        asked = []

        def backup():
            asked.append(sim.now)
            return read(sim, 10.0, "disk")

        sim.run_until_complete(sim.spawn(
            layer.hedged_read(read(sim, 1e6, "ext"), backup, recorder, LostPage)
        ))
        assert asked == [layer.hedge_delay_us(recorder)] == [300.0]


class TestHedgeCounters:
    def test_backup_win_notifies_listeners(self):
        sim, layer = make_layer()
        wins = []
        sim.observers.append(
            lambda _now, kind, fields: kind == "hedge.backup_win"
            and wins.append((fields["server"], fields["rescued"]))
        )
        recorder = LatencyRecorder("reads")
        delay = POLICY.hedge_max_delay_us
        # A slow primary loses to the backup, then a primary that fails
        # after the hedge is rescued by it.
        slow = layer.hedged_read(
            read(sim, 10 * delay, "ext"), lambda: read(sim, 10.0, "disk"), recorder, LostPage
        )
        assert sim.run_until_complete(sim.spawn(slow)) == ("disk", "backup")
        failing = layer.hedged_read(
            read(sim, 2 * delay, "ext", fails=True), lambda: read(sim, 2 * delay, "disk"),
            recorder, LostPage,
        )
        assert sim.run_until_complete(sim.spawn(failing)) == ("disk", "backup")
        assert wins == [("db", False), ("db", True)]
        assert layer.snapshot()["hedge"] == {
            "issued": 2,
            "primary_wins": 0,
            "backup_wins": 2,
            "rescues": 1,
        }


class TestAdmission:
    def test_admits_up_to_capacity_then_queues(self):
        sim, layer = make_layer()
        tickets = []

        def worker():
            ticket = yield from layer.admit("mem0")
            tickets.append(ticket)

        for _ in range(3):
            sim.spawn(worker())
        sim.run(until=1.0)
        gate = layer.gates["mem0"]
        assert len(tickets) == POLICY.per_provider_inflight
        assert gate.in_use == POLICY.per_provider_inflight
        assert gate.queue_length == 1
        assert layer.queued == 1

        gate.cancel(tickets[0])
        sim.run(until=2.0)
        assert len(tickets) == 3
        assert gate.queue_length == 0

    def test_gates_are_per_provider(self):
        sim, layer = make_layer()
        tickets = []

        def worker(provider):
            ticket = yield from layer.admit(provider)
            tickets.append(ticket)

        for _ in range(POLICY.per_provider_inflight):
            sim.spawn(worker("mem0"))
        sim.spawn(worker("mem1"))
        sim.run(until=1.0)
        # mem0 is full but mem1 admits immediately: no head-of-line blocking.
        assert len(tickets) == POLICY.per_provider_inflight + 1
        assert layer.gates["mem1"].in_use == 1

    def test_interrupted_waiter_leaves_no_ghost(self):
        sim, layer = make_layer()
        holders = []

        def holder():
            ticket = yield from layer.admit("mem0")
            holders.append(ticket)

        for _ in range(POLICY.per_provider_inflight):
            sim.spawn(holder())
        sim.run(until=1.0)

        def waiter():
            yield from layer.admit("mem0")

        victim = sim.spawn(waiter())
        sim.run(until=2.0)
        gate = layer.gates["mem0"]
        assert gate.queue_length == 1
        victim.interrupt(cause="deadline")
        sim.run(until=3.0)
        assert gate.queue_length == 0
        # Freed capacity still flows to live waiters.
        for ticket in holders:
            gate.cancel(ticket)
        done = []

        def late():
            ticket = yield from layer.admit("mem0")
            done.append(ticket)

        sim.spawn(late())
        sim.run(until=4.0)
        assert len(done) == 1

    def test_zero_inflight_disables_the_gate(self):
        sim, layer = make_layer(ReliabilityPolicy(per_provider_inflight=0))
        results = []

        def worker():
            ticket = yield from layer.admit("mem0")
            results.append(ticket)

        sim.spawn(worker())
        sim.run(until=1.0)
        assert results == [None]
        assert not layer.gates and layer.admitted == 0
