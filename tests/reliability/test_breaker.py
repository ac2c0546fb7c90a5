"""Circuit-breaker state machine, clocked on virtual time, and the
layer's per-provider breakers."""

import numpy as np

from repro.reliability import BreakerState, ReliabilityLayer, ReliabilityPolicy
from repro.sim import Simulator

POLICY = ReliabilityPolicy(
    breaker_failure_threshold=3, breaker_open_us=1_000.0, breaker_probe_quota=2
)


def make_layer(policy=POLICY):
    sim = Simulator()
    return sim, ReliabilityLayer(sim, np.random.default_rng(0), policy, server="db")


def trip(layer, provider="mem0", times=POLICY.breaker_failure_threshold):
    for _ in range(times):
        layer.breaker(provider).record_failure()


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        _sim, layer = make_layer()
        assert layer.breaker("mem0").state is BreakerState.CLOSED
        assert layer.breaker("mem0").allow()
        assert layer.routable("mem0")

    def test_consecutive_failures_trip_open(self):
        _sim, layer = make_layer()
        trip(layer, times=POLICY.breaker_failure_threshold - 1)
        assert layer.breaker("mem0").state is BreakerState.CLOSED
        layer.breaker("mem0").record_failure()
        assert layer.breaker("mem0").state is BreakerState.OPEN
        assert not layer.breaker("mem0").allow()
        assert not layer.routable("mem0")
        assert layer.quarantined_providers() == ["mem0"]

    def test_success_resets_the_failure_streak(self):
        _sim, layer = make_layer()
        trip(layer, times=POLICY.breaker_failure_threshold - 1)
        layer.breaker("mem0").record_success()
        trip(layer, times=POLICY.breaker_failure_threshold - 1)
        assert layer.breaker("mem0").state is BreakerState.CLOSED

    def test_quarantine_expiry_admits_probes(self):
        sim, layer = make_layer()
        trip(layer)
        sim.now = POLICY.breaker_open_us + 1.0
        assert layer.routable("mem0")  # non-consuming check first
        assert layer.breaker("mem0").state is BreakerState.OPEN
        assert layer.breaker("mem0").allow()  # consumes a probe slot
        assert layer.breaker("mem0").state is BreakerState.HALF_OPEN

    def test_probe_quota_bounds_trial_traffic(self):
        sim, layer = make_layer()
        trip(layer)
        sim.now = POLICY.breaker_open_us + 1.0
        for _ in range(POLICY.breaker_probe_quota):
            assert layer.breaker("mem0").allow()
        assert not layer.breaker("mem0").allow()
        assert layer.breaker("mem0").rejections >= 1

    def test_probe_success_closes(self):
        sim, layer = make_layer()
        trip(layer)
        sim.now = POLICY.breaker_open_us + 1.0
        assert layer.breaker("mem0").allow()
        layer.breaker("mem0").record_success()
        assert layer.breaker("mem0").state is BreakerState.CLOSED
        assert layer.quarantined_providers() == []

    def test_probe_failure_reopens_and_restarts_clock(self):
        sim, layer = make_layer()
        trip(layer)
        sim.now = POLICY.breaker_open_us + 1.0
        assert layer.breaker("mem0").allow()
        layer.breaker("mem0").record_failure()
        assert layer.breaker("mem0").state is BreakerState.OPEN
        # Fresh quarantine: not routable until another full open period.
        sim.now += POLICY.breaker_open_us / 2
        assert not layer.routable("mem0")
        sim.now += POLICY.breaker_open_us
        assert layer.routable("mem0")


class TestRegistry:
    """The layer keeps one breaker per provider and one transition log."""

    def test_breakers_are_per_provider(self):
        _sim, layer = make_layer()
        trip(layer, provider="mem0")
        assert layer.breaker("mem0").state is BreakerState.OPEN
        assert layer.breaker("mem1").state is BreakerState.CLOSED
        assert layer.breaker("mem1").allow()

    def test_transition_log_is_ordered_and_complete(self):
        sim, layer = make_layer()
        trip(layer)
        sim.now = POLICY.breaker_open_us + 5.0
        layer.breaker("mem0").allow()
        layer.breaker("mem0").record_success()
        log = layer.snapshot()["breaker_transitions"]
        assert [(entry[1], entry[2], entry[3]) for entry in log] == [
            ("mem0", "closed", "open"),
            ("mem0", "open", "half-open"),
            ("mem0", "half-open", "closed"),
        ]
        assert log[0][0] <= log[1][0] <= log[2][0]

    def test_listeners_see_every_transition(self):
        sim, layer = make_layer()
        seen = []
        sim.observers.append(
            lambda now, kind, fields: kind == "breaker"
            and seen.append((fields["provider"], fields["old"], fields["new"], now))
        )
        trip(layer)
        assert seen == [("mem0", BreakerState.CLOSED, BreakerState.OPEN, sim.now)]
