"""Circuit-breaker state machine, clocked on virtual time."""

from repro.reliability import BreakerState, ReliabilityPolicy
from repro.reliability.breaker import BreakerRegistry
from repro.sim import Simulator

POLICY = ReliabilityPolicy(
    breaker_failure_threshold=3, breaker_open_us=1_000.0, breaker_probe_quota=2
)


def make_registry(policy=POLICY):
    sim = Simulator()
    return sim, BreakerRegistry(sim, policy, "db")


def trip(registry, provider="mem0", times=POLICY.breaker_failure_threshold):
    for _ in range(times):
        registry.record_failure(provider)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        _sim, registry = make_registry()
        assert registry.state("mem0") is BreakerState.CLOSED
        assert registry.allow("mem0")
        assert registry.routable("mem0")

    def test_consecutive_failures_trip_open(self):
        _sim, registry = make_registry()
        trip(registry, times=POLICY.breaker_failure_threshold - 1)
        assert registry.state("mem0") is BreakerState.CLOSED
        registry.record_failure("mem0")
        assert registry.state("mem0") is BreakerState.OPEN
        assert not registry.allow("mem0")
        assert not registry.routable("mem0")
        assert registry.quarantined() == ["mem0"]

    def test_success_resets_the_failure_streak(self):
        _sim, registry = make_registry()
        trip(registry, times=POLICY.breaker_failure_threshold - 1)
        registry.record_success("mem0")
        trip(registry, times=POLICY.breaker_failure_threshold - 1)
        assert registry.state("mem0") is BreakerState.CLOSED

    def test_quarantine_expiry_admits_probes(self):
        sim, registry = make_registry()
        trip(registry)
        sim.now = POLICY.breaker_open_us + 1.0
        assert registry.routable("mem0")  # non-consuming check first
        assert registry.state("mem0") is BreakerState.OPEN
        assert registry.allow("mem0")  # consumes a probe slot
        assert registry.state("mem0") is BreakerState.HALF_OPEN

    def test_probe_quota_bounds_trial_traffic(self):
        sim, registry = make_registry()
        trip(registry)
        sim.now = POLICY.breaker_open_us + 1.0
        for _ in range(POLICY.breaker_probe_quota):
            assert registry.allow("mem0")
        assert not registry.allow("mem0")
        assert registry.breaker("mem0").rejections >= 1

    def test_probe_success_closes(self):
        sim, registry = make_registry()
        trip(registry)
        sim.now = POLICY.breaker_open_us + 1.0
        assert registry.allow("mem0")
        registry.record_success("mem0")
        assert registry.state("mem0") is BreakerState.CLOSED
        assert registry.quarantined() == []

    def test_probe_failure_reopens_and_restarts_clock(self):
        sim, registry = make_registry()
        trip(registry)
        sim.now = POLICY.breaker_open_us + 1.0
        assert registry.allow("mem0")
        registry.record_failure("mem0")
        assert registry.state("mem0") is BreakerState.OPEN
        # Fresh quarantine: not routable until another full open period.
        sim.now += POLICY.breaker_open_us / 2
        assert not registry.routable("mem0")
        sim.now += POLICY.breaker_open_us
        assert registry.routable("mem0")


class TestRegistry:
    def test_breakers_are_per_provider(self):
        _sim, registry = make_registry()
        trip(registry, provider="mem0")
        assert registry.state("mem0") is BreakerState.OPEN
        assert registry.state("mem1") is BreakerState.CLOSED
        assert registry.allow("mem1")

    def test_transition_log_is_ordered_and_complete(self):
        sim, registry = make_registry()
        trip(registry)
        sim.now = POLICY.breaker_open_us + 5.0
        registry.allow("mem0")
        registry.record_success("mem0")
        log = registry.snapshot()
        assert [(entry[1], entry[2], entry[3]) for entry in log] == [
            ("mem0", "closed", "open"),
            ("mem0", "open", "half-open"),
            ("mem0", "half-open", "closed"),
        ]
        assert log[0][0] <= log[1][0] <= log[2][0]

    def test_listeners_see_every_transition(self):
        sim, registry = make_registry()
        seen = []
        sim.observers.append(
            lambda now, kind, fields: kind == "breaker"
            and seen.append((fields["provider"], fields["old"], fields["new"], now))
        )
        trip(registry)
        assert seen == [("mem0", BreakerState.CLOSED, BreakerState.OPEN, sim.now)]
