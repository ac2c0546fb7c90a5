"""Deadline and seeded-retry semantics of the reliability layer."""

import numpy as np
import pytest

from repro.broker import BrokerUnavailable
from repro.net import NetworkDown
from repro.reliability import (
    DeadlineExceeded,
    ReliabilityLayer,
    ReliabilityPolicy,
    RetrySchedule,
)
from repro.sim import Simulator
from repro.sim.kernel import Resource


def make_layer(policy=None, seed=7):
    sim = Simulator()
    layer = ReliabilityLayer(sim, np.random.default_rng(seed), policy)
    return sim, layer


def complete(sim, generator):
    return sim.run_until_complete(sim.spawn(generator))


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        ReliabilityPolicy()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retry_attempts": -1},
            {"breaker_failure_threshold": 0},
            {"breaker_probe_quota": 0},
            {"retry_jitter": 1.5},
            {"hedge_min_delay_us": 500.0, "hedge_max_delay_us": 100.0},
            {"read_deadline_us": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReliabilityPolicy(**kwargs)


class TestDeadlines:
    def test_fast_call_returns_value(self):
        sim, layer = make_layer()

        def op():
            yield sim.timeout(10.0)
            return "done"

        result = complete(sim, layer.with_deadline(op(), 50.0, family="rpc"))
        assert result == "done"
        assert layer.deadline_hits["rpc"] == 0

    def test_slow_call_raises_and_counts(self):
        sim, layer = make_layer()

        def op():
            yield sim.timeout(100.0)
            return "done"

        started = sim.now
        with pytest.raises(DeadlineExceeded):
            complete(sim, layer.with_deadline(op(), 50.0, family="read"))
        assert sim.now - started == pytest.approx(50.0)
        assert layer.deadline_hits["read"] == 1

    def test_none_deadline_disables_budget(self):
        sim, layer = make_layer()

        def op():
            yield sim.timeout(1e6)
            return 42

        assert complete(sim, layer.with_deadline(op(), None)) == 42

    def test_inner_exception_reraised_to_caller(self):
        sim, layer = make_layer()

        def op():
            yield sim.timeout(1.0)
            raise KeyError("inner")

        with pytest.raises(KeyError):
            complete(sim, layer.with_deadline(op(), 50.0))

    def test_interrupted_call_unwinds_resources(self):
        # The whole point of interrupting on expiry: the abandoned call
        # must release what it holds, not leak it.
        sim, layer = make_layer()
        gate = Resource(sim, capacity=1, name="gate")

        def op():
            request = gate.request()
            try:
                yield request
                yield sim.timeout(500.0)
            except BaseException:
                gate.cancel(request)
                raise
            gate.release()

        with pytest.raises(DeadlineExceeded):
            complete(sim, layer.with_deadline(op(), 50.0))
        sim.run(until=sim.now + 1.0)  # let the interrupt be delivered
        assert gate.in_use == 0


class TestRetries:
    def test_succeeds_after_transient_failures(self):
        sim, layer = make_layer(ReliabilityPolicy(retry_attempts=3))
        calls = []

        def factory():
            def op():
                calls.append(sim.now)
                yield sim.timeout(5.0)
                if len(calls) < 3:
                    raise BrokerUnavailable("flaky")
                return "ok"

            return op()

        result = complete(sim, layer.call(factory, family="rpc", name="renew", retry=True))
        assert result == "ok"
        assert len(calls) == 3
        assert layer.retries["rpc"] == 2
        # Exponential backoff separates the attempts.
        assert calls[1] - calls[0] >= 5.0 + layer.policy.retry_base_us * 0.5

    def test_budget_exhaustion_reraises_last_error(self):
        sim, layer = make_layer(ReliabilityPolicy(retry_attempts=2))
        calls = []

        def factory():
            def op():
                calls.append(sim.now)
                yield sim.timeout(1.0)
                raise NetworkDown("always")

            return op()

        with pytest.raises(NetworkDown):
            complete(sim, layer.call(factory, family="rpc", name="renew", retry=True))
        assert len(calls) == 3  # first try + 2 retries

    def test_unlisted_exception_propagates_immediately(self):
        sim, layer = make_layer()
        calls = []

        def factory():
            def op():
                calls.append(sim.now)
                yield sim.timeout(1.0)
                raise ValueError("not retryable")

            return op()

        with pytest.raises(ValueError):
            complete(sim, layer.call(factory, family="rpc", name="renew", retry=True))
        assert len(calls) == 1

    def test_deadline_expiry_is_retryable(self):
        sim, layer = make_layer(ReliabilityPolicy(retry_attempts=1, rpc_deadline_us=50.0))
        calls = []

        def factory():
            def op():
                calls.append(sim.now)
                # First attempt blows the deadline; the second is quick.
                yield sim.timeout(100.0 if len(calls) == 1 else 1.0)
                return "ok"

            return op()

        result = complete(sim, layer.call(factory, family="rpc", name="renew", retry=True))
        assert result == "ok"
        assert len(calls) == 2
        assert layer.deadline_hits["rpc"] == 1


class TestBackoffDeterminism:
    def test_same_seed_same_backoffs(self):
        policy = ReliabilityPolicy()
        a = RetrySchedule(policy, np.random.default_rng(11))
        b = RetrySchedule(policy, np.random.default_rng(11))
        assert [a.backoff_us(n) for n in range(1, 6)] == [
            b.backoff_us(n) for n in range(1, 6)
        ]

    def test_backoff_grows_and_caps(self):
        policy = ReliabilityPolicy(retry_jitter=0.0)
        schedule = RetrySchedule(policy, np.random.default_rng(0))
        values = [schedule.backoff_us(n) for n in range(1, 6)]
        assert values[0] == policy.retry_base_us
        assert values[1] == policy.retry_base_us * policy.retry_multiplier
        assert max(values) == policy.retry_max_us

    def test_jitter_stays_bounded(self):
        policy = ReliabilityPolicy(retry_jitter=0.5)
        schedule = RetrySchedule(policy, np.random.default_rng(3))
        for attempt in range(1, 4):
            base = min(
                policy.retry_max_us,
                policy.retry_base_us * policy.retry_multiplier ** (attempt - 1),
            )
            for _ in range(100):
                value = schedule.backoff_us(attempt)
                assert base * 0.5 <= value <= base * 1.5

    def test_snapshot_counts_draws(self):
        sim, layer = make_layer()
        layer.retry.backoff_us(1)
        layer.retry.backoff_us(2)
        assert layer.snapshot()["backoff_draws"] == 2
