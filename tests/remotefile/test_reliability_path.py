"""RemoteFile transfers under a ReliabilityLayer: the guarded-call contract.

Pins how a remote read or write is gated by the provider's circuit
breaker, timed by its deadline family, retried (reads only) and judged,
including the two outcomes nobody waits on: a write-behind that aborts
and a write-behind that outlives its deadline.
"""

import numpy as np
import pytest

from repro.reliability import DeadlineExceeded, ReliabilityLayer, ReliabilityPolicy
from repro.remotefile import RemoteMemoryUnavailable
from repro.sim import Interrupt
from repro.storage import KB, MB

from .test_remotefile import complete, create_open, make_fs

PAGE = 8 * KB


def guarded_file(**policy):
    """A one-provider file with a page at offset 0, behind a layer."""
    cluster, fs, _broker, proxies = make_fs(memory_servers=1)
    layer = ReliabilityLayer(
        cluster.sim, np.random.default_rng(3), ReliabilityPolicy(**policy)
    )
    fs.reliability = layer
    file = create_open(cluster, fs)
    file.install(0, PAGE, "page")
    return cluster.sim, layer, file, proxies[0].server


def hold_admission(sim, layer, provider, until_us):
    """Take the provider's only admission slot until ``until_us``."""

    def holder():
        ticket = yield from layer.admit(provider)
        yield sim.timeout(until_us - sim.now)
        ticket.resource.cancel(ticket)

    sim.spawn(holder())


def test_read_missing_its_deadline_once_is_retried_and_succeeds():
    sim, layer, file, server = guarded_file(
        read_deadline_us=100.0, per_provider_inflight=1
    )
    # The first attempt queues behind the held slot past its deadline;
    # the slot is free again before the retry's backoff ends.
    hold_admission(sim, layer, server.name, sim.now + 110.0)
    value = complete(sim, file.read(0, PAGE))
    assert value == "page"
    assert layer.deadline_hits["read"] == 1
    assert layer.retries["read"] == 1
    assert layer.retry.draws == 1
    breaker = layer.breaker(server.name)
    # One failure, then one success (which reset the failure streak).
    assert (breaker.failures, breaker.successes) == (1, 1)
    assert breaker.consecutive_failures == 0


def test_failed_foreground_write_is_not_retried_and_fed_once():
    sim, layer, file, server = guarded_file(
        write_deadline_us=100.0, per_provider_inflight=1
    )
    hold_admission(sim, layer, server.name, sim.now + 1_000.0)
    outcome = {}

    def writer():
        try:
            yield from file.write(0, PAGE, "new")
        except DeadlineExceeded as exc:
            outcome["error"] = exc

    sim.spawn(writer())
    sim.run()
    assert isinstance(outcome["error"], DeadlineExceeded)
    assert layer.deadline_hits["write"] == 1
    assert layer.retry.draws == 0
    assert "write" not in layer.retries
    breaker = layer.breaker(server.name)
    assert (breaker.failures, breaker.successes) == (1, 0)
    assert file._qps[server.name].writes == 0  # never reissued
    assert file.writes == 0


def test_interrupted_half_open_trial_gives_its_probe_slot_back():
    sim, layer, file, server = guarded_file(
        breaker_failure_threshold=1, breaker_probe_quota=1,
        breaker_open_us=1_000.0, per_provider_inflight=1,
    )
    provider = server.name
    layer.breaker(provider).record_failure()  # trip it OPEN
    sim.run(until=sim.now + 1_000.0)
    hold_admission(sim, layer, provider, sim.now + 500.0)
    outcome = []

    def reader():
        try:
            yield from file.read(0, PAGE)
        except Interrupt:
            outcome.append("interrupted")

    trial = sim.spawn(reader())
    sim.run(until=sim.now + 10.0)  # the trial holds the only probe slot
    assert layer.breaker(provider).state.value == "half-open"
    trial.interrupt(cause="caller gave up")
    sim.run(until=sim.now + 10.0)
    assert outcome == ["interrupted"]
    # No verdict was recorded, and the slot came back.
    breaker = layer.breaker(provider)
    assert (breaker.failures, breaker.successes) == (1, 0)
    assert layer.breaker(provider).allow()


def test_aborted_fire_and_forget_write_feeds_a_failure_and_calls_on_abort():
    sim, layer, file, server = guarded_file()
    aborted = []
    complete(
        sim,
        file.write(0, PAGE, "new", background=True, on_abort=lambda: aborted.append(sim.now)),
    )
    breaker = layer.breaker(server.name)
    assert (breaker.failures, breaker.successes) == (0, 0)  # judged on completion
    failed_at = sim.now
    server.nic.fail()
    sim.run()
    assert aborted == [failed_at]
    assert (breaker.failures, breaker.successes) == (1, 0)
    assert layer.deadline_hits["write"] == 0


def test_healthy_fire_and_forget_write_feeds_one_success():
    sim, layer, file, server = guarded_file()
    complete(sim, file.write(0, PAGE, "new", background=True))
    sim.run()
    breaker = layer.breaker(server.name)
    assert (breaker.failures, breaker.successes) == (0, 1)
    assert complete(sim, file.read(0, PAGE)) == "new"


def test_write_behind_outliving_its_deadline_is_interrupted_by_the_watchdog():
    sim, layer, file, server = guarded_file(write_deadline_us=100.0)
    server.nic.degrade(latency_multiplier=10_000.0)
    aborted = []
    start = sim.now
    complete(
        sim,
        file.write(0, PAGE, "new", background=True, on_abort=lambda: aborted.append(sim.now)),
    )
    sim.run()
    assert layer.deadline_hits["write"] == 1
    assert len(aborted) == 1 and aborted[0] < start + 200.0
    breaker = layer.breaker(server.name)
    assert (breaker.failures, breaker.successes) == (1, 0)
    assert not file._landing
    # The extent was never overwritten.
    server.nic.restore_link()
    assert complete(sim, file.read(0, PAGE)) == "page"


def test_quarantined_provider_refuses_before_any_transfer():
    sim, layer, file, server = guarded_file(breaker_failure_threshold=1)
    layer.breaker(server.name).record_failure()
    qp = file._qps[server.name]
    with pytest.raises(RemoteMemoryUnavailable, match="quarantined"):
        complete(sim, file.read(0, PAGE))
    assert (qp.reads, layer.retry.draws) == (0, 0)



def test_probe_judges_the_provider_and_answers_a_bool():
    cluster, fs, _broker, proxies = make_fs(memory_servers=1)
    sim = cluster.sim
    layer = ReliabilityLayer(
        sim, np.random.default_rng(3), ReliabilityPolicy(breaker_failure_threshold=1)
    )
    proxy = proxies[0]
    breaker = layer.breaker(proxy.server.name)
    assert complete(sim, layer.probe(fs.owner, proxy)) is True
    proxy.server.nic.fail()
    assert complete(sim, layer.probe(fs.owner, proxy)) is False  # NetworkDown
    assert (breaker.successes, breaker.failures, breaker.state.value) == (1, 1, "open")
    # OPEN: refused without a ping, and no verdict recorded.
    assert complete(sim, layer.probe(fs.owner, proxy)) is False
    assert (breaker.failures, breaker.rejections) == (1, 1)


def test_lease_renewal_is_retried_through_a_broker_restart():
    cluster, fs, broker, _proxies = make_fs(memory_servers=1)
    sim = cluster.sim
    layer = ReliabilityLayer(sim, np.random.default_rng(3), ReliabilityPolicy())
    fs.reliability = layer
    broker.lease_duration_us = 1e6
    file = create_open(cluster, fs, size=16 * MB)
    lease = file.leases[0]
    start = sim.now

    def restart():
        yield sim.timeout(999.0)
        broker.fail()  # down when the first renewal round fires ...
        yield sim.timeout(11.0)
        broker.alive = True  # ... and back before its retry

    sim.spawn(restart())
    sim.spawn(fs.renewal_daemon(file, period_us=1_000.0))
    sim.run(until=start + 1_500.0)
    assert layer.retries["rpc"] == 1
    assert lease.expires_at_us > start + 1e6 + 1_000.0  # renewed after the backoff
    assert not layer.breakers  # an RPC to the broker judges no provider
