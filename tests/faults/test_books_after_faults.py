"""Faults leave the broker's books balanced, and a plan stays data.

A crash used to write the proxy's pre-crash offer into its spec, so a
plan replayed on a second set-up re-offered the first set-up's bytes.
Random storms — crashes, link degradation and lease-expiry storms —
end with :meth:`~repro.broker.MemoryBroker.verify` passing.
"""

import copy

import numpy as np
import pytest

from repro.dist import Strategy, build_strategy
from repro.faults import FaultEngine, FaultKind, FaultPlan
from repro.harness import build_database
from repro.harness.designs import Design
from repro.storage import MB

from ..dist.test_plan_dist import SMALL, SPEC


def custom_setup(bpext_pages=256):
    return build_database(
        Design.CUSTOM, bp_pages=64, bpext_pages=bpext_pages, tempdb_pages=256, seed=1
    )


def hybrid_setup():
    return build_strategy(Strategy.HYBRID, SPEC, total_ext_pages=512, scale=SMALL, seed=3)


def test_one_crash_plan_on_two_setups_reoffers_each_proxys_own_bytes():
    setups = [custom_setup(), custom_setup(bpext_pages=4096)]
    offered = [setup.proxies["mem0"].offered_bytes for setup in setups]
    assert offered == [192 * MB, 256 * MB]
    at = max(setup.sim.now for setup in setups) + 1_000
    plan = FaultPlan().crash(at, "mem0", duration_us=5_000)
    specs = copy.deepcopy(plan.specs)
    for setup, before in zip(setups, offered):
        FaultEngine.for_setup(setup).run_plan(plan)
        setup.sim.run(until=at + 1e6)
        assert setup.proxies["mem0"].offered_bytes == before
        setup.broker.verify(setup.proxies)
    assert plan.specs == specs


@pytest.mark.parametrize("make_setup", [custom_setup, hybrid_setup], ids=["custom", "hybrid"])
def test_random_storm_ends_with_balanced_books(make_setup):
    setup = make_setup()
    active = []
    setup.sim.observers.append(
        lambda _now, kind, fields: active.append(fields) if kind == "fault.active" else None
    )
    horizon = 2e6
    plan = FaultPlan.random_storm(
        np.random.default_rng(4), horizon, mean_interval_us=0.3e6,
        targets=[server.name for server in setup.memory_servers],
        mean_duration_us=0.3e6, seed=4,
    )
    base = setup.sim.now
    for spec in plan.specs:
        spec.at_us += base
    FaultEngine.for_setup(setup).run_plan(plan)
    setup.sim.run(until=base + 2 * horizon)

    assert len(active) == len(plan)
    expired = [
        fields["details"]["expired_leases"]
        for fields in active
        if fields["spec"].kind is FaultKind.LEASE_EXPIRY_STORM
    ]
    revoked = [
        fields["details"]["revoked_leases"]
        for fields in active
        if fields["spec"].kind is FaultKind.MEMORY_SERVER_CRASH
    ]
    assert sum(expired) >= 1 and sum(revoked) >= 1
    setup.broker.verify(setup.proxies)
