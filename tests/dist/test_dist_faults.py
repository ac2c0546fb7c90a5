"""A memory server crash under the hybrid topology: compute servers page
from remote memory that fails on its own, and the answer never changes
(the paper's best-effort remote memory, Section 4.1.5)."""

import pytest

from repro.dist import Strategy, build_strategy, execute_plan
from repro.faults import FaultEngine, FaultPlan, RecoveryMonitor
from repro.workloads import tpch_order_lines_plan, tpch_star_join_plan

from .test_plan_dist import SMALL, SPEC

CRASH_AFTER_US = 200.0


def hybrid_setup():
    return build_strategy(Strategy.HYBRID, SPEC, total_ext_pages=512,
                          scale=SMALL, seed=3)


def run_hybrid(plan, name, crash):
    setup = hybrid_setup()
    engine = FaultEngine.for_setup(setup)
    if crash:
        engine.run_plan(FaultPlan().crash(setup.sim.now + CRASH_AFTER_US, "mem0"))
    result = execute_plan(setup, plan, name=name)
    lost = sum(extension.pages_lost_to_faults for extension in engine.extensions)
    return engine, result, lost


def test_engine_sweeps_every_compute_server_extension():
    setup = hybrid_setup()
    engine = FaultEngine.for_setup(setup)
    assert len(setup.databases) == SPEC.db_servers
    assert engine.extensions == [db.pool.extension for db in setup.databases]
    assert engine.broker is setup.broker and engine.proxies is setup.proxies


def test_one_monitor_sees_every_database():
    """A monitor needs no wiring: it observes both compute servers."""
    setup = hybrid_setup()
    monitor = RecoveryMonitor(setup.sim)
    extensions = [db.pool.extension for db in setup.databases]
    assert len(extensions) == 2
    # Expire every lease under parked pages: both servers re-fault them.
    FaultEngine.for_setup(setup).run_plan(
        FaultPlan().lease_storm(setup.sim.now + CRASH_AFTER_US, fraction=1.0)
    )
    before = [extension.failures for extension in extensions]
    execute_plan(setup, tpch_star_join_plan(), name="star_join")
    refaults = [extension.failures - was for extension, was in zip(extensions, before)]
    [record] = monitor.records
    assert record.refaults == sum(refaults)
    assert all(count >= 1 for count in refaults)
    assert record.detected_at_us is not None


@pytest.mark.parametrize("make_plan, name", [
    (tpch_order_lines_plan, "order_lines"),
    (tpch_star_join_plan, "star_join"),
])
def test_crash_costs_time_not_answers(make_plan, name):
    _, clean, clean_lost = run_hybrid(make_plan(), name, crash=False)
    engine, crashed, lost = run_hybrid(make_plan(), name, crash=True)
    assert engine.faults_fired == 1
    assert crashed.rows == clean.rows
    assert clean_lost == 0 and lost > 0
    assert crashed.elapsed_us > clean.elapsed_us
