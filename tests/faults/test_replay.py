"""Acceptance: a seeded fault experiment replays bit-identically.

Two fresh end-to-end runs — same seed, same plan — must produce the
same fault times, the same recovery statistics and the same workload
results, down to the last microsecond and page count.
"""

from repro.faults import FaultEngine, FaultPlan, RecoveryMonitor
from repro.harness import build_database, prewarm_extension, rebuild_extension
from repro.harness.designs import Design
from repro.workloads.rangescan import (
    RangeScanConfig,
    build_customer_table,
    run_rangescan,
)

N_ROWS = 20_000


def run_fault_experiment(seed=42):
    """One crash-under-load RangeScan run; returns comparable results."""
    setup = build_database(Design.CUSTOM, bp_pages=192, bpext_pages=900, seed=seed)
    table = build_customer_table(setup.database, n_rows=N_ROWS)
    prewarm_extension(setup)

    monitor = RecoveryMonitor(setup.sim)
    extension = setup.database.pool.extension
    monitor.track_extension(extension)
    engine = FaultEngine.for_setup(
        setup,
        monitor=monitor,
        on_provider_restored=lambda _name: rebuild_extension(setup),
    )

    base = setup.sim.now
    plan = (
        FaultPlan(seed=seed)
        .crash(base + 10_000, "mem0", duration_us=20_000)
        .lease_storm(base + 5_000, fraction=0.5)
    )
    engine.run_plan(plan)
    monitor.watch(lambda: extension.hits, 10_000, recovered_at=5_000.0)

    config = RangeScanConfig(n_rows=N_ROWS, workers=8, queries_per_worker=120, seed=seed)
    report = run_rangescan(setup.database, table, config)
    return {
        "snapshot": monitor.snapshot(),
        "queries": report.queries,
        "elapsed_us": report.elapsed_us,
        "throughput_qps": report.throughput_qps,
        "ext_hits": extension.hits,
        "ext_failures": extension.failures,
        "pages_lost": extension.pages_lost_to_faults,
        "pool_base_reads": setup.database.pool.base_reads,
        "latency_p99": report.latency.percentile(99),
    }


def test_seeded_fault_replay_is_bit_identical():
    first = run_fault_experiment(seed=42)
    second = run_fault_experiment(seed=42)
    # The faults actually happened...
    assert first["snapshot"], "fault plan never fired"
    assert first["pages_lost"] > 0
    assert first["queries"] == 8 * 120
    # ...and both runs saw the exact same world.
    assert first == second


def test_different_seed_diverges():
    first = run_fault_experiment(seed=42)
    other = run_fault_experiment(seed=43)
    assert first["elapsed_us"] != other["elapsed_us"]
