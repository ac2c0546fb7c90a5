"""Fault injection: crash a memory server mid-workload, watch recovery.

Remote memory is best-effort (paper Section 4.1.5): when the provider
backing the buffer-pool extension dies, queries must keep returning
correct results — the engine re-faults pages from the local base file,
throughput sags toward the disk baseline, and once the server returns
and the extension is rebuilt on fresh leases the rate climbs back.

This script schedules a deterministic, seeded crash of "mem0" ten
virtual milliseconds into a RangeScan run, lets the fault engine
restore it twenty milliseconds later, and prints the per-fault recovery
record: detection latency, pages lost, re-faults, time until
throughput is back above threshold.

Run:  python examples/fault_injection.py
"""

from repro.faults import FaultEngine, FaultPlan, RecoveryMonitor
from repro.harness import Design, build_database, prewarm_extension, rebuild_extension
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

N_ROWS = 20_000
SEED = 42
CRASH_AFTER_US = 10_000
CRASH_DURATION_US = 20_000


def run(inject_fault: bool):
    setup = build_database(Design.CUSTOM, bp_pages=192, bpext_pages=900, seed=SEED)
    table = build_customer_table(setup.database, n_rows=N_ROWS)
    prewarm_extension(setup)  # steady state: extension already warm
    extension = setup.database.pool.extension

    monitor = RecoveryMonitor(setup.sim)  # sees every fault, re-fault and breaker event
    if inject_fault:
        engine = FaultEngine.for_setup(
            setup,
            # Once the provider's memory is re-offered, swap a fresh
            # remote store into the extension (it re-warms via eviction).
            on_provider_restored=lambda _name: rebuild_extension(setup),
        )
        plan = FaultPlan(seed=SEED).crash(
            setup.sim.now + CRASH_AFTER_US, "mem0", duration_us=CRASH_DURATION_US
        )
        engine.run_plan(plan)
        monitor.watch(lambda: extension.hits, 10_000, recovered_at=5_000.0)

    config = RangeScanConfig(n_rows=N_ROWS, workers=8, queries_per_worker=120, seed=SEED)
    report = run_rangescan(setup.database, table, config)
    return report, monitor, extension


def main() -> None:
    healthy, _, _ = run(inject_fault=False)
    print(f"healthy run      : {healthy.throughput:10,.0f} queries/sec")

    faulted, monitor, extension = run(inject_fault=True)
    print(f"crash-injected   : {faulted.throughput:10,.0f} queries/sec")
    print(f"pages lost       : {extension.pages_lost_to_faults:10,}")
    print(f"re-faults to disk: {extension.failures:10,}")
    print()
    print(monitor.report())

    record = monitor.records[0]
    assert record.detected_at_us is not None, "fault was never observed"
    assert record.recovered_at_us is not None, "throughput never recovered"
    print()
    print(f"detection latency   : {record.detection_latency_us:8,.0f} us")
    print(f"recovered throughput: {record.recovery_latency_us:8,.0f} us after restore")


if __name__ == "__main__":
    main()
