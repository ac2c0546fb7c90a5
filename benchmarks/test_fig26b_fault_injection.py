"""Figure 26b (companion experiment): RangeScan under a memory-server crash.

Remote memory is best-effort (Section 4.1.5): when the provider backing
the BPExt dies mid-workload, queries must keep returning *correct*
results — throughput collapses to roughly the local-disk baseline while
every access re-faults from the HDD array, then climbs back once the
extension is rebuilt on fresh leases.

The experiment injects a deterministic memory-server crash in the middle
of a RangeScan run, verifies every query's SUM(acctbal) against the
closed-form expectation, and prints the three throughput phases the
figure plots: healthy, during-fault, recovered.
"""

from repro.faults import FaultEngine, FaultPlan, RecoveryMonitor
from repro.harness import Design, build_database, format_table, prewarm_extension
from repro.harness.dbbench import rebuild_extension
from repro.workloads import RangeScanConfig, build_customer_table
from repro.workloads.rangescan import read_query

from conftest import FULL

N_ROWS = 60_000 if not FULL else 120_000
BP_PAGES = 512 if not FULL else 1024
EXT_PAGES = 3200 if not FULL else 6400
RANGE_SIZE = 100
WORKERS = 8
QUERIES_PER_WORKER = 600 if not FULL else 1200
#: Crash timing relative to workload start (virtual us).
CRASH_AFTER_US = 30_000
CRASH_DURATION_US = 40_000


def expected_sum(start_key: int) -> float:
    """Closed form of SUM(acctbal) for one query (acctbal = 1000 + key % 9000)."""
    return float(sum(1000 + key % 9000 for key in range(start_key, start_key + RANGE_SIZE)))


def run_experiment(inject_fault: bool, use_extension: bool = True):
    """One RangeScan run; optionally crash mem0 mid-flight."""
    setup = build_database(
        Design.CUSTOM, bp_pages=BP_PAGES, bpext_pages=EXT_PAGES, tempdb_pages=1024,
    )
    db = setup.database
    table = build_customer_table(db, N_ROWS)
    extension = db.pool.extension
    if use_extension:
        prewarm_extension(setup)
    else:
        extension.enabled = False  # local-disk baseline: every miss hits the HDDs

    monitor = RecoveryMonitor(setup.sim)
    monitor.track_extension(extension)
    if inject_fault:
        engine = FaultEngine.for_setup(
            setup,
            monitor=monitor,
            on_provider_restored=lambda _name: rebuild_extension(setup),
        )
        plan = FaultPlan().crash(
            setup.sim.now + CRASH_AFTER_US, "mem0", duration_us=CRASH_DURATION_US
        )
        engine.run_plan(plan)
        monitor.watch(lambda: extension.hits, 5_000, recovered_at=20_000.0)

    config = RangeScanConfig(n_rows=N_ROWS, workers=WORKERS,
                             queries_per_worker=QUERIES_PER_WORKER, seed=2)
    rng = setup.cluster.rng.stream("fig26b")
    total = config.workers * config.queries_per_worker
    from repro.workloads.rangescan import _start_keys

    starts = _start_keys(config, rng, total)
    completions: list[float] = []
    wrong_results = 0
    sim = setup.sim
    begin = sim.now

    def worker(worker_index: int):
        nonlocal wrong_results
        base = worker_index * config.queries_per_worker
        for query_index in range(config.queries_per_worker):
            start_key = int(starts[base + query_index])
            yield from db.server.cpu.compute(db.query_setup_cpu_us)
            value = yield from read_query(db, table, start_key, RANGE_SIZE)
            if value != expected_sum(start_key):
                wrong_results += 1
            completions.append(sim.now)

    processes = [sim.spawn(worker(index)) for index in range(config.workers)]

    def await_all():
        yield sim.all_of(processes)

    sim.run_until_complete(sim.spawn(await_all()))
    return {
        "setup": setup,
        "monitor": monitor,
        "extension": extension,
        "begin_us": begin,
        "end_us": sim.now,
        "completions": completions,
        "wrong_results": wrong_results,
        "qps": total / ((sim.now - begin) / 1e6),
    }


def rate_in_window(completions, start_us, end_us) -> float:
    if end_us <= start_us:
        return 0.0
    count = sum(1 for t in completions if start_us <= t < end_us)
    return count / ((end_us - start_us) / 1e6)


def run_figure26b():
    disk = run_experiment(inject_fault=False, use_extension=False)
    healthy = run_experiment(inject_fault=False)
    faulted = run_experiment(inject_fault=True)

    record = faulted["monitor"].records[0]
    t_inject = record.injected_at_us
    t_restored = record.restored_at_us
    t_recovered = record.recovered_at_us
    completions = faulted["completions"]
    end = faulted["end_us"]

    phases = {
        "healthy (pre-fault)": rate_in_window(completions, faulted["begin_us"], t_inject),
        "during fault": rate_in_window(completions, t_inject, t_restored),
        # From recovery onward the extension is still re-warming, so the
        # figure distinguishes the climb from the settled tail.
        "recovered (ramp)": rate_in_window(completions, t_recovered, end),
        "recovered (tail)": rate_in_window(completions, (t_recovered + end) / 2, end),
    }

    print()
    print(format_table(
        ["run", "qps", "wrong results", "ext failures", "pages lost"],
        [
            ["local-disk baseline", f"{disk['qps']:.0f}", disk["wrong_results"],
             disk["extension"].failures, disk["extension"].pages_lost_to_faults],
            ["custom, healthy", f"{healthy['qps']:.0f}", healthy["wrong_results"],
             healthy["extension"].failures, healthy["extension"].pages_lost_to_faults],
            ["custom, crash injected", f"{faulted['qps']:.0f}", faulted["wrong_results"],
             faulted["extension"].failures, faulted["extension"].pages_lost_to_faults],
        ],
        title="Figure 26b: RangeScan through a memory-server crash",
    ))
    print()
    print(format_table(
        ["phase", "window ms", "qps"],
        [
            [name,
             f"{(w_end - w_start) / 1e3:.1f}",
             f"{rate:.0f}"]
            for (name, rate), (w_start, w_end) in zip(
                phases.items(),
                [(faulted["begin_us"], t_inject), (t_inject, t_restored),
                 (t_recovered, end), ((t_recovered + end) / 2, end)],
            )
        ],
        title="throughput phases (crash run)",
    ))
    print()
    print(faulted["monitor"].report())
    return disk, healthy, faulted, phases


def test_fig26b_fault_injection(once):
    disk, healthy, faulted, phases = once(run_figure26b)

    # Correctness is never compromised: every SUM matches the closed form
    # in every run, fault or not (best-effort remote memory, §4.1.5).
    assert disk["wrong_results"] == 0
    assert healthy["wrong_results"] == 0
    assert faulted["wrong_results"] == 0

    # The crash actually hit: parked pages were lost and the workload
    # observed failures on the access path.
    record = faulted["monitor"].records[0]
    assert record.pages_lost > 0
    assert record.detected_at_us is not None
    assert record.restored_at_us is not None

    # Healthy BPExt throughput is far above the local-disk baseline...
    assert healthy["qps"] > 3 * disk["qps"]
    assert phases["healthy (pre-fault)"] > 3 * disk["qps"]
    # ...during the fault it degrades to roughly the disk baseline...
    assert phases["during fault"] < 2.0 * disk["qps"]
    # ...and after the extension is rebuilt it recovers: the ramp is
    # already far above the fault floor, the settled tail approaches the
    # healthy rate as the extension re-warms.
    assert record.recovered_at_us is not None
    assert phases["recovered (ramp)"] > 3 * phases["during fault"]
    assert phases["recovered (tail)"] > 0.5 * phases["healthy (pre-fault)"]
