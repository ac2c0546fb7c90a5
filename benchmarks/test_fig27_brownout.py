"""Figure 27 (companion experiment): RangeScan through a brown-out storm.

PR 1's fault-injection experiment shows the engine recovers *after* a
crash clears.  This experiment shows the reliability layer keeps the
engine fast *while* faults are ongoing: a seeded storm of NIC
degradations (the link to mem0 becomes 50000x slower and lossy) and a
provider flap (a short mem0 crash) runs under a RangeScan workload
spread over two memory servers.

With the layer off, every page read parked at mem0 waits out the
degraded link — a throughput cliff.  With the layer on:

* deadlines cap how long any single transfer can hang,
* hedged reads bound page-fault latency at roughly
  (hedge delay + one local-disk read),
* the mem0 circuit breaker trips, the pool routes around the sick
  provider, and an active prober re-admits it once it answers pings,
* results stay byte-correct throughout, and a same-seed rerun is
  bit-identical (all randomness is drawn from seeded streams).
"""

from repro.faults import FaultEngine, FaultPlan, RecoveryMonitor
from repro.harness import Design, build_database, format_table, prewarm_extension
from repro.harness.dbbench import rebuild_extension
from repro.reliability import ReliabilityPolicy
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

from conftest import FULL, wrong_answers

N_ROWS = 60_000 if not FULL else 120_000
BP_PAGES = 512 if not FULL else 1024
EXT_PAGES = 3200 if not FULL else 6400
WORKERS = 8
QUERIES_PER_WORKER = 300 if not FULL else 600
SEED = 11

#: The brown-out policy under test: default deadlines/retries/hedging,
#: a quarantine short enough to cycle within the storm.
POLICY = ReliabilityPolicy(breaker_open_us=15_000.0)
PROBE_INTERVAL_US = 5_000.0

#: Storm timeline (virtual us, relative to workload start): NIC
#: brown-out windows around one crash flap, all aimed at mem0.  The
#: degraded link turns a ~2 us NIC engine pass into ~100 ms — far worse
#: than a local-disk read, which is what makes routing around the sick
#: provider the right call.  The last two windows land *after* the
#: post-crash extension rebuild (~226 ms), when mem0 is carrying leases
#: again and nothing else (no crash) will cut a parked transfer short —
#: the windows where waiting out the brown-out is the most expensive.
DEGRADE_MULTIPLIER = 50_000.0
DEGRADE_DROP = 0.05
STORM = [
    ("degrade", 20_000, 25_000),
    ("degrade", 55_000, 25_000),
    ("flap", 90_000, 6_000),
    ("degrade", 105_000, 25_000),
    ("degrade", 240_000, 25_000),
    ("degrade", 280_000, 25_000),
]
STORM_START_US = STORM[0][1]
STORM_END_US = STORM[-1][1] + STORM[-1][2]


def build_storm(start_us: float) -> FaultPlan:
    plan = FaultPlan()
    for kind, at_us, duration_us in STORM:
        if kind == "degrade":
            plan.degrade_link(
                start_us + at_us, "mem0", duration_us,
                latency_multiplier=DEGRADE_MULTIPLIER,
                drop_probability=DEGRADE_DROP,
            )
        else:
            plan.crash(start_us + at_us, "mem0", duration_us=duration_us)
    return plan


def run_experiment(reliability: bool, storm: bool, use_extension: bool = True):
    """One RangeScan run over two memory servers; optionally storm mem0."""
    setup = build_database(
        Design.CUSTOM,
        bp_pages=BP_PAGES, bpext_pages=EXT_PAGES, tempdb_pages=1024,
        n_memory_servers=2, seed=SEED,
        reliability=POLICY if reliability else None,
    )
    db = setup.database
    table = build_customer_table(db, N_ROWS)
    extension = db.pool.extension
    if use_extension:
        prewarm_extension(setup)
    else:
        extension.enabled = False  # local-disk baseline

    monitor = RecoveryMonitor(setup.sim)
    layer = setup.reliability
    if storm:
        engine = FaultEngine.for_setup(
            setup,
            # A crashed provider lost its leases: re-acquire on restore
            # (same operator response as the fig26b experiment).
            on_provider_restored=lambda _name: rebuild_extension(setup),
        )
        engine.run_plan(build_storm(setup.sim.now))

    sim = setup.sim
    if layer is not None:
        # Active health prober: pings quarantined providers so an OPEN
        # breaker is re-admitted as soon as its quarantine elapses.
        def prober():
            while True:
                yield sim.timeout(PROBE_INTERVAL_US)
                for name in layer.quarantined_providers():
                    proxy = setup.proxies.get(name)
                    if proxy is not None:
                        yield from layer.probe(setup.db_server, proxy)

        sim.spawn(prober(), name="reliability.prober")

    config = RangeScanConfig(
        n_rows=N_ROWS, workers=WORKERS, queries_per_worker=QUERIES_PER_WORKER, seed=2
    )
    run = run_rangescan(db, table, config, rng=setup.cluster.rng.stream("fig27"))
    begin = run.begin_us
    #: Per-query (completed_at_us, latency_us), both relative to start.
    query_latencies = [(end - begin, end - op_begin) for _, op_begin, end, _ in run.records]
    return {
        "monitor": monitor,
        "extension": extension,
        "completions": [end for end, _latency in query_latencies],
        "query_latencies": query_latencies,
        "wrong_results": wrong_answers(run, config.range_size),
        "qps": run.throughput,
        "fault_p99": db.pool.fault_latency.p99,
        "layer_snapshot": layer.snapshot() if layer is not None else None,
        "monitor_snapshot": [
            {**record, "injected_at_us": record["injected_at_us"] - begin}
            for record in monitor.snapshot()
        ],
    }


def storm_window_qps(result) -> float:
    """Query throughput inside the storm window (completions/s)."""
    count = sum(1 for t in result["completions"] if STORM_START_US <= t < STORM_END_US)
    return count / ((STORM_END_US - STORM_START_US) / 1e6)


def storm_window_query_p99(result) -> float:
    """p99 latency of queries completed inside the storm window."""
    from repro.sim import LatencyRecorder

    recorder = LatencyRecorder("window")
    for completed_at, latency in result["query_latencies"]:
        if STORM_START_US <= completed_at < STORM_END_US:
            recorder.record(latency)
    return recorder.p99


def replay_fingerprint(result) -> dict:
    """Everything that must be bit-identical across same-seed reruns."""
    return {
        "completions": result["completions"],
        "query_latencies": result["query_latencies"],
        "wrong_results": result["wrong_results"],
        "qps": result["qps"],
        "fault_p99": result["fault_p99"],
        "layer": result["layer_snapshot"],
        "monitor": result["monitor_snapshot"],
    }


def run_figure27():
    disk = run_experiment(reliability=False, storm=False, use_extension=False)
    layer_off = run_experiment(reliability=False, storm=True)
    layer_on = run_experiment(reliability=True, storm=True)
    replay = run_experiment(reliability=True, storm=True)

    print()
    print(format_table(
        ["run", "qps", "storm-window qps", "fault p99 (us)", "wrong results"],
        [
            ["local-disk baseline", f"{disk['qps']:.0f}", f"{storm_window_qps(disk):.0f}",
             f"{disk['fault_p99']:.0f}", disk["wrong_results"]],
            ["storm, layer off", f"{layer_off['qps']:.0f}",
             f"{storm_window_qps(layer_off):.0f}",
             f"{layer_off['fault_p99']:.0f}", layer_off["wrong_results"]],
            ["storm, layer on", f"{layer_on['qps']:.0f}",
             f"{storm_window_qps(layer_on):.0f}",
             f"{layer_on['fault_p99']:.0f}", layer_on["wrong_results"]],
        ],
        title="Figure 27: RangeScan through a brown-out storm",
    ))
    layer = layer_on["layer_snapshot"]
    print()
    print(format_table(
        ["metric", "value"],
        [
            ["deadline hits (read/write/rpc)",
             "/".join(str(layer["deadline_hits"][k]) for k in ("read", "write", "rpc"))],
            ["retries (read/rpc)",
             "/".join(str(layer["retries"][k]) for k in ("read", "rpc"))],
            ["breaker transitions", len(layer["breaker_transitions"])],
            ["hedged reads issued", layer["hedge"]["issued"]],
            ["hedge backup wins", layer["hedge"]["backup_wins"]],
            ["hedge rescues", layer["hedge"]["rescues"]],
            ["ext quarantine skips", layer_on["extension"].quarantine_skips],
            ["ext transient failures", layer_on["extension"].transient_failures],
        ],
        title="reliability layer activity (storm, layer on)",
    ))
    print()
    print(layer_on["monitor"].report())
    return disk, layer_off, layer_on, replay


def test_fig27_brownout(once):
    disk, layer_off, layer_on, replay = once(run_figure27)

    # Correctness is never compromised: every SUM matches the closed
    # form in every run, storm or not.
    for result in (disk, layer_off, layer_on, replay):
        assert result["wrong_results"] == 0

    # The storm actually hit and the layer actually engaged: breakers
    # tripped on mem0, the prober re-admitted it, hedged backups fired
    # and won races, deadlines cut degraded transfers short.
    layer = layer_on["layer_snapshot"]
    transitions = layer["breaker_transitions"]
    assert any(t[1] == "mem0" and t[3] == "open" for t in transitions)
    assert any(t[1] == "mem0" and t[3] == "closed" for t in transitions)
    assert layer["hedge"]["issued"] > 0
    assert layer["hedge"]["backup_wins"] > 0
    assert layer["deadline_hits"]["read"] > 0
    # The monitor attributed breaker activity to the injected faults.
    assert any(r["breaker_transitions"] for r in layer_on["monitor_snapshot"])

    # Hedging bounds the page-fault tail: p99 stays within the hedge
    # delay plus a local-disk read (the disk baseline's own p99 measures
    # exactly that read under identical load), while the layer-off run
    # waits out the browned-out link.
    bound = POLICY.hedge_max_delay_us + 2.0 * disk["fault_p99"]
    assert layer_on["fault_p99"] <= bound
    # The layer-off run's tail inside the storm window waits out the
    # browned-out link (~50 ms reads); the layer-on tail stays bounded.
    assert storm_window_query_p99(layer_off) > 1.5 * storm_window_query_p99(layer_on)

    # Graceful slope instead of a cliff: the layer wins while the storm
    # is raging, and end to end.
    assert storm_window_qps(layer_on) > storm_window_qps(layer_off)
    assert layer_on["qps"] > layer_off["qps"]

    # Bit-identical replay: same seed, same storm, same everything.
    assert replay_fingerprint(layer_on) == replay_fingerprint(replay)
