"""Brown-out degradation: ride out a sick NIC instead of hanging on it.

A crash is easy to detect; a *brown-out* — the link to a memory server
suddenly 50000x slower and dropping packets — is the nastier failure,
because every page read parked at that server still *eventually*
succeeds.  Without protection the engine waits out each ~50 ms
transfer and throughput falls off a cliff.

The reliability layer turns the cliff into a slope:

* every remote read runs under a virtual-time **deadline**,
* expired reads are **retried** with seeded exponential backoff,
* repeated failures trip the provider's **circuit breaker**, so the
  buffer-pool extension routes around it (local disk / healthy
  providers) until a **probe** re-admits it,
* page faults issue **hedged** backup disk reads once the fault takes
  longer than the p99-derived hedge delay, so the tail stays bounded
  by (hedge delay + one disk read).

This script runs the same seeded RangeScan through the same seeded
brown-out twice — layer off, then layer on — and prints the
throughput inside the degraded window, the breaker's state changes and
the hedge scoreboard.  Results are byte-correct in both runs; only the
latency profile differs.

Run:  python examples/brownout.py
"""

from repro.faults import FaultEngine, FaultPlan
from repro.harness import Design, build_database, format_table, prewarm_extension
from repro.reliability import ReliabilityPolicy
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

N_ROWS = 20_000
RANGE_SIZE = 100
SEED = 7
#: Three brown-out windows (start_us, duration_us relative to workload
#: start): the link to mem0 repeatedly turns 50000x slower and lossy,
#: recovers, and relapses — the shape where riding it out costs the
#: most and a breaker that re-admits the provider pays off.
WINDOWS = [(10_000, 30_000), (60_000, 30_000), (110_000, 30_000)]
STORM_SPAN_US = (WINDOWS[0][0], WINDOWS[-1][0] + WINDOWS[-1][1])
POLICY = ReliabilityPolicy(breaker_open_us=10_000.0)
PROBE_INTERVAL_US = 4_000.0


def expected_sum(start_key: int) -> float:
    """Closed form of SUM(acctbal) for one query (acctbal = 1000 + key % 9000)."""
    return float(sum(1000 + key % 9000 for key in range(start_key, start_key + RANGE_SIZE)))


def run(with_layer: bool):
    setup = build_database(
        Design.CUSTOM, bp_pages=192, bpext_pages=900, n_memory_servers=2,
        seed=SEED, reliability=POLICY if with_layer else None,
    )
    db = setup.database
    table = build_customer_table(db, n_rows=N_ROWS)
    prewarm_extension(setup)

    engine = FaultEngine.for_setup(setup)
    plan = FaultPlan(seed=SEED)
    for at_us, duration_us in WINDOWS:
        plan.degrade_link(
            setup.sim.now + at_us, "mem0", duration_us,
            latency_multiplier=50_000.0, drop_probability=0.05,
        )
    engine.run_plan(plan)

    layer = setup.reliability
    sim = setup.sim
    if layer is not None:
        def prober():
            # Ping quarantined providers so an OPEN breaker is
            # re-admitted as soon as its quarantine elapses.
            while True:
                yield sim.timeout(PROBE_INTERVAL_US)
                for name in layer.quarantined_providers():
                    proxy = setup.proxies.get(name)
                    if proxy is not None:
                        yield from layer.probe(setup.db_server, proxy)

        sim.spawn(prober(), name="reliability.prober")

    config = RangeScanConfig(
        n_rows=N_ROWS, workers=8, queries_per_worker=120, seed=2
    )
    scan = run_rangescan(db, table, config, rng=setup.cluster.rng.stream("brownout-example"))
    wrong_results = sum(answer != expected_sum(start) for *_, (start, answer) in scan.records)
    span_start, span_end = STORM_SPAN_US
    in_window = sum(
        1 for _, _, end, _ in scan.records if span_start <= end - scan.begin_us < span_end
    )
    window_qps = in_window / ((span_end - span_start) / 1e6)
    return scan.throughput, window_qps, wrong_results, layer


def main() -> None:
    off_qps, off_window_qps, off_wrong, _ = run(with_layer=False)
    on_qps, on_window_qps, on_wrong, layer = run(with_layer=True)

    print(format_table(
        ["run", "qps", "storm-span qps", "wrong results"],
        [
            ["layer off", f"{off_qps:,.0f}", f"{off_window_qps:,.0f}", off_wrong],
            ["layer on", f"{on_qps:,.0f}", f"{on_window_qps:,.0f}", on_wrong],
        ],
        title="RangeScan through three 30 ms brown-outs of mem0",
    ))

    snap = layer.snapshot()
    print()
    print("breaker transitions (virtual us, provider, old -> new):")
    for at_us, provider, old, new in snap["breaker_transitions"]:
        print(f"  {at_us:12,.0f}  {provider}  {old} -> {new}")
    print()
    print(
        "deadline hits: {read}/{write}/{rpc} (read/write/rpc)".format(
            **snap["deadline_hits"]
        )
    )
    print(
        "hedged reads : {issued} issued, {backup_wins} backup wins, "
        "{rescues} rescues".format(**snap["hedge"])
    )


if __name__ == "__main__":
    main()
