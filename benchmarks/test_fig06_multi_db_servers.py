"""Figure 6: 1..8 database servers against one memory server.

Aggregate throughput scales ~linearly until the provider's NIC
saturates (~4 DB servers at the paper's tuning), after which latency
climbs with contention while throughput flattens.
"""

from dataclasses import replace

from repro.harness import format_table
from repro.harness.iobench import build_multi_db
from repro.storage import GB
from repro.workloads import RANDOM_8K, run_clients, sqlio_clients


def run_figure6():
    results = {}
    rows = []
    # ~2 threads per DB server so ~4 servers saturate the provider NIC.
    pattern = replace(RANDOM_8K, threads=2, ops_per_thread=1000)
    for n_db in (1, 2, 4, 8):
        targets = build_multi_db(n_db)
        run = run_clients(targets[0].cluster.sim, [
            client
            for target in targets
            for client in sqlio_clients(
                target, pattern, span_bytes=target.span_bytes,
                rng=target.cluster.rng.stream(f"sqlio.{target.name}"),
            )
        ])
        latencies = [run.by_label[target.name] for target in targets]
        aggregate = sum(
            (latency.count * pattern.io_bytes / GB) / (run.elapsed_us / 1e6)
            for latency in latencies
        )
        mean_latency = sum(latency.mean for latency in latencies) / len(latencies)
        results[n_db] = (aggregate, mean_latency)
        rows.append([n_db, aggregate, mean_latency])
    print()
    print(format_table(
        ["DB servers", "aggregate GB/s", "mean latency us"], rows,
        title="Figure 6: multiple database servers on one memory server",
    ))
    return results


def test_fig06_multi_db_servers(once):
    results = once(run_figure6)
    # Near-linear scaling before saturation...
    assert results[2][0] > 1.7 * results[1][0]
    assert results[4][0] > 2.5 * results[1][0]
    # ... with little latency growth,
    assert results[2][1] < 1.6 * results[1][1]
    # then the NIC saturates: throughput flattens, latency climbs.
    assert results[8][0] < 1.45 * results[4][0]
    assert results[8][1] > 1.4 * results[4][1]
