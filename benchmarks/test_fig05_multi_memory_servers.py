"""Figure 5: one database server pooling memory from 1..8 memory servers.

The total remote memory is constant; throughput and latency should be
essentially independent of how many servers provide it (the DB server's
NIC is the shared bottleneck either way).
"""

from repro.harness import build_custom_multi, format_table
from repro.workloads import RANDOM_8K, SEQUENTIAL_512K, gb_per_s, run_sqlio


def run_figure5():
    results = {}
    rows = []
    for n_servers in (1, 2, 4, 8):
        random_target = build_custom_multi(n_servers)
        random = run_sqlio(
            random_target.cluster.sim, random_target, RANDOM_8K,
            span_bytes=random_target.span_bytes,
            rng=random_target.cluster.rng.stream("sqlio"),
        )
        seq_target = build_custom_multi(n_servers)
        sequential = run_sqlio(
            seq_target.cluster.sim, seq_target, SEQUENTIAL_512K,
            span_bytes=seq_target.span_bytes,
            rng=seq_target.cluster.rng.stream("sqlio"),
        )
        results[n_servers] = (
            gb_per_s(random), random.latency.mean,
            gb_per_s(sequential), sequential.latency.mean,
        )
        rows.append([n_servers, *results[n_servers]])
    print()
    print(format_table(
        ["memory servers", "rand GB/s", "rand us", "seq GB/s", "seq us"], rows,
        title="Figure 5: constant remote memory spread over 1..8 memory servers",
    ))
    return results


def test_fig05_multi_memory_servers(once):
    results = once(run_figure5)
    base_rand, base_lat, base_seq, _ = results[1]
    for n_servers, (rand, lat, seq, _seq_lat) in results.items():
        # Negligible impact as the provider count varies (paper: the DB
        # server's NIC saturates either way).
        assert abs(rand - base_rand) / base_rand < 0.25, n_servers
        assert abs(seq - base_seq) / base_seq < 0.25, n_servers
    # With 8 providers the random latency is not worse than with 1
    # (the paper observes slightly *lower* latency from parallelism).
    assert results[8][1] <= base_lat * 1.15
