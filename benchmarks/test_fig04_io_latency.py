"""Figure 4: I/O micro-benchmark latency (SQLIO).

Paper values (µs): HDD(4) 21000/6000, HDD(8) 13000/2000, HDD(20)
8000/1000, SSD 624/6288, SMB+RamDrive 236/723, SMBDirect+RamDrive
109/488, Custom 36/487.
"""

from repro.harness import IO_DESIGNS, build_io_target, format_table
from repro.workloads import RANDOM_8K, SEQUENTIAL_512K, run_sqlio


def run_figure4():
    results = {}
    rows = []
    for design in IO_DESIGNS:
        random_target = build_io_target(design)
        random = run_sqlio(
            random_target.cluster.sim, random_target, RANDOM_8K,
            span_bytes=random_target.span_bytes,
            rng=random_target.cluster.rng.stream("sqlio"),
        )
        seq_target = build_io_target(design)
        sequential = run_sqlio(
            seq_target.cluster.sim, seq_target, SEQUENTIAL_512K,
            span_bytes=seq_target.span_bytes,
            rng=seq_target.cluster.rng.stream("sqlio"),
        )
        results[design] = (random.latency.mean, sequential.latency.mean)
        rows.append([design, random.latency.mean, sequential.latency.mean])
    print()
    print(format_table(
        ["design", "8K random us", "512K sequential us"], rows,
        title="Figure 4: I/O micro-benchmark latency",
    ))
    return results


def test_fig04_io_latency(once):
    results = once(run_figure4)
    rand = {d: r for d, (r, _s) in results.items()}
    # Custom ~36 us class; within a factor of 2 of the paper's number.
    assert 18 < rand["Custom"] < 80
    # Latency ordering mirrors the throughput ordering.
    assert rand["Custom"] < rand["SMBDirect+RamDrive"] < rand["SMB+RamDrive"]
    assert rand["SMB+RamDrive"] < rand["SSD"] < rand["HDD(20)"]
    # Remote-memory random latency is an order of magnitude under SSD.
    assert rand["SSD"] / rand["Custom"] > 8
    # HDD latency improves with spindle count (queueing relief).
    assert rand["HDD(4)"] > rand["HDD(8)"] > rand["HDD(20)"]
