"""Figure 3: I/O micro-benchmark throughput (SQLIO).

Paper values (GB/s):

====================  =========  ===============
design                8K random  512K sequential
====================  =========  ===============
HDD(4)                0.007      0.36
HDD(8)                0.015      0.76
HDD(20)               0.04       1.76
SSD                   0.24       0.39
SMB+RamDrive          0.64       3.36
SMBDirect+RamDrive    1.36       5.09
Custom                4.27       5.1
====================  =========  ===============
"""

from repro.harness import IO_DESIGNS, build_io_target, format_table
from repro.workloads import RANDOM_8K, SEQUENTIAL_512K, gb_per_s, run_sqlio


def _registry_row(design, registry):
    """One metrics-table row per design, read back through the registry."""
    flat = registry.flat()

    def total(suffix, needle):
        return sum(
            value for name, value in flat.items()
            if name.endswith(suffix) and needle in name
        )

    return [
        design,
        total(".bytes_read", ".dev.") / 1e9,
        total(".bytes_sent", ".nic.") / 1e9,
        total(".reads", "rfile."),
        total(".read_latency.p95_us", ".dev."),
    ]


def run_figure3():
    rows = []
    metric_rows = []
    results = {}
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
        results[design] = (gb_per_s(random), gb_per_s(sequential))
        rows.append([design, gb_per_s(random), gb_per_s(sequential)])
        metric_rows.append(_registry_row(design, random_target.metrics))
    print()
    print(format_table(
        ["design", "8K random GB/s", "512K sequential GB/s"], rows,
        title="Figure 3: I/O micro-benchmark throughput",
    ))
    print()
    print(format_table(
        ["design", "dev GB read", "nic GB sent", "rfile reads", "dev p95 us"],
        metric_rows,
        title="Figure 3 metrics (random pass, registry view)",
    ))
    return results


def test_fig03_io_throughput(once):
    results = once(run_figure3)
    rand = {d: r for d, (r, _s) in results.items()}
    seq = {d: s for d, (_r, s) in results.items()}
    # Random: Custom >> SMBDirect >> SMB >> SSD >> HDD.
    assert rand["Custom"] > 2.0 * rand["SMBDirect+RamDrive"]
    assert rand["SMBDirect+RamDrive"] > 1.5 * rand["SMB+RamDrive"]
    assert rand["SMB+RamDrive"] > 2.0 * rand["SSD"]
    assert rand["SSD"] > 5.0 * rand["HDD(20)"]
    # Sequential: Custom ~ SMBDirect > SMB > HDD(20) > SSD; RAID-0 HDD
    # beats the SSD sequentially (the paper's Table-5 rationale).
    assert abs(seq["Custom"] - seq["SMBDirect+RamDrive"]) / seq["Custom"] < 0.2
    assert seq["SMBDirect+RamDrive"] > seq["SMB+RamDrive"]
    assert seq["HDD(20)"] > 2.0 * seq["SSD"]
    # Spindle scaling.
    assert seq["HDD(20)"] > 3.0 * seq["HDD(4)"]
