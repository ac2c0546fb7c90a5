"""Quickstart: lease remote memory, mount a file on it, run queries.

Builds a two-server cluster (one database server under memory pressure,
one memory server with spare RAM), brokers the spare memory, mounts a
buffer-pool extension on it, and shows the speedup on a simple
key-range workload — the paper's core idea in ~80 lines.

Run:  python examples/quickstart.py
"""

from repro.harness import Design, build_database, prewarm_extension
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

N_ROWS = 60_000     # ~15 MB Customer table
LOCAL_POOL = 512    # pages of local buffer pool (~4 MB): memory pressure!
REMOTE_EXT = 3000   # pages of remote-memory extension (covers the table)


def run(design: Design) -> float:
    setup = build_database(
        design,
        bp_pages=LOCAL_POOL,
        bpext_pages=REMOTE_EXT,
        tempdb_pages=1024,
    )
    database = setup.database
    table = build_customer_table(database, N_ROWS)
    prewarm_extension(setup)  # steady state: extension already populated
    config = RangeScanConfig(n_rows=N_ROWS, workers=40, queries_per_worker=25)
    report = run_rangescan(database, table, config)
    return report.throughput


def main() -> None:
    print("RangeScan on a database 4x larger than local memory")
    print("-" * 55)
    baseline = run(Design.HDD_SSD)
    print(f"HDD+SSD (no remote memory) : {baseline:10,.0f} queries/sec")
    custom = run(Design.CUSTOM)
    print(f"Custom (remote mem + RDMA) : {custom:10,.0f} queries/sec")
    print(f"speedup                    : {custom / baseline:10.1f}x")


if __name__ == "__main__":
    main()
