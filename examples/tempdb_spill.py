"""Spilling Hash+Sort to TempDB in remote memory (Section 3.2).

Runs the paper's Hash+Sort stress query — a join plus a top-N sort
whose memory grant is far smaller than its inputs — with TempDB on the
SSD and then in remote memory, and prints the phase behaviour.

Run:  python examples/tempdb_spill.py
"""

from repro.harness import Design, build_database
from repro.workloads import HashSortConfig, build_hashsort_tables, run_hashsort


def run(design: Design, config: HashSortConfig):
    setup = build_database(
        design,
        bp_pages=32768,            # data fits in local memory ...
        bpext_pages=0,
        tempdb_pages=64 * 1024,    # ... but the operators must spill
        analytic=True,
        workspace_bytes=48 * 1024 * 1024,
    )
    database = setup.database
    lineitem, orders = build_hashsort_tables(database, config)
    run_hashsort(database, lineitem, orders, config)  # warm the data cache
    return run_hashsort(database, lineitem, orders, config)


def main() -> None:
    config = HashSortConfig(n_orders=20_000)
    print("SELECT TOP-N * FROM lineitem JOIN orders ORDER BY extendedprice")
    print("-" * 64)
    for design in (Design.HDD_SSD, Design.CUSTOM):
        query, metrics = run(design, config)
        print(
            f"{design.value:<10s}: {query.elapsed_us / 1e6:6.2f} s "
            f"(spilled {metrics.spilled_bytes / 1e6:5.0f} MB, "
            f"{metrics.tempdb_writes} page writes, "
            f"{metrics.tempdb_reads} page reads)"
        )
    print("\nSame spill volume either way — the medium under TempDB is")
    print("the whole difference, exactly the paper's Figure 14.")


if __name__ == "__main__":
    main()
