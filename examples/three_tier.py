"""Three-tier hierarchy: DRAM pool -> SSD tier -> remote memory.

The paper's Section 8 sketches a multi-level memory hierarchy as future
work.  With the declarative tier grammar it is *data*: this example
builds a DRAM -> SSD -> remote stack from a :class:`repro.tiers.TierSpec`
alone — no design enum entry, no harness branches — runs a key-range
workload against it, and prints where every page access was served.

Evicted pages park in the hot SSD tier first; when that tier fills, its
coldest pages demote to the larger remote tier instead of being dropped;
a hit at the remote tier promotes the page back into the SSD tier.

Run:  python examples/three_tier.py
"""

from repro.harness import build_database, prewarm_extension
from repro.tiers import TierDef, TierSpec
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

N_ROWS = 60_000     # ~15 MB Customer table
LOCAL_POOL = 512    # DRAM pool pages: memory pressure
EXT_PAGES = 3000    # split 1:2 between the SSD and remote tiers

SPEC = TierSpec(
    name="ThreeTierDemo",
    extension=(
        TierDef(medium="ssd", share=1.0),
        TierDef(medium="remote", share=2.0, promote_on_hit=True),
    ),
    tempdb="remote",
    semcache="remote",
    protocol="ndspi",
    sync_remote_io=True,
)


def main() -> None:
    setup = build_database(
        SPEC, bp_pages=LOCAL_POOL, bpext_pages=EXT_PAGES, tempdb_pages=1024,
    )
    database = setup.database
    table = build_customer_table(database, N_ROWS)
    prewarm_extension(setup)

    config = RangeScanConfig(n_rows=N_ROWS, workers=40, queries_per_worker=25)
    report = run_rangescan(database, table, config)

    pool = database.pool
    stack = pool.extension
    print(f"RangeScan over a {SPEC.name} stack "
          f"({report.throughput:,.0f} queries/sec)")
    print("-" * 58)
    print(f"{'DRAM pool hits':28s}: {pool.hits:10,d}")
    for tier in stack.levels:
        print(f"{tier.name + ' (' + tier.medium + ') hits':28s}: "
              f"{tier.hits:10,d}   parked {tier.parked_pages:,d}"
              f"/{tier.capacity_pages:,d} pages")
    print(f"{'base-file (HDD) reads':28s}: {pool.base_reads:10,d}")
    print(f"{'demotions ssd -> remote':28s}: {stack.demotions:10,d}")
    print(f"{'promotions remote -> ssd':28s}: {stack.promotions:10,d}")


if __name__ == "__main__":
    main()
