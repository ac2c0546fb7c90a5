"""Figures 18/19: TPC-H throughput and per-query latency improvements.

Key shapes: Custom beats HDD+SSD severalfold; Custom even beats Local
Memory because admission control caps grants and Q10/Q18 spill — to a
remote-memory TempDB under Custom, to the SSD under Local Memory.  The
latency histogram spans <2x (scan/CPU-bound queries) through >5x
(index-lookup queries).
"""

import os

from repro.harness import (
    Design,
    build_database,
    format_table,
    prewarm_extension,
)
from repro.harness.dbbench import prewarm_pool
from repro.workloads import (
    TPCH_QUERIES,
    build_tpch_database,
    improvement_histogram,
    queries_per_hour,
    run_query_streams,
)

BP, EXT, TDB = 256, 2600, 49152
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
DESIGNS_20SPIN = [
    Design.HDD, Design.HDD_SSD, Design.SMB_RAMDRIVE,
    Design.SMBDIRECT_RAMDRIVE, Design.CUSTOM, Design.LOCAL_MEMORY,
]
SPINDLE_DESIGNS = DESIGNS_20SPIN if FULL else [Design.HDD_SSD, Design.CUSTOM]


def _run_one(design, spindles):
    bonus = EXT if design is Design.LOCAL_MEMORY else 0
    setup = build_database(
        design, bp_pages=BP, bpext_pages=EXT, tempdb_pages=TDB,
        data_spindles=spindles, analytic=True, local_memory_bonus_pages=bonus,
    )
    db = setup.database
    tables = build_tpch_database(db)
    prewarm_extension(setup)
    if design is Design.LOCAL_MEMORY:
        prewarm_pool(setup)
    run_query_streams(db, tables, TPCH_QUERIES, streams=1, seed=9)  # warm
    return run_query_streams(db, tables, TPCH_QUERIES, streams=5, seed=1)


def run_figures_18_19():
    reports = {}
    rows = []
    for design in DESIGNS_20SPIN:
        reports[(design, 20)] = _run_one(design, 20)
        rows.append(["20 spindles", design.value, queries_per_hour(reports[(design, 20)])])
    for spindles in (4, 8):
        for design in SPINDLE_DESIGNS:
            reports[(design, spindles)] = _run_one(design, spindles)
            rows.append([f"{spindles} spindles", design.value,
                         queries_per_hour(reports[(design, spindles)])])
    print()
    print(format_table(
        ["config", "design", "queries/hour"], rows,
        title="Figure 18: TPC-H throughput",
    ))
    histogram = improvement_histogram(
        reports[(Design.HDD_SSD, 20)], reports[(Design.CUSTOM, 20)],
        buckets=(2, 5, 10),
    )
    print("\nFigure 19: latency improvement histogram (Custom vs HDD+SSD):")
    for bucket, count in histogram.items():
        print(f"  {bucket:>7}: {count} queries")
    return reports, histogram


def test_fig18_19_tpch(once):
    reports, histogram = once(run_figures_18_19)

    def qph(design, spindles=20):
        return queries_per_hour(reports[(design, spindles)])

    # Custom substantially outperforms HDD+SSD and the TCP baseline.
    assert qph(Design.CUSTOM) > 2.5 * qph(Design.HDD_SSD)
    assert qph(Design.CUSTOM) > qph(Design.SMB_RAMDRIVE)
    # Custom lands within the Local Memory ballpark overall (the paper
    # even measures it slightly ahead; at simulation scale the non-spill
    # queries favour the fully-cached pool more strongly) ...
    assert qph(Design.CUSTOM) > 0.45 * qph(Design.LOCAL_MEMORY)
    # The histogram spans the paper's buckets: scan-bound queries gain
    # ~2x, index- and TempDB-bound ones far more.
    assert histogram["<2x"] + histogram["2-5x"] >= 4
    assert histogram["2-5x"] + histogram["5-10x"] >= 10
    # ... and Q10/Q18 beat Local Memory individually (they spill to a
    # remote-memory TempDB instead of the SSD).
    custom = reports[(Design.CUSTOM, 20)]
    local = reports[(Design.LOCAL_MEMORY, 20)]
    for query in ("Q10", "Q18"):
        assert custom.by_label[query].mean < local.by_label[query].mean, query
