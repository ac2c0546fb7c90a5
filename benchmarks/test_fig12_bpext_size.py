"""Figure 12: impact of varying the BPExt size.

(a) all remote memory from one server vs (b) spread over several:
throughput rises and latency falls as the extension grows — until it
covers the whole database — and the curves are identical regardless of
how many servers provide the memory.
"""

from conftest import rangescan_experiment

from repro.harness import Design, format_table

#: Extension sizes (pages): from "BPExt = local memory" up to "covers
#: the table" (paper: 32 GB .. 144 GB in a 110 GB database).
EXT_SIZES = (1024, 2048, 3072, 4096, 5120)


def run_figure12():
    results = {}
    rows = []
    for label, servers in (("one memory server", 1), ("multiple memory servers", 4)):
        for ext_pages in EXT_SIZES:
            _setup, _table, report = rangescan_experiment(
                Design.CUSTOM, ext_pages=ext_pages, workers=80, queries=20,
                n_memory_servers=servers,
            )
            results[(label, ext_pages)] = (
                report.throughput, report.latency.mean / 1000.0
            )
            rows.append([
                label, ext_pages * 8 // 1024, report.throughput,
                report.latency.mean / 1000.0,
            ])
    print()
    print(format_table(
        ["providers", "BPExt MB", "queries/sec", "latency ms"], rows,
        title="Figure 12: varying the buffer-pool-extension size",
    ))
    return results


def test_fig12_bpext_size(once):
    results = once(run_figure12)
    one = [results[("one memory server", size)] for size in EXT_SIZES]
    many = [results[("multiple memory servers", size)] for size in EXT_SIZES]
    # Monotone-ish improvement with more remote memory.
    assert one[-1][0] > 1.5 * one[0][0]
    assert one[-1][1] < one[0][1]
    # Pooled-from-many behaves like one big server (within 15%).
    for (qps_one, _lat1), (qps_many, _lat2) in zip(one, many):
        assert abs(qps_one - qps_many) / qps_one < 0.15
