"""Figure 24: varying the local memory available to the database server.

Custom's advantage over HDD+SSD shrinks as local memory grows, and the
two meet once the database fits entirely in local memory.
"""

from conftest import rangescan_experiment

from repro.harness import Design, format_table

#: Local-memory sweep (pages); the table needs ~3700 pages, so the last
#: steps cache the whole database (paper sweeps 16 GB .. 128 GB).
BP_SIZES = (512, 1024, 2048, 3072, 4608)


def run_figure24():
    results = {}
    rows = []
    for bp_pages in BP_SIZES:
        for design in (Design.HDD_SSD, Design.CUSTOM):
            _setup, _table, report = rangescan_experiment(
                design, bp_pages=bp_pages, workers=80, queries=20,
            )
            results[(design, bp_pages)] = (
                report.throughput, report.latency.mean / 1000.0
            )
            rows.append([
                bp_pages * 8 // 1024, design.value,
                report.throughput, report.latency.mean / 1000.0,
            ])
    print()
    print(format_table(
        ["local memory MB", "design", "queries/sec", "latency ms"], rows,
        title="Figure 24: impact of available local memory",
    ))
    return results


def test_fig24_local_memory(once):
    results = once(run_figure24)

    def gain(bp_pages):
        return (
            results[(Design.CUSTOM, bp_pages)][0]
            / results[(Design.HDD_SSD, bp_pages)][0]
        )

    # Remote memory helps a lot when local memory is scarce...
    assert gain(BP_SIZES[0]) > 3.0
    # ... and the benefit shrinks as local memory grows ...
    assert gain(BP_SIZES[0]) > gain(BP_SIZES[-2]) > 1.0
    # ... until the database fits in RAM and the designs are equal.
    assert abs(gain(BP_SIZES[-1]) - 1.0) < 0.15
    # Custom itself improves slightly with more local memory (local is
    # two orders of magnitude faster than remote).
    assert results[(Design.CUSTOM, BP_SIZES[-1])][0] >= \
        results[(Design.CUSTOM, BP_SIZES[0])][0]
