"""Figures 9/10: read-only RangeScan — throughput and latency.

Without updates the log plays no role: only HDD's own throughput varies
with spindles; every other design is flat across spindle counts.
"""

from conftest import ALL_DESIGNS, rangescan_experiment

from repro.harness import Design, format_table


def run_figures_9_10():
    results = {}
    rows = []
    for spindles in (4, 20):
        for design in ALL_DESIGNS:
            _setup, _table, report = rangescan_experiment(
                design, spindles=spindles, update_fraction=0.0,
                workers=80, queries=25,
            )
            results[(design, spindles)] = (
                report.throughput, report.latency.mean / 1000.0
            )
            rows.append([
                f"{spindles} spindles", design.value,
                report.throughput, report.latency.mean / 1000.0,
            ])
    print()
    print(format_table(
        ["config", "design", "queries/sec", "latency ms"], rows,
        title="Figures 9/10: RangeScan read-only",
    ))
    return results


def test_fig09_10_rangescan_readonly(once):
    results = once(run_figures_9_10)

    def qps(design, spindles=20):
        return results[(design, spindles)][0]

    def latency(design, spindles=20):
        return results[(design, spindles)][1]

    # Custom within ~10-15% of Local Memory (paper's headline result).
    assert qps(Design.CUSTOM) > 0.8 * qps(Design.LOCAL_MEMORY)
    # 3-10x class gains over HDD+SSD.
    assert qps(Design.CUSTOM) > 3.0 * qps(Design.HDD_SSD)
    assert latency(Design.CUSTOM) < latency(Design.HDD_SSD) / 3.0
    # Read-only: non-HDD designs are flat across spindle counts...
    for design in (Design.HDD_SSD, Design.CUSTOM, Design.LOCAL_MEMORY):
        ratio = qps(design, 20) / qps(design, 4)
        assert 0.8 < ratio < 1.3, design
    # ... while pure HDD improves with spindles.
    assert qps(Design.HDD, 20) > 1.5 * qps(Design.HDD, 4)
