"""Figures 7/8: RangeScan with 20 % updates — throughput and latency.

Updates append to the transaction log on the HDD array, so throughput
improves with spindle count; all remote-memory designs beat HDD+SSD,
and Custom lands within ~10-20 % of Local Memory.
"""

from conftest import ALL_DESIGNS, rangescan_experiment

from repro.harness import Design, format_table


def run_figures_7_8():
    results = {}
    rows = []
    for spindles in (4, 8, 20):
        for design in ALL_DESIGNS:
            _setup, _table, report = rangescan_experiment(
                design, spindles=spindles, update_fraction=0.2,
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
        title="Figures 7/8: RangeScan with 20% updates",
    ))
    return results


def test_fig07_08_rangescan_updates(once):
    results = once(run_figures_7_8)

    def qps(design, spindles=20):
        return results[(design, spindles)][0]

    # Remote-memory designs beat HDD+SSD (paper: 3-10x for short r/w).
    for design in (Design.SMB_RAMDRIVE, Design.SMBDIRECT_RAMDRIVE, Design.CUSTOM):
        assert qps(design) > 1.5 * qps(Design.HDD_SSD), design
    # Local Memory stays ahead of every disk/remote design.
    assert qps(Design.LOCAL_MEMORY) > qps(Design.CUSTOM)
    # The three remote designs are comparable under the update mix
    # (the log on the HDD array is the shared bottleneck).
    assert qps(Design.CUSTOM) > 0.85 * qps(Design.SMBDIRECT_RAMDRIVE)
    assert qps(Design.CUSTOM) > 0.85 * qps(Design.SMB_RAMDRIVE)
    # With updates, more spindles -> higher throughput (log on HDD).
    assert qps(Design.CUSTOM, 20) > qps(Design.CUSTOM, 4)
