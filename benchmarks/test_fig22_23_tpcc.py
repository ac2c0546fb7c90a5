"""Figures 22/23: TPC-C with the default and read-mostly mixes.

Default mix: the working set is small and shifting, so *no* design —
not even Local Memory — helps much.  Read-mostly mix (90 % StockLevel):
the working set spans the order-line history, and designs with more
memory (local or remote) win.  Latency shows the paper's inversion:
HDD+SSD has slightly *lower* latency in the read-mostly mix because its
throughput is lower (less contention at equal client count).
"""

from repro.harness import Design, build_database, format_table, prewarm_extension
from repro.workloads import (
    DEFAULT_MIX,
    READ_MOSTLY_MIX,
    TpccConfig,
    build_tpcc_database,
    run_tpcc,
)

BP, EXT = 830, 1650
DESIGNS = [
    Design.HDD, Design.HDD_SSD, Design.SMB_RAMDRIVE,
    Design.SMBDIRECT_RAMDRIVE, Design.CUSTOM, Design.LOCAL_MEMORY,
]


def run_figures_22_23():
    results = {}
    rows = []
    # The default mix runs at 100 clients (saturation, where the paper's
    # "nothing helps much" claim lives).  The read-mostly mix runs at 50:
    # past that, every design saturates the shared HDD data array and the
    # extension medium stops mattering — 50 clients is where the figure's
    # SSD-vs-remote separation is actually measurable.
    for mix_name, mix, workers in (
        ("Default", DEFAULT_MIX, 100), ("Read-Mostly", READ_MOSTLY_MIX, 50)
    ):
        for design in DESIGNS:
            bonus = EXT if design is Design.LOCAL_MEMORY else 0
            setup = build_database(
                design, bp_pages=BP, bpext_pages=EXT, tempdb_pages=1024,
                analytic=False, local_memory_bonus_pages=bonus,
            )
            db = setup.database
            state = build_tpcc_database(db)
            prewarm_extension(setup)
            warm = TpccConfig(mix=dict(mix), workers=workers,
                              transactions_per_worker=10, seed=7)
            run_tpcc(db, state, warm)
            config = TpccConfig(mix=dict(mix), workers=workers,
                                transactions_per_worker=20, seed=8)
            run, _txns = run_tpcc(db, state, config)
            results[(mix_name, design)] = (run.throughput, run.latency.mean / 1000.0)
            rows.append([mix_name, design.value, run.throughput, run.latency.mean / 1000.0])
    print()
    print(format_table(
        ["mix", "design", "transactions/sec", "latency ms"], rows,
        title="Figures 22/23: TPC-C throughput and latency",
    ))
    return results


def test_fig22_23_tpcc(once):
    results = once(run_figures_22_23)

    def tps(mix, design):
        return results[(mix, design)][0]

    def latency(mix, design):
        return results[(mix, design)][1]

    # Default mix: remote memory does NOT help — the remote designs sit
    # within ~30% of HDD+SSD (paper Figure 22 left); even doubling the
    # memory locally moves it by far less than the read-mostly gains.
    base = tps("Default", Design.HDD_SSD)
    for design in (Design.CUSTOM, Design.SMBDIRECT_RAMDRIVE):
        assert abs(tps("Default", design) - base) / base < 0.3, design
    assert tps("Default", Design.LOCAL_MEMORY) < 1.6 * base
    # Read-mostly: more memory helps, local or remote — every
    # memory-rich design finishes ahead of HDD+SSD, and far ahead of
    # plain HDD.
    assert tps("Read-Mostly", Design.CUSTOM) > 1.03 * tps("Read-Mostly", Design.HDD_SSD)
    assert tps("Read-Mostly", Design.SMB_RAMDRIVE) > tps("Read-Mostly", Design.HDD_SSD)
    assert tps("Read-Mostly", Design.LOCAL_MEMORY) > 1.2 * tps("Read-Mostly", Design.HDD_SSD)
    assert tps("Read-Mostly", Design.CUSTOM) > 2.0 * tps("Read-Mostly", Design.HDD)
    # The paper's latency observation: despite reading from media ~300x
    # slower, HDD+SSD's latency is within ~1.6x of the remote designs at
    # equal client count (its lower throughput means less contention).
    assert latency("Read-Mostly", Design.HDD_SSD) < 1.6 * latency(
        "Read-Mostly", Design.CUSTOM
    )
