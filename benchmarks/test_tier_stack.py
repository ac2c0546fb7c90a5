"""Ablation: two extension tiers vs either tier alone (Section 8).

Same total extension budget, four topologies:

* **HDD+SSD** — the whole budget on the local SSD;
* **Custom**  — the whole budget in NDSPI remote memory;
* **ThreeTier** — 1/3 hot SSD tier over a 2/3 remote tier with
  promotion on remote hits (the stock ``Design.THREE_TIER`` spec);
* **ThreeTier/no-promote** — the same split as a pure overflow
  hierarchy, defined inline as a :class:`~repro.tiers.TierSpec`.

Two findings: remote memory outruns the local SSD at equal budget
(the paper's thesis), and the *placement policy* dominates the hybrid —
a stable overflow hierarchy lands between the two pure designs, while
promote-on-hit thrashes under uniform access because every promotion
into the full hot tier forces a demotion right back out.
"""

from conftest import rangescan_experiment

from repro.harness import Design, format_table
from repro.tiers import TierDef, TierSpec

#: Working set ~1.8x the hot SSD tier: the stack must demote.
ROWS = 60_000
BP = 512
EXT = 2000

NO_PROMOTE = TierSpec(
    name="ThreeTier/no-promote",
    extension=(
        TierDef(medium="ssd", share=1.0),
        TierDef(medium="remote", share=2.0),
    ),
    tempdb="remote",
    semcache="remote",
    protocol="ndspi",
    sync_remote_io=True,
)

ABLATION = [Design.HDD_SSD, Design.CUSTOM, Design.THREE_TIER, NO_PROMOTE]


def _label(design):
    return design.value if isinstance(design, Design) else design.name


def run_tier_ablation():
    rows = []
    results = {}
    for design in ABLATION:
        setup, _table, report = rangescan_experiment(
            design, bp_pages=BP, ext_pages=EXT, n_rows=ROWS,
            workers=40, queries=15, warm_queries=5,
        )
        pool = setup.database.pool
        ext = pool.extension
        per_tier = ", ".join(f"{lv.name}={lv.hits:,d}" for lv in ext.levels)
        results[_label(design)] = (report, pool, ext)
        rows.append([
            _label(design), report.throughput, pool.ext_hits,
            pool.base_reads, per_tier,
        ])
    print()
    print(format_table(
        ["design", "qps", "ext hits", "HDD reads", "per-tier hits"],
        rows, title="Ablation: one extension tier vs a two-tier stack",
    ))
    return results


def test_tier_stack_ablation(once):
    results = once(run_tier_ablation)
    ssd_report, _, _ = results["HDD+SSD"]
    custom_report, _, _ = results["Custom"]
    promote_report, _, promote_stack = results["ThreeTier"]
    overflow_report, overflow_pool, overflow_stack = results["ThreeTier/no-promote"]

    # The stack is a real hierarchy: both tiers serve pages, and the
    # promote variant moves pages in both directions.
    for stack in (promote_stack, overflow_stack):
        assert len(stack.levels) == 2
        assert all(level.hits > 0 for level in stack.levels)
        assert stack.hits == sum(level.hits for level in stack.levels)
        assert stack.parked_pages == sum(lv.parked_pages for lv in stack.levels)
    assert promote_stack.demotions > 0
    assert promote_stack.promotions > 0

    # Remote memory outruns the SSD at equal budget (Figure 9's gap).
    assert custom_report.throughput > ssd_report.throughput
    # The overflow hierarchy lands between the pure designs: faster
    # than all-SSD (its remote tier serves microsecond reads), slower
    # than all-remote (its hot tier is still an SSD).
    assert overflow_report.throughput > ssd_report.throughput
    assert overflow_report.throughput < custom_report.throughput
    assert overflow_pool.base_reads == 0  # full coverage, no double-cache
    # Promote-on-hit churns under uniform access: every promotion into
    # the full hot tier demotes a page right back out.
    assert promote_stack.demotions >= promote_stack.promotions
    assert overflow_report.throughput > promote_report.throughput


def test_tier_metrics_registered():
    """The stack's levels surface under ``bp.ext.tier.<name>.*``."""
    from repro.harness import build_database

    setup = build_database(
        Design.THREE_TIER, bp_pages=128, bpext_pages=600, tempdb_pages=256
    )
    names = set(setup.metrics.names())
    assert "bp.ext.hits" in names
    assert "bp.ext.demotions" in names
    assert "bp.ext.promotions" in names
    assert "bp.ext.tier.bpext.ssd.hits" in names
    assert "bp.ext.tier.bpext.remote.hits" in names
    assert "bp.ext.tier.bpext.remote.parked_pages" in names
