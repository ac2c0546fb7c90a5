"""Transactional TPC-C axis: conflict rate x design under strict 2PL.

The fig 22/23 runs use the per-district discipline (the paper's
contention profile, deadlock-free by construction).  This axis turns on
row-granular 2PL and sweeps the conflict rate — the fraction of traffic
routed to a small hot subset of districts — against three extension
designs.  Per cell it reports throughput, abort rate, deadlock count,
and the offline serializability verdict on real row data; a chaos cell
crashes a memory server and fires a lease-expiry storm mid-run on the
Custom design and demands zero committed-data loss and zero leaked
locks.

Everything runs in virtual time, so the recorded numbers are exact:
``benchmarks/goldens/tpcc_txn.json`` is a golden, and drift means
concurrency-control behavior changed and needs a deliberate refresh::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src \\
        python -m pytest benchmarks/test_tpcc_txn.py -o testpaths=
"""

from __future__ import annotations

from conftest import check_golden

from repro.faults import FaultEngine, FaultPlan, RecoveryMonitor
from repro.harness import (
    Design,
    build_database,
    format_table,
    prewarm_extension,
    rebuild_extension,
)
from repro.txn import check_serializable, committed_row_images
from repro.workloads import TpccConfig, TpccScale, build_tpcc_database, run_tpcc

SCALE = TpccScale(warehouses=4, items=200, history_orders=40)
DESIGNS = [Design.HDD_SSD, Design.SMB_RAMDRIVE, Design.CUSTOM]
#: Conflict knob: fraction of traffic routed into warehouse 0's ten
#: districts (share 0.25 of 40).  Stock rows are shared per warehouse,
#: so concentrating intents in one warehouse — while leaving them
#: spread across its districts — maximizes genuine row deadlocks.
CONFLICT_LEVELS = {"low": 0.0, "medium": 0.5, "high": 0.9}
HOT_SHARE = 0.25


def tpcc_tables(state):
    return [
        state.warehouse, state.district, state.customer,
        state.stock, state.orders, state.order_line,
    ]


def build(design: Design, seed: int = 7):
    setup = build_database(
        design, bp_pages=830, bpext_pages=1650, tempdb_pages=512, seed=seed
    )
    db = setup.database
    state = build_tpcc_database(db, SCALE)
    prewarm_extension(setup)
    return setup, db, state


def run_cell(design: Design, hot_fraction: float, seed: int = 7) -> dict:
    setup, db, state = build(design, seed=seed)
    manager = db.transactions(record_history=True)
    config = TpccConfig(
        scale=SCALE, workers=20, transactions_per_worker=10, seed=seed,
        concurrency="2pl", hot_district_fraction=hot_fraction,
        hot_district_share=HOT_SHARE, record_history=True,
    )
    report = run_tpcc(db, state, config)
    final = committed_row_images(db, tpcc_tables(state))
    check = check_serializable(manager.history, final_rows=final)
    return {
        "transactions": report.transactions,
        "commits": report.commits,
        "aborts": report.aborts,
        "abort_rate": round(report.abort_rate, 4),
        "deadlocks": report.deadlocks,
        "retries": report.retries,
        "throughput_tps": round(report.throughput_tps, 2),
        "lock_wait_us": round(report.lock_wait_us, 1),
        "exhausted": manager.exhausted,
        "locks_idle": manager.locks.idle,
        "serializable": check.ok,
        "conflict_edges": check.edges,
        "sim_now_us": round(db.sim.now, 3),
    }


def run_chaos_cell(seed: int = 7) -> dict:
    """Memory-server crash + lease-expiry storm mid-run on Custom."""
    setup, db, state = build(Design.CUSTOM, seed=seed)
    manager = db.transactions(record_history=True)
    monitor = RecoveryMonitor(setup.sim)
    monitor.track_extension(db.pool.extension)
    monitor.track_transactions(manager)
    engine = FaultEngine.for_setup(
        setup, monitor=monitor,
        on_provider_restored=lambda _name: rebuild_extension(setup),
    )
    base = setup.sim.now
    plan = (
        FaultPlan(seed=seed)
        .lease_storm(base + 20_000, fraction=0.5)
        .crash(base + 50_000, "mem0", duration_us=100_000)
    )
    engine.run_plan(plan)
    config = TpccConfig(
        scale=SCALE, workers=20, transactions_per_worker=15, seed=seed,
        concurrency="2pl", hot_district_fraction=0.8, hot_district_share=0.05,
        record_history=True,
    )
    report = run_tpcc(db, state, config)
    final = committed_row_images(db, tpcc_tables(state))
    check = check_serializable(manager.history, final_rows=final)
    crash = next(
        record for record in monitor.records
        if record.spec.kind.value == "memory-server-crash"
    )
    return {
        "transactions": report.transactions,
        "commits": report.commits,
        "aborts": report.aborts,
        "dooms": report.dooms,
        "pages_lost": crash.pages_lost,
        "txns_doomed_by_crash": crash.txns_doomed,
        "exhausted": manager.exhausted,
        "locks_idle": manager.locks.idle,
        "serializable": check.ok,
        "sim_now_us": round(db.sim.now, 3),
    }


def measure() -> dict:
    cells = {}
    rows = []
    for level, fraction in CONFLICT_LEVELS.items():
        for design in DESIGNS:
            cell = run_cell(design, fraction)
            cells[f"{level}/{design.value}"] = cell
            rows.append([
                level, design.value, cell["throughput_tps"],
                cell["abort_rate"], cell["deadlocks"],
                "yes" if cell["serializable"] else "NO",
            ])
    chaos = run_chaos_cell()
    print()
    print(format_table(
        ["conflict", "design", "transactions/sec", "abort rate", "deadlocks",
         "serializable"],
        rows, title="TPC-C with 2PL: throughput and abort rate vs conflict rate",
    ))
    print(
        f"chaos (crash + lease storm, Custom): {chaos['commits']}/"
        f"{chaos['transactions']} committed, {chaos['dooms']} doomed, "
        f"serializable={chaos['serializable']}"
    )
    return {"cells": cells, "chaos": chaos}


def test_tpcc_txn_conflict_axis(once):
    results = once(measure)
    cells, chaos = results["cells"], results["chaos"]

    for name, cell in cells.items():
        # Every intent eventually commits, serializably, with no locks
        # leaked — at every conflict level, on every design.
        assert cell["commits"] == cell["transactions"] == 200, name
        assert cell["exhausted"] == 0, name
        assert cell["locks_idle"], name
        assert cell["serializable"], name
    for design in DESIGNS:
        low = cells[f"low/{design.value}"]
        high = cells[f"high/{design.value}"]
        # The conflict knob works: hot-district routing produces real
        # aborts, and strictly more of them than the uniform mix.
        assert high["abort_rate"] > 0, design
        assert high["abort_rate"] > low["abort_rate"], design
        assert high["deadlocks"] > 0, design

    # The chaos cell: the crash doomed live transactions, every one
    # retried to a commit, and no committed row was lost.
    assert chaos["dooms"] > 0
    assert chaos["txns_doomed_by_crash"] == chaos["dooms"]
    assert chaos["commits"] == chaos["transactions"] == 300
    assert chaos["exhausted"] == 0
    assert chaos["locks_idle"]
    assert chaos["serializable"]

    check_golden(
        "tpcc_txn", results,
        description="TPC-C under strict 2PL: throughput + abort rate "
                    "vs conflict rate x design; virtual-time exact "
                    "golden",
    )
