"""Design-parity goldens: the cost model must not drift across refactors.

For every Table-5 design (plus the three-tier spec-only design) this
runs one small OLTP benchmark (RangeScan with 20 % updates) and one
analytic benchmark (read-only RangeScan built with ``analytic=True``,
which exercises the BPExt-disable rule) and compares the resulting
virtual clock, hit counters and latency aggregates against checked-in
golden numbers — **bit-identical**, not approximate.  The simulation is
deterministic by construction, so any difference means a refactor
changed engine behavior, not just code structure.

One run produces all fourteen cells of the golden file
``benchmarks/goldens/design_parity.json``; a missing, drifted or stale
cell fails.  Recording goldens (only when a *deliberate* cost-model change lands, or
a design is added)::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src \
        python -m pytest benchmarks/test_design_parity.py -q -o testpaths=

rewrites the whole file.
"""

from __future__ import annotations

import json

import pytest

import conftest
from conftest import check_golden

from repro.harness import Design, build_database, prewarm_extension
from repro.harness.dbbench import prewarm_pool
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

#: Deliberately small: the point is determinism, not the paper's shape.
N_ROWS = 24_000
BP_PAGES = 192
EXT_PAGES = 1200

PARITY_DESIGNS = [
    Design.HDD,
    Design.HDD_SSD,
    Design.SMB_RAMDRIVE,
    Design.SMBDIRECT_RAMDRIVE,
    Design.CUSTOM,
    Design.LOCAL_MEMORY,
    Design.THREE_TIER,
]

WORKLOADS = ("oltp", "analytic")


def run_parity_case(design: Design, workload: str) -> dict:
    """Build a design, run one small RangeScan, return exact observables."""
    analytic = workload == "analytic"
    setup = build_database(
        design,
        bp_pages=BP_PAGES,
        bpext_pages=EXT_PAGES,
        tempdb_pages=1024,
        data_spindles=8,
        analytic=analytic,
        local_memory_bonus_pages=EXT_PAGES if design is Design.LOCAL_MEMORY else 0,
        seed=11,
    )
    db = setup.database
    table = build_customer_table(db, N_ROWS)
    prewarm_extension(setup)
    prewarm_pool(setup)
    config = RangeScanConfig(
        n_rows=N_ROWS,
        workers=16,
        queries_per_worker=4,
        update_fraction=0.0 if analytic else 0.2,
        seed=7,
    )
    report = run_rangescan(db, table, config, rng=setup.cluster.rng.stream("parity"))
    pool = db.pool
    extension = pool.extension
    return {
        "virtual_clock_us": setup.sim.now,
        "events_processed": setup.sim.events_processed,
        "elapsed_us": report.elapsed_us,
        "latency_sum_us": sum(report.latency.samples),
        "queries": report.queries,
        "bp_hits": pool.hits,
        "bp_misses": pool.misses,
        "ext_hits": pool.ext_hits,
        "base_reads": pool.base_reads,
        "ext_parked": 0 if extension is None else extension.parked_pages,
    }


def test_design_parity():
    check_golden(
        "design_parity",
        {
            f"{design.value}/{workload}": run_parity_case(design, workload)
            for design in PARITY_DESIGNS
            for workload in WORKLOADS
        },
        description="Table-5 designs x (RangeScan with 20 % updates, analytic "
                    "read-only RangeScan): virtual clock, hit counters and "
                    "latency aggregates; virtual-time exact golden",
    )


def test_check_golden(tmp_path, monkeypatch):
    """The golden helper every virtual-time benchmark uses: a missing
    file or cell fails, drift fails naming the field, a cell the run no
    longer produces fails, and only ``REPRO_UPDATE_BENCH=1`` writes —
    replacing the whole file with ``{"description", "cells"}``."""
    monkeypatch.setattr(conftest, "GOLDENS", tmp_path)
    monkeypatch.delenv("REPRO_UPDATE_BENCH", raising=False)
    path = tmp_path / "golden.json"
    cell = {"clock_us": 1.5, "nested": {"hits": 3}}
    cells = {"cell": cell, "stale": {}}
    with pytest.raises(AssertionError, match="missing; record it with REPRO_UPDATE_BENCH=1"):
        check_golden("golden", cells, "a test golden")
    assert not path.exists()

    monkeypatch.setenv("REPRO_UPDATE_BENCH", "1")
    check_golden("golden", cells, "a test golden")
    assert json.loads(path.read_text()) == {"description": "a test golden", "cells": cells}
    monkeypatch.delenv("REPRO_UPDATE_BENCH")
    check_golden("golden", cells, "a test golden")

    with pytest.raises(AssertionError, match="no cell 'other'; record it"):
        check_golden("golden", {**cells, "other": {}}, "a test golden")
    drifted = {"cell": {"clock_us": 1.5, "nested": {"hits": 4}}, "stale": {}}
    with pytest.raises(AssertionError, match=r"'nested/hits': \(3, 4\)"):
        check_golden("golden", drifted, "a test golden")
    with pytest.raises(AssertionError, match=r"no longer produces: \['stale'\]"):
        check_golden("golden", {"cell": cell}, "a test golden")

    monkeypatch.setenv("REPRO_UPDATE_BENCH", "1")
    check_golden("golden", {"cell": cell}, "refreshed")
    assert json.loads(path.read_text()) == {"description": "refreshed", "cells": {"cell": cell}}
