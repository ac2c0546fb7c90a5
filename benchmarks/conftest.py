"""Shared infrastructure for the per-figure benchmarks.

Every module regenerates one table/figure of the paper: it runs the
simulated experiment, prints the same rows/series the figure plots, and
asserts the qualitative shape (who wins, by roughly what factor).

Scales are reduced ~4000x from the paper's hardware (see DESIGN.md);
set ``REPRO_BENCH_FULL=1`` for larger configurations.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any

import pytest

sys.path.insert(0, os.path.dirname(__file__))

FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


# ---------------------------------------------------------------------------
# Virtual-time goldens
# ---------------------------------------------------------------------------


#: One golden file per golden-bearing benchmark: ``<name>.json``.
GOLDENS = Path(__file__).resolve().parent / "goldens"


def check_golden(name: str, cells: dict, description: str) -> None:
    """Hold every cell of ``cells`` to the golden file ``goldens/<name>.json``.

    Every golden file has one shape, ``{"description": ..., "cells":
    {...}}``, and is owned by one run that produces all of its cells.
    Virtual time is exact, so a missing file or cell fails, a recorded
    cell must match field for field (the failure names the differing
    fields and the refresh command), and a recorded cell the run no
    longer produces fails too.

    ``REPRO_UPDATE_BENCH=1`` is the one refresh switch: it rewrites the
    whole file from ``description`` and ``cells`` instead of checking.
    """
    path = GOLDENS / f"{name}.json"
    test_file = os.environ.get("PYTEST_CURRENT_TEST", "").split("::")[0]
    refresh = f"REPRO_UPDATE_BENCH=1 PYTHONPATH=src python -m pytest {test_file} -o testpaths="
    if os.environ.get("REPRO_UPDATE_BENCH", "") == "1":
        golden = {"description": description, "cells": cells}
        path.write_text(json.dumps(golden, indent=2) + "\n")
        return
    assert path.exists(), f"golden {path.name} is missing; record it with {refresh}"
    golden = json.loads(path.read_text())["cells"]
    stale = sorted(set(golden) - set(cells))
    assert not stale, (
        f"{path.name} has cells the run no longer produces: {stale} "
        f"— if the change is deliberate, refresh with {refresh}"
    )
    for cell, value in cells.items():
        assert cell in golden, f"{path.name} has no cell {cell!r}; record it with {refresh}"
        drift = _drift(golden[cell], value)
        assert not drift, (
            f"{path.name}[{cell!r}] drifted from its golden (field: (golden, observed)): "
            f"{drift} — if the change is deliberate, refresh with {refresh}"
        )


def _drift(golden: Any, observed: Any, field: str = "") -> dict:
    """``{field path: (golden, observed)}`` for every leaf that differs."""
    if isinstance(golden, dict) and isinstance(observed, dict):
        drift = {}
        for key in {**golden, **observed}:
            drift.update(_drift(
                golden.get(key), observed.get(key), f"{field}/{key}" if field else str(key)
            ))
        return drift
    return {} if golden == observed else {field: (golden, observed)}


# ---------------------------------------------------------------------------
# Shared experiment drivers
# ---------------------------------------------------------------------------

from repro.harness import Design, build_database, prewarm_extension  # noqa: E402
from repro.harness.dbbench import prewarm_pool  # noqa: E402
from repro.workloads import (  # noqa: E402
    RangeScanConfig,
    build_customer_table,
    run_rangescan,
)

#: RangeScan scaling: ~29 MB Customer table (paper: 110 GB), local
#: memory ~28 % of data (paper: 32 GB), BPExt covers the table
#: (paper: 128 GB).
RANGESCAN_ROWS = 120_000 if not FULL else 240_000
RANGESCAN_BP = 1024 if not FULL else 2048
RANGESCAN_EXT = 6000 if not FULL else 12000

ALL_DESIGNS = [
    Design.HDD,
    Design.HDD_SSD,
    Design.SMB_RAMDRIVE,
    Design.SMBDIRECT_RAMDRIVE,
    Design.CUSTOM,
    Design.LOCAL_MEMORY,
]


def rangescan_experiment(
    design: Design,
    spindles: int = 20,
    update_fraction: float = 0.0,
    bp_pages: int = RANGESCAN_BP,
    ext_pages: int = RANGESCAN_EXT,
    n_rows: int = RANGESCAN_ROWS,
    workers: int = 80,
    queries: int = 30,
    n_memory_servers: int = 1,
    distribution: str = "uniform",
    warm_queries: int = 10,
    track=None,
):
    """Build one design, warm it, run RangeScan, return (setup, report)."""
    bonus = ext_pages if design is Design.LOCAL_MEMORY else 0
    setup = build_database(
        design,
        bp_pages=bp_pages,
        bpext_pages=ext_pages,
        tempdb_pages=1024,
        data_spindles=spindles,
        n_memory_servers=n_memory_servers,
        analytic=False,
        local_memory_bonus_pages=bonus,
    )
    db = setup.database
    table = build_customer_table(db, n_rows)
    prewarm_extension(setup)
    prewarm_pool(setup)
    warm = RangeScanConfig(
        n_rows=n_rows, workers=workers, queries_per_worker=warm_queries,
        update_fraction=update_fraction, distribution=distribution, seed=1,
    )
    run_rangescan(db, table, warm, rng=setup.cluster.rng.stream("warm"))
    if track is not None:
        track(setup)
    config = RangeScanConfig(
        n_rows=n_rows, workers=workers, queries_per_worker=queries,
        update_fraction=update_fraction, distribution=distribution, seed=2,
    )
    report = run_rangescan(db, table, config, rng=setup.cluster.rng.stream("measure"))
    return setup, table, report


def wrong_answers(run, range_size: int) -> int:
    """RangeScan reads of ``run`` whose SUM(acctbal) is not the closed
    form (the Customer table's acctbal is 1000 + key % 9000)."""
    return sum(
        answer != float(sum(1000 + key % 9000 for key in range(start, start + range_size)))
        for *_, (start, answer) in run.records
    )
