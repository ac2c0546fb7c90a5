"""Smoke pass over the benchmark itself.

Run by explicit path (``pytest perfbench/``); tier-1 collects ``tests/``
only, so this does not slow it down.  One ``--scale smoke --trace 1`` run
covers all five workloads, timed and traced, in well under 20 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_SHARES = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".self_share")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--scale", "smoke", "--trace", "1", "--json", str(out)],
        check=True, cwd=ROOT, timeout=170,
    )
    return {result["workload"]: result for result in json.loads(out.read_text())}


def share(result: dict, *layers: str) -> float:
    return sum(result["per_layer"][f"{layer}.self_share"]["value"] for layer in layers)


def test_every_workload_runs_clean(smoke):
    assert list(smoke) == [workload["name"] for workload in SPEC["workloads"]]
    for name, result in smoke.items():
        assert result["failed"] == 0, (name, result["failures"])
        assert result["attempted"] >= 1


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_emitted_with_its_unit(smoke, kind):
    for name, result in smoke.items():
        emitted = result[kind]
        assert list(emitted) == [metric["name"] for metric in SPEC[kind]], name
        for metric in SPEC[kind]:
            assert emitted[metric["name"]]["unit"] == metric["unit"], (name, metric["name"])
            assert isinstance(emitted[metric["name"]]["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(smoke):
    for name, result in smoke.items():
        for metric, entry in result["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)


def test_layer_shares_sum_to_one(smoke):
    for name, result in smoke.items():
        total = sum(result["per_layer"][layer]["value"] for layer in LAYER_SHARES)
        assert total == pytest.approx(1.0, abs=0.01), name


def test_workloads_separate_the_layers(smoke):
    ro = smoke["rangescan_ro"]
    assert share(ro, "engine.bufferpool", "remotefile", "net") >= 0.20
    assert share(ro, "txn", "dist") <= 0.01
    tpcc = smoke["tpcc_2pl_hot"]
    assert share(tpcc, "txn") >= 0.15
    assert share(tpcc, "remotefile", "net") <= 0.01
    dist = smoke["dist_query_mix"]
    assert share(dist, "plan", "dist", "engine.operators") >= 0.30
    assert share(dist, "remotefile") == 0.0
    assert dist["per_layer"]["remotefile.reads"]["value"] == 0


def test_only_the_update_mix_shows_the_known_anomalies(smoke):
    for name, result in smoke.items():
        if name != "rangescan_rw":
            assert result["per_layer"]["workloads.lost_row_updates"]["value"] == 0, name
            assert result["per_layer"]["workloads.anomalous_answers"]["value"] == 0, name
