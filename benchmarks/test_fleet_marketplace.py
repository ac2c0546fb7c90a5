"""Fleet benchmark: static partitioning vs the memory marketplace.

Two scenarios, each run twice — once with every tenant frozen at its
static share of the pool, once with the marketplace rebalancing leases
from demand signals:

* **traffic-shift** — two tenants with anti-phase diurnal load over
  one pool.  Statically, each tenant's peak runs against half the
  memory while the other half idles; the marketplace moves pages to
  whoever is climbing toward peak.  The acceptance gate: the GOLD
  tenant (never a reclaim victim) must see a *better p99* with the
  marketplace than with static partitioning.
* **failure-storm** — steady load while half the memory servers crash
  and later return.  Anti-affinity placement means each tenant loses
  only a slice of its extension; the marketplace repairs and re-grants
  once capacity returns, where the static fleet limps on whatever
  survived.

Everything runs in virtual time, so the recorded numbers are exact:
``benchmarks/goldens/fleet_marketplace.json`` is a golden, and drift
means fleet behavior changed and needs a deliberate refresh::

    REPRO_UPDATE_BENCH=1 PYTHONPATH=src \\
        python -m pytest benchmarks/test_fleet_marketplace.py -o testpaths=

Each scenario also exports a Perfetto trace (set ``REPRO_TRACE_DIR`` to
keep them; defaults to the system temp directory).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from conftest import check_golden

from repro.faults import FaultPlan
from repro.fleet import (
    DiurnalShape,
    FleetSpec,
    MarketplacePolicy,
    QosClass,
    SteadyShape,
    TenantSpec,
    build_fleet,
    run_fleet,
)
from repro.telemetry import install, validate_chrome_trace, write_chrome_trace

TRACE_DIR = Path(os.environ.get("REPRO_TRACE_DIR", tempfile.gettempdir()))

POLICY = MarketplacePolicy(period_us=1e6, cooldown_us=4e6, min_delta_pages=256)


def shift_spec() -> FleetSpec:
    """Anti-phase diurnal pair: memory should follow the sun."""
    period = 24e6
    return FleetSpec(
        name="traffic-shift",
        memory_servers=4,
        tenants=(
            TenantSpec(name="acme", replicas=1, ext_pages=384, bp_pages=64,
                       peak_queries_per_epoch=90, workers=8, n_rows=24_000,
                       floor_pages=256,
                       shape=DiurnalShape(period_us=period, low=0.05, high=1.0,
                                          phase=0.0)),
            TenantSpec(name="zen", qos=QosClass.GOLD, replicas=1, ext_pages=384,
                       bp_pages=64, peak_queries_per_epoch=90, workers=8,
                       n_rows=24_000, floor_pages=256,
                       shape=DiurnalShape(period_us=period, low=0.05, high=1.0,
                                          phase=0.5)),
        ),
    )


def storm_spec() -> FleetSpec:
    """Steady load; half the memory servers crash mid-run."""
    return FleetSpec(
        name="failure-storm",
        memory_servers=4,
        tenants=(
            TenantSpec(name="acme", replicas=2, ext_pages=1024, bp_pages=64,
                       peak_queries_per_epoch=60, workers=6, n_rows=12_000,
                       shape=SteadyShape(level=0.8)),
            TenantSpec(name="zen", qos=QosClass.GOLD, replicas=2, ext_pages=1024,
                       bp_pages=64, peak_queries_per_epoch=60, workers=6,
                       n_rows=12_000, shape=SteadyShape(level=0.8)),
        ),
    )


def storm_plan() -> FaultPlan:
    # Correlated crash: two of four providers die within 200ms and come
    # back four (virtual) seconds later.
    return (
        FaultPlan()
        .crash(3.0e6, "mem0", duration_us=4e6)
        .crash(3.2e6, "mem1", duration_us=4e6)
    )


def run_scenario(name, spec_factory, epochs, marketplace, fault_plan=None) -> dict:
    setup = build_fleet(spec_factory(), marketplace=POLICY if marketplace else None)
    tracer = install(setup.sim)
    report = run_fleet(
        setup, epochs=epochs, epoch_us=1e6,
        fault_plan=fault_plan() if fault_plan else None,
    )
    trace_path = TRACE_DIR / f"fleet_{name}_{'market' if marketplace else 'static'}.trace.json"
    write_chrome_trace(tracer, str(trace_path), label=f"fleet {name}")
    with open(trace_path) as fh:
        events = validate_chrome_trace(json.load(fh))
    assert events, f"empty Perfetto trace for {name}"
    return report.as_dict()


def measure() -> dict:
    scenarios = {}
    for name, factory, epochs, plan in (
        ("traffic-shift", shift_spec, 24, None),
        ("failure-storm", storm_spec, 10, storm_plan),
    ):
        static = run_scenario(name, factory, epochs, marketplace=False, fault_plan=plan)
        market = run_scenario(name, factory, epochs, marketplace=True, fault_plan=plan)
        comparison = {}
        for tenant in static["tenants"]:
            comparison[tenant] = {
                "static_p99_ms": static["tenants"][tenant]["latency_p99_ms"],
                "marketplace_p99_ms": market["tenants"][tenant]["latency_p99_ms"],
                "p99_speedup": round(
                    static["tenants"][tenant]["latency_p99_ms"]
                    / max(market["tenants"][tenant]["latency_p99_ms"], 1e-9),
                    4,
                ),
            }
        scenarios[name] = {
            "static": static,
            "marketplace": market,
            "comparison": comparison,
            "aggregate_qps": {
                "static": static["aggregate_qps"],
                "marketplace": market["aggregate_qps"],
            },
        }
    return scenarios


def test_fleet_marketplace():
    scenarios = measure()
    summary = {
        name: data["comparison"] for name, data in scenarios.items()
    }
    print(f"\nfleet-bench: {json.dumps(summary)}")

    # Acceptance: during the traffic shift the GOLD tenant — never a
    # reclaim victim — must do better on p99 with the marketplace.
    shift = scenarios["traffic-shift"]["comparison"]
    assert shift["zen"]["marketplace_p99_ms"] < shift["zen"]["static_p99_ms"], (
        f"marketplace did not beat static partitioning on the victim-free "
        f"tenant's p99: {shift['zen']}"
    )
    # And the storm must degrade, not destroy: every tenant keeps
    # serving queries through a two-provider crash in both modes.
    for mode in ("static", "marketplace"):
        for tenant, record in scenarios["failure-storm"][mode]["tenants"].items():
            assert record["queries"] > 0, f"{tenant} starved during the storm ({mode})"

    check_golden(
        "fleet_marketplace", scenarios,
        description="static partitioning vs marketplace rebalancing; "
                    "virtual-time exact golden",
    )
