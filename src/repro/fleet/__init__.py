"""repro.fleet — a multi-tenant memory marketplace over one shared pool.

The paper provisions remote memory statically per database (Section
4.2); the fleet layer asks the next question — what happens when *tens*
of databases with shifting, bursty demand share one elastic pool?  It
composes the existing pieces (``repro.tiers`` topologies per tenant,
the brokered lease machinery, ``repro.faults`` storms, telemetry) into
fleet-scale scenarios:

* :mod:`~repro.fleet.topology` — declarative N×M fleets
  (:class:`FleetSpec` / :class:`TenantSpec` → :func:`build_fleet`,
  scenarios via :func:`run_fleet`);
* :mod:`~repro.fleet.tenants` — deterministic seeded traffic shapes
  (diurnal, flash crowd, Zipf hot-tenant skew) driving RangeScan
  queries through the workloads' client driver;
* :mod:`~repro.fleet.marketplace` — demand-driven lease reallocation
  with QoS classes, cooldowns, and anti-affinity placement.
"""

from .marketplace import (
    QOS_WEIGHTS,
    DemandSignal,
    Marketplace,
    MarketplacePolicy,
    QosClass,
)
from .tenants import (
    DiurnalShape,
    FlashCrowdShape,
    SteadyShape,
    TenantReport,
    TenantWorkload,
    TrafficShape,
    zipf_shares,
)
from .topology import (
    DEFAULT_TENANT_TIER,
    FleetReport,
    FleetSetup,
    FleetSpec,
    TenantRuntime,
    TenantSpec,
    build_fleet,
    run_fleet,
)

__all__ = [
    "DEFAULT_TENANT_TIER",
    "DemandSignal",
    "DiurnalShape",
    "FlashCrowdShape",
    "FleetReport",
    "FleetSetup",
    "FleetSpec",
    "Marketplace",
    "MarketplacePolicy",
    "QOS_WEIGHTS",
    "QosClass",
    "SteadyShape",
    "TenantReport",
    "TenantRuntime",
    "TenantSpec",
    "TenantWorkload",
    "TrafficShape",
    "build_fleet",
    "run_fleet",
    "zipf_shares",
]
