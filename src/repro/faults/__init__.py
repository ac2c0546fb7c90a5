"""repro.faults — deterministic fault injection and recovery.

Scheduled, seeded, virtual-time faults driven through the public fault
hooks each layer exposes (``Server.fail``, ``NicPort.degrade``,
``MemoryBroker.fail_provider`` …), plus the observers that measure how
the system detects and recovers.  Every schedule is a :class:`FaultPlan`
(hand-built, or drawn ahead of time by :meth:`FaultPlan.random_storm`),
and :meth:`FaultEngine.for_setup` aims one at any topology — a
``DbSetup``, ``DistSetup`` or ``FleetSetup``.  See DESIGN.md ("Fault
injection") for the architecture and determinism contract.
"""

from .injectors import (
    BrokerRestartInjector,
    FaultEngine,
    Injector,
    LeaseExpiryStormInjector,
    LinkDegradationInjector,
    MemoryServerCrashInjector,
)
from .recovery import FaultRecord, RecoveryMonitor
from .schedule import FaultKind, FaultPlan, FaultSpec

__all__ = [
    "BrokerRestartInjector",
    "FaultEngine",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "Injector",
    "LeaseExpiryStormInjector",
    "LinkDegradationInjector",
    "MemoryServerCrashInjector",
    "RecoveryMonitor",
]
