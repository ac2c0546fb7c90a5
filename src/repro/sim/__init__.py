"""Discrete-event simulation substrate (virtual clock in microseconds)."""

from .cpu import Cpu
from .kernel import (
    ABORTED,
    AllOf,
    AnyOf,
    Chain,
    Event,
    Interrupt,
    Process,
    Resource,
    SimulationError,
    Simulator,
    Store,
    Timeout,
)
from .rng import RngRegistry
from .stats import LatencyRecorder, summarize

__all__ = [
    "ABORTED",
    "AllOf",
    "AnyOf",
    "Chain",
    "Cpu",
    "Event",
    "Interrupt",
    "LatencyRecorder",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "summarize",
]
