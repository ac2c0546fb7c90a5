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
from .stats import Counter, LatencyRecorder, TimeSeries, summarize

__all__ = [
    "ABORTED",
    "AllOf",
    "AnyOf",
    "Chain",
    "Counter",
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
    "TimeSeries",
    "Timeout",
    "summarize",
]
