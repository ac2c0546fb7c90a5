"""Reliability policies for the remote-memory data path.

Deadlines, seeded retries, per-provider circuit breakers, hedged reads
and staging-pool admission control — composed by
:class:`ReliabilityLayer` and threaded through ``repro.remotefile``,
``repro.engine.bufferpool`` and the broker client paths.
"""

from .admission import AdmissionController, AdmissionTicket
from .breaker import BreakerRegistry, BreakerState, CircuitBreaker
from .hedge import HedgeStats, hedge_delay_us
from .layer import ReliabilityLayer
from .policy import DeadlineExceeded, ReliabilityPolicy
from .retry import RetrySchedule

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "BreakerRegistry",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineExceeded",
    "HedgeStats",
    "ReliabilityLayer",
    "ReliabilityPolicy",
    "RetrySchedule",
    "hedge_delay_us",
]
