"""Reliability policies for the remote-memory data path.

Deadlines, seeded retries, per-provider circuit breakers, hedged reads
and staging-pool admission control — owned by :class:`ReliabilityLayer`
and threaded through ``repro.remotefile``, ``repro.engine.bufferpool``
and the broker client paths.
"""

from .breaker import BreakerState, CircuitBreaker
from .layer import ReliabilityLayer
from .policy import DeadlineExceeded, ReliabilityPolicy
from .retry import RetrySchedule

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ReliabilityLayer",
    "ReliabilityPolicy",
    "RetrySchedule",
]
