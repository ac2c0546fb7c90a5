"""Per-provider circuit breakers over transfer outcomes.

Classic CLOSED -> OPEN -> HALF_OPEN state machine, clocked on virtual
time:

* CLOSED — traffic flows; ``breaker_failure_threshold`` *consecutive*
  failures trip the breaker OPEN.
* OPEN — routing is refused (the buffer-pool extension skips parked
  pages on the provider and goes straight to disk) until
  ``breaker_open_us`` of quarantine has elapsed.
* HALF_OPEN — up to ``breaker_probe_quota`` trial operations are
  admitted; the first success closes the breaker, the first failure
  re-opens it (restarting the quarantine clock).

Every transition is timestamped in virtual microseconds, kept in the
layer's transition log and logged to the simulator as a ``breaker``
event, so the fault-recovery monitor can correlate breaker behaviour
with injected faults and a seeded replay reproduces the exact same
transition log.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .layer import ReliabilityLayer

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Health state machine for one memory provider."""

    def __init__(self, layer: ReliabilityLayer, provider: str):
        self.layer = layer
        self.sim = layer.sim
        self.provider = provider
        self.policy = layer.policy
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_us: float | None = None
        self._probes_admitted = 0
        self.successes = 0
        self.failures = 0
        self.rejections = 0

    def _transition(self, new: BreakerState) -> None:
        old, self.state = self.state, new
        if new is BreakerState.OPEN:
            self.opened_at_us = self.sim.now
        if new is BreakerState.HALF_OPEN:
            self._probes_admitted = 0
        self.layer.transitions.append((self.sim.now, self.provider, old.value, new.value))
        self.sim.log(
            "breaker", server=self.layer.server, provider=self.provider, old=old, new=new
        )

    def allow(self) -> bool:
        """May an operation be routed at this provider right now?

        In HALF_OPEN this consumes one probe slot, so a bounded number
        of trial operations reaches the provider per quarantine cycle.
        """
        if self.state is BreakerState.OPEN:
            if self.sim.now - float(self.opened_at_us or 0.0) >= self.policy.breaker_open_us:
                self._transition(BreakerState.HALF_OPEN)
            else:
                self.rejections += 1
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_admitted >= self.policy.breaker_probe_quota:
                self.rejections += 1
                return False
            self._probes_admitted += 1
        return True

    def routable(self) -> bool:
        """Non-consuming routing check used by upper layers (BPExt).

        False only while the quarantine clock is still running; once the
        provider is due for probing this returns True so trial traffic
        reaches the data path, where :meth:`allow` meters the probes.
        """
        if self.state is BreakerState.OPEN:
            return self.sim.now - float(self.opened_at_us or 0.0) >= self.policy.breaker_open_us
        return True

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.policy.breaker_failure_threshold
        ):
            self._transition(BreakerState.OPEN)

    def record_abandoned(self) -> None:
        """A trial admitted by :meth:`allow` ended with *no* outcome.

        Happens when the trial's caller is interrupted mid-operation —
        e.g. a hedged backup read won the race and cancelled it.  The
        probe slot must be returned: otherwise a HALF_OPEN breaker
        whose whole quota went to abandoned trials would wedge, with
        every later ``allow()`` (including the health prober's)
        rejected forever.
        """
        if self.state is BreakerState.HALF_OPEN and self._probes_admitted > 0:
            self._probes_admitted -= 1
