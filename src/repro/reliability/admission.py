"""Per-provider admission control on the staging pool.

The staging pool is shared by every remote transfer on the database
server.  Without admission control a single browned-out provider can
hold most staging slots hostage (its transfers complete slowly or not
at all) and *starve transfers to healthy providers* — the classic
head-of-line blocking brown-out.  The controller bounds in-flight
staged transfers per provider: transfer number N+1 to a slow provider
queues at that provider's gate *before* taking staging slots, so the
shared pool keeps serving everyone else.

Gates are interrupt-safe: a waiter killed mid-queue (NIC death, process
interrupt) cancels its grant request instead of leaking capacity.
"""

from __future__ import annotations

from ..sim import Simulator
from ..sim.kernel import Event, ProcessGenerator, Resource
from .policy import ReliabilityPolicy

__all__ = ["AdmissionController", "AdmissionTicket"]


class AdmissionTicket:
    """A granted slot at one provider's gate; release exactly once."""

    __slots__ = ("gate", "request", "_released")

    def __init__(self, gate: Resource, request: Event):
        self.gate = gate
        self.request = request
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        # ``cancel`` releases a granted request and forgets a queued one,
        # so tickets are safe to release from any teardown path.
        self.gate.cancel(self.request)


class AdmissionController:
    """One bounded gate per provider, created on first use."""

    def __init__(self, sim: Simulator, policy: ReliabilityPolicy):
        self.sim = sim
        self.policy = policy
        self._gates: dict[str, Resource] = {}
        self.admitted = 0
        self.queued = 0

    @property
    def enabled(self) -> bool:
        return self.policy.per_provider_inflight > 0

    def gate(self, provider: str) -> Resource:
        gate = self._gates.get(provider)
        if gate is None:
            gate = Resource(
                self.sim,
                capacity=self.policy.per_provider_inflight,
                name=f"admission.{provider}",
            )
            self._gates[provider] = gate
        return gate

    def enter(self, provider: str) -> ProcessGenerator:
        """Wait for (and claim) an in-flight slot at ``provider``.

        Returns an :class:`AdmissionTicket`; the caller must ``release``
        it when the transfer finishes, fails or is torn down.
        """
        if not self.enabled:
            return None
        gate = self.gate(provider)
        if gate.in_use >= gate.capacity:
            self.queued += 1
        request = gate.request()
        try:
            yield request
        except BaseException:  # cancel the queued request, then re-raise
            gate.cancel(request)
            raise
        self.admitted += 1
        return AdmissionTicket(gate, request)

    def inflight(self, provider: str) -> int:
        gate = self._gates.get(provider)
        return gate.in_use if gate is not None else 0

    def queue_length(self, provider: str) -> int:
        gate = self._gates.get(provider)
        return gate.queue_length if gate is not None else 0
