"""The reliability layer façade threaded through the remote-memory path.

One :class:`ReliabilityLayer` per database server bundles the four
policies (deadlines, seeded retries, per-provider circuit breakers,
hedged reads) plus staging-pool admission control, and is handed to

* every :class:`~repro.remotefile.RemoteFile` (each transfer is one
  guarded :meth:`ReliabilityLayer.call`, each write-behind is
  :meth:`ReliabilityLayer.watch`-ed; admission on the transfer path),
* the :class:`~repro.engine.bufferpool.BufferPool` and its extension
  (hedged reads, quarantine routing),
* the :class:`~repro.remotefile.RemoteMemoryFilesystem` (lease renewals
  as guarded calls, breaker-aware lease placement).

The layer is the only place that judges a provider: nothing outside it
calls the breakers' ``allow`` or ``record_*``.

Determinism contract: the layer reads only the simulator's virtual
clock and draws only from the seeded generator it was constructed
with, so enabling it never breaks bit-identical replay.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..broker import BrokerUnavailable
from ..net.fabric import NetworkDown
from ..remotefile.errors import RemoteMemoryUnavailable
from ..sim import ABORTED, Interrupt, Simulator
from ..sim.kernel import Event, ProcessGenerator
from ..sim.stats import LatencyRecorder
from .admission import AdmissionController
from .breaker import BreakerRegistry
from .hedge import HedgeStats, hedge_delay_us
from .policy import DeadlineExceeded, ReliabilityPolicy
from .retry import RetrySchedule

__all__ = ["FAILURES", "ReliabilityLayer"]

#: What a guarded attempt counts as a failure of its target: gone or
#: quarantined, unreachable, or too slow to wait for.
FAILURES = (RemoteMemoryUnavailable, BrokerUnavailable, NetworkDown, DeadlineExceeded)


def _capture(generator: ProcessGenerator) -> ProcessGenerator:
    """Run ``generator`` in a spawned process, capturing its outcome.

    An exception escaping a spawned process would crash the simulation
    loop, so the outcome is reified as ``("ok", value)`` / ``("err",
    exc)`` and re-raised on the waiting side.
    """
    try:
        value = yield from generator
    except Exception as exc:  # Interrupt too: reified here, re-raised by the waiting side
        return ("err", exc)
    return ("ok", value)


class ReliabilityLayer:
    """Deadlines + seeded retries + breakers + hedging + admission."""

    def __init__(
        self,
        sim: Simulator,
        rng: np.random.Generator,
        policy: Optional[ReliabilityPolicy] = None,
        server: str = "",
    ):
        """``server`` names the database server the layer guards; its
        breaker and hedge events carry it."""
        self.sim = sim
        self.rng = rng
        self.policy = policy if policy is not None else ReliabilityPolicy()
        self.retry = RetrySchedule(self.policy, rng)
        self.breakers = BreakerRegistry(sim, self.policy, server)
        self.admission = AdmissionController(sim, self.policy)
        self.hedge = HedgeStats(sim, server)
        #: Budget expiries observed, by op family ("read"/"write"/"rpc").
        self.deadline_hits: dict[str, int] = {"read": 0, "write": 0, "rpc": 0}
        #: Retried attempts, by op family.
        self.retries: dict[str, int] = {"read": 0, "rpc": 0}

    # -- deadlines ---------------------------------------------------------

    def with_deadline(
        self,
        generator: ProcessGenerator,
        deadline_us: float | None,
        family: str = "rpc",
        name: str = "",
    ) -> ProcessGenerator:
        """Run ``generator`` with a virtual-time budget.

        The call is spawned as its own process and raced against the
        budget; on expiry the process is interrupted (its holder-side
        resources unwind through their ``finally`` blocks) and
        :class:`DeadlineExceeded` is raised to the caller.
        """
        if deadline_us is None:
            return (yield from generator)
        process = self.sim.spawn(_capture(generator), name=name or "reliability.deadline")
        timer = self.sim.timeout(deadline_us)
        try:
            index, outcome = yield self.sim.any_of([process, timer])
        finally:
            # Covers both the budget expiring (index == 1) and *us*
            # being interrupted while racing it (a hedged backup won,
            # an outer deadline fired).  Either way the spawned call
            # must not be orphaned: left alone it would run to
            # completion holding its admission ticket, staging slots
            # and NIC engine grant.  No-op when it already finished.
            if process.is_alive:
                process.interrupt(cause=f"{name or family} deadline ({deadline_us:g}us)")
            # Tombstone the losing timer so an early completion does not
            # leave a dead entry ticking in the scheduler heap.  (AnyOf
            # already auto-cancels orphaned losing timeouts; this keeps
            # the invariant explicit and covers the interrupted-yield
            # path, where the race never observed either child.)
            timer.cancel()
        if index == 1:
            self.note_deadline(family)
            raise DeadlineExceeded(
                f"{name or family}: exceeded {deadline_us:g}us virtual-time budget"
            )
        status, payload = outcome
        if status == "err":
            raise payload
        return payload

    # -- the guarded call --------------------------------------------------

    def call(
        self,
        factory: Callable[[], ProcessGenerator],
        *,
        family: str,
        name: str,
        provider: str | None = None,
        retry: bool | Callable[[], bool] = False,
        deferred: bool = False,
    ) -> ProcessGenerator:
        """Run one remote operation under the layer's policy.

        ``factory()`` returns a fresh generator per attempt.  Each attempt
        is admitted by ``provider``'s breaker (else
        :class:`RemoteMemoryUnavailable`), runs under the ``family``
        deadline and leaves one verdict there: success, failure (one of
        :data:`FAILURES`) or abandoned (the caller was interrupted).  A
        failure is reissued after a seeded backoff while the budget lasts
        and ``retry`` (idempotent operations only: ``True``, or a
        predicate asked after each failure) allows it.  A ``deferred``
        attempt only posts a transfer that :meth:`watch` judges later.
        """
        sim = self.sim
        tracer = sim.tracer
        breakers = self.breakers
        deadline_us = getattr(self.policy, f"{family}_deadline_us")
        attempt = 0
        while True:
            if provider is not None and not breakers.allow(provider):
                raise RemoteMemoryUnavailable(
                    f"{name}: provider {provider} is quarantined (circuit open)"
                )
            try:
                # Entered, so an error is noted on the attempt's span.
                with tracer.span("reliability.attempt", call=name, attempt=attempt):
                    value = yield from self.with_deadline(
                        factory(), deadline_us, family=family, name=name
                    )
            except Interrupt:
                # Abandoned from outside (a hedged backup won, the caller
                # was killed): no verdict on the provider, but a HALF_OPEN
                # trial slot taken by allow() must be returned or the
                # breaker wedges.
                if provider is not None:
                    breakers.record_abandoned(provider)
                raise
            except FAILURES:
                if provider is not None:
                    breakers.record_failure(provider)
                attempt += 1
                if not (retry and self.retry.allows(attempt) and (retry is True or retry())):
                    raise
                self.retries[family] = self.retries.get(family, 0) + 1
                # Retries surface as attempt/backoff child spans.
                with tracer.span("reliability.backoff", cat="queue", attempt=attempt):
                    yield sim.timeout(self.retry.backoff_us(attempt))
            else:
                if provider is not None and not deferred:
                    breakers.record_success(provider)
                return value

    def watch(self, transfer: Event, provider: str, name: str) -> None:
        """Judge a posted transfer nobody waits on (a write-behind).

        Its completion feeds ``provider``'s breaker, and a watchdog
        interrupts it when the write deadline lapses: an unbounded write
        parked on a browned-out link would hold the provider's NIC engine
        (and its staging slots) for the whole degraded service time.
        """
        breakers = self.breakers

        def _judge(_event: Event) -> None:
            if transfer.value is ABORTED:
                breakers.record_failure(provider)
            else:
                breakers.record_success(provider)

        transfer.add_callback(_judge)
        budget = self.policy.write_deadline_us
        if budget is None:
            return
        sim = self.sim

        def _watchdog() -> ProcessGenerator:
            index, _ = yield sim.any_of([transfer, sim.timeout(budget)])
            if index == 1:
                self.note_deadline("write")
                transfer.interrupt(cause=f"{name}: write-behind deadline ({budget:g}us)")

        sim.spawn(_watchdog(), name=f"{name}.write_watchdog")

    # -- hedging -----------------------------------------------------------

    def hedge_delay_us(self, recorder: LatencyRecorder) -> float:
        return hedge_delay_us(self.policy, recorder)

    # -- accounting --------------------------------------------------------

    def note_deadline(self, family: str) -> None:
        self.deadline_hits[family] = self.deadline_hits.get(family, 0) + 1

    def quarantined_providers(self) -> list[str]:
        return self.breakers.quarantined()

    def snapshot(self) -> dict[str, Any]:
        """Deterministic, comparable view for replay assertions."""
        return {
            "deadline_hits": dict(self.deadline_hits),
            "retries": dict(self.retries),
            "backoff_draws": self.retry.draws,
            "breaker_transitions": self.breakers.snapshot(),
            "breaker_counts": {
                name: {
                    "successes": b.successes,
                    "failures": b.failures,
                    "rejections": b.rejections,
                    "state": b.state.value,
                }
                for name, b in sorted(self.breakers.breakers.items())
            },
            "hedge": self.hedge.snapshot(),
            "admission": {
                "admitted": self.admission.admitted,
                "queued": self.admission.queued,
            },
        }

    def probe(self, owner: Any, proxy: Any) -> ProcessGenerator:
        """Active health probe: one guarded :meth:`call` pinging a proxy.

        Returns whether the provider answered.  The breaker's quarantine
        clock is honoured (an elapsed OPEN moves to HALF_OPEN, a probe
        slot is claimed, a success there closes the breaker), so harnesses
        re-admit an OPEN provider without waiting for trial traffic.
        """
        provider = proxy.server.name
        try:
            yield from self.call(
                lambda: proxy.ping(owner), family="rpc", name=f"probe:{provider}",
                provider=provider,
            )
        except (NetworkDown, DeadlineExceeded, RemoteMemoryUnavailable):
            return False
        return True
