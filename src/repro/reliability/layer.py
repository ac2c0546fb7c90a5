"""The reliability layer threaded through the remote-memory path.

One :class:`ReliabilityLayer` per database server owns the four
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
calls the breakers' ``allow`` or ``record_*``.  It holds all per-provider
state: one :class:`~repro.reliability.breaker.CircuitBreaker` and one
admission gate per provider, created on first use.

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
from ..sim.kernel import Event, ProcessGenerator, Resource
from ..sim.stats import LatencyRecorder
from ..telemetry.tracer import NOOP_SPAN
from .breaker import BreakerState, CircuitBreaker
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
        self.policy = policy if policy is not None else ReliabilityPolicy()
        self.server = server
        self.retry = RetrySchedule(self.policy, rng)
        #: One circuit breaker per provider, created on first use.
        self.breakers: dict[str, CircuitBreaker] = {}
        #: Ordered breaker transition log: ``(at_us, provider, old, new)``.
        self.transitions: list[tuple[float, str, str, str]] = []
        #: One admission gate per provider, created on first use.
        self.gates: dict[str, Resource] = {}
        #: Transfers admitted, and those that found their gate full.
        self.admitted = 0
        self.queued = 0
        #: Backup reads actually issued (delay elapsed before the primary).
        self.hedges_issued = 0
        #: Primary still won after the backup was issued.
        self.hedge_primary_wins = 0
        #: Backup (disk) beat the browned-out primary.
        self.hedge_backup_wins = 0
        #: Primary failed outright and the backup supplied the page.
        self.hedge_rescues = 0
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
        breaker = None if provider is None else self.breaker(provider)
        deadline_us = getattr(self.policy, f"{family}_deadline_us")
        attempt = 0
        while True:
            if breaker is not None and not breaker.allow():
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
                if breaker is not None:
                    breaker.record_abandoned()
                raise
            except FAILURES:
                if breaker is not None:
                    breaker.record_failure()
                attempt += 1
                if not (retry and self.retry.allows(attempt) and (retry is True or retry())):
                    raise
                self.retries[family] = self.retries.get(family, 0) + 1
                # Retries surface as attempt/backoff child spans.
                with tracer.span("reliability.backoff", cat="queue", attempt=attempt):
                    yield sim.timeout(self.retry.backoff_us(attempt))
            else:
                if breaker is not None and not deferred:
                    breaker.record_success()
                return value

    def watch(self, transfer: Event, provider: str, name: str) -> None:
        """Judge a posted transfer nobody waits on (a write-behind).

        Its completion feeds ``provider``'s breaker, and a watchdog
        interrupts it when the write deadline lapses: an unbounded write
        parked on a browned-out link would hold the provider's NIC engine
        (and its staging slots) for the whole degraded service time.
        """
        breaker = self.breaker(provider)

        def _judge(_event: Event) -> None:
            if transfer.value is ABORTED:
                breaker.record_failure()
            else:
                breaker.record_success()

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

    # -- per-provider breakers and admission gates -------------------------

    def breaker(self, provider: str) -> CircuitBreaker:
        breaker = self.breakers.get(provider)
        if breaker is None:
            breaker = self.breakers[provider] = CircuitBreaker(self, provider)
        return breaker

    def routable(self, provider: str) -> bool:
        """Read-only routing check for upper layers (the extension)."""
        return self.breaker(provider).routable()

    def quarantined_providers(self) -> list[str]:
        """Providers currently refusing traffic (OPEN breakers)."""
        return sorted(
            name
            for name, breaker in self.breakers.items()
            if breaker.state is BreakerState.OPEN
        )

    def admit(self, provider: str) -> ProcessGenerator:
        """Wait for (and claim) an in-flight slot at ``provider``'s gate.

        The staging pool is shared by every remote transfer: without a
        per-provider bound, one browned-out provider holds most of its
        slots and starves transfers to healthy ones (head-of-line
        blocking).  So transfer N+1 to a slow provider queues here, before
        taking staging slots.  Returns the granted request, the ticket:
        give it back once, with ``ticket.resource.cancel(ticket)``, when
        the transfer ends or is torn down.  ``None`` when
        ``per_provider_inflight`` is 0.
        """
        capacity = self.policy.per_provider_inflight
        if capacity <= 0:
            return None
        gate = self.gates.get(provider)
        if gate is None:
            gate = self.gates[provider] = Resource(
                self.sim, capacity=capacity, name=f"admission.{provider}"
            )
        if gate.in_use >= gate.capacity:
            self.queued += 1
        ticket = gate.request()
        try:
            yield ticket
        except BaseException:  # cancel the queued request, then re-raise
            gate.cancel(ticket)
            raise
        self.admitted += 1
        return ticket

    # -- hedging -----------------------------------------------------------

    def hedge_delay_us(self, recorder: LatencyRecorder) -> float:
        """Delay before the backup read fires, derived from observed tails.

        Uses ``hedge_percentile`` of the recorded primary-read latency,
        clamped to ``[hedge_min_delay_us, hedge_max_delay_us]``.  With too
        few samples the conservative maximum is used so cold starts do not
        hedge every read.
        """
        policy = self.policy
        if recorder.count < policy.hedge_min_samples:
            return policy.hedge_max_delay_us
        derived = recorder.percentile(policy.hedge_percentile)
        return min(policy.hedge_max_delay_us, max(policy.hedge_min_delay_us, derived))

    def hedged_read(
        self,
        primary: ProcessGenerator,
        backup: Callable[[], ProcessGenerator | None],
        latency: LatencyRecorder,
        lost: type[Exception],
    ) -> ProcessGenerator:
        """Race ``primary`` against a ``backup`` read issued after the hedge delay.

        The primary is issued at once.  Once it has been outstanding for
        the delay derived from ``latency``, ``backup()`` gives the backup
        read (``None``: nothing to hedge with, wait the primary out) and
        whichever completes first supplies the value.  During a brown-out
        this bounds the read at roughly *hedge delay + one backup read*
        instead of however long the degraded link takes.  When the
        primary fails outright, the backup already in flight doubles as
        the fallback.  A read that raises ``lost`` supplies nothing.

        Returns ``(value | None, winner)`` with ``winner`` in
        ``{"primary", "backup", None}``.
        """
        sim = self.sim

        def value_of(outcome: tuple[str, Any]) -> Any:
            status, value = outcome
            if status == "err" and not isinstance(value, lost):
                raise value
            return value if status == "ok" else None

        first = sim.spawn(_capture(primary), name="bp.hedge.primary")
        delay = self.hedge_delay_us(latency)
        index, outcome = yield sim.any_of([first, sim.timeout(delay)])
        generator = None if index == 0 else backup()
        if generator is None:  # answered within the delay, or nothing to hedge with
            if index == 1:
                outcome = yield first
            value = value_of(outcome)
            return value, "primary" if value is not None else None
        self.hedges_issued += 1
        span = sim.tracer.span("bp.hedge", delay_us=delay) if sim.tracer.enabled else NOOP_SPAN
        second = sim.spawn(_capture(generator), name="bp.hedge.backup")
        try:
            index, outcome = yield sim.any_of([first, second])
            if index == 0:
                value = value_of(outcome)
                if value is not None:
                    self.hedge_primary_wins += 1
                    return value, "primary"
                # Primary failed after the hedge fired: the backup read,
                # already in flight, doubles as the fallback.
                value = value_of((yield second))
                if value is not None:
                    self._backup_won(rescued=True)
                    return value, "backup"
                return None, None
            value = value_of(outcome)
            if value is not None:
                self._backup_won(rescued=False)
                # Cancel the losing primary: a read parked on a browned-out
                # link would otherwise hold the provider's NIC engine for
                # its whole degraded service time, starving later traffic.
                # A losing backup (a disk read) runs to completion.
                first.interrupt(cause="hedged read: backup won")
                return value, "backup"
            value = value_of((yield first))  # backup lost the page mid-race: rare
            return value, "primary" if value is not None else None
        finally:
            span.close()

    def _backup_won(self, rescued: bool) -> None:
        self.hedge_backup_wins += 1
        if rescued:
            self.hedge_rescues += 1
        self.sim.log("hedge.backup_win", server=self.server, rescued=rescued)

    # -- accounting --------------------------------------------------------

    def note_deadline(self, family: str) -> None:
        self.deadline_hits[family] = self.deadline_hits.get(family, 0) + 1

    def snapshot(self) -> dict[str, Any]:
        """Deterministic, comparable view for replay assertions."""
        return {
            "deadline_hits": dict(self.deadline_hits),
            "retries": dict(self.retries),
            "backoff_draws": self.retry.draws,
            "breaker_transitions": list(self.transitions),
            "breaker_counts": {
                name: {
                    "successes": b.successes,
                    "failures": b.failures,
                    "rejections": b.rejections,
                    "state": b.state.value,
                }
                for name, b in sorted(self.breakers.items())
            },
            "hedge": {
                "issued": self.hedges_issued,
                "primary_wins": self.hedge_primary_wins,
                "backup_wins": self.hedge_backup_wins,
                "rescues": self.hedge_rescues,
            },
            "admission": {
                "admitted": self.admitted,
                "queued": self.queued,
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
