"""Reliability policy knobs and the exceptions the layer raises.

Everything here is measured in *virtual* microseconds and driven by a
seeded RNG stream — the layer never touches the wall clock, so a seeded
experiment replays bit-identically with the reliability layer enabled
(the same guarantee :mod:`repro.faults` gives for injection).

Two failure classes flow out of the data path:

* :class:`~repro.remotefile.RemoteMemoryUnavailable` — the lease or the
  provider is *gone*; parked data is lost and must re-fault from disk.
* :class:`DeadlineExceeded` — the operation blew its virtual-time
  budget on a degraded link; the data is presumed intact, the caller
  just should not keep waiting for it.

The distinction matters to the buffer-pool extension: the first
invalidates the parked slot, the second merely skips it this time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeadlineExceeded", "ReliabilityPolicy"]


class DeadlineExceeded(RuntimeError):
    """A remote operation exceeded its virtual-time budget.

    Transient by definition: the backing lease may still be valid and
    the data intact — the link was just too slow to wait for.
    """


@dataclass(frozen=True)
class ReliabilityPolicy:
    """Tuning for deadlines, retries, breakers, hedging and admission.

    The defaults target the paper's timing world: a healthy 8K remote
    read completes in ~10 µs, a local-disk page read in ~1-10 ms, and a
    browned-out link sits anywhere in between.
    """

    # -- deadlines (virtual µs; None disables the budget) ------------------
    #: Budget for one demand read attempt through the staging path.
    read_deadline_us: float | None = 5_000.0
    #: Budget for one synchronous write attempt.
    write_deadline_us: float | None = 10_000.0
    #: Budget for one broker RPC (lease renew/acquire metadata round).
    rpc_deadline_us: float | None = 5_000.0

    # -- seeded retries (idempotent ops only: reads, lease renewals) -------
    #: Extra attempts after the first failure (0 disables retry).
    retry_attempts: int = 2
    #: First backoff; subsequent backoffs multiply by ``retry_multiplier``.
    retry_base_us: float = 50.0
    retry_multiplier: float = 4.0
    retry_max_us: float = 2_000.0
    #: Jitter: each backoff is scaled by ``1 ± uniform(0, jitter)``.
    retry_jitter: float = 0.5

    # -- per-provider circuit breaker --------------------------------------
    #: Consecutive failures that trip CLOSED -> OPEN.
    breaker_failure_threshold: int = 5
    #: Quarantine time before an OPEN breaker admits probes (HALF_OPEN).
    breaker_open_us: float = 100_000.0
    #: Trial operations admitted while HALF_OPEN; one success closes the
    #: breaker, one failure re-opens it.
    breaker_probe_quota: int = 3

    # -- hedged reads (every foreground extension read is hedged) -----------
    #: Hedge delay = clamp(p(hedge_percentile) of extension read latency).
    hedge_percentile: float = 99.0
    hedge_min_delay_us: float = 100.0
    hedge_max_delay_us: float = 2_000.0
    #: Observed reads required before the percentile is trusted; until
    #: then the conservative ``hedge_max_delay_us`` is used.
    hedge_min_samples: int = 32

    # -- backpressure / admission control ----------------------------------
    #: Max in-flight staged transfers per provider; excess transfers
    #: queue at the provider's gate instead of starving the shared
    #: staging pool.  ``0`` disables admission control.
    per_provider_inflight: int = 24

    def __post_init__(self) -> None:
        if self.retry_attempts < 0:
            raise ValueError("retry_attempts must be >= 0")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_probe_quota < 1:
            raise ValueError("breaker_probe_quota must be >= 1")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ValueError("retry_jitter must be in [0, 1]")
        if self.hedge_min_delay_us > self.hedge_max_delay_us:
            raise ValueError("hedge_min_delay_us must be <= hedge_max_delay_us")
        for name in ("read_deadline_us", "write_deadline_us", "rpc_deadline_us"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")
