"""Hedged-read accounting and delay derivation.

A hedged read issues a backup request (to local disk, or to a replica
lease when one exists) once the primary has been outstanding longer
than a tail-derived delay, and takes whichever completes first.  During
a brown-out this bounds page-read latency at roughly

    hedge delay + local-disk read time

instead of however long the degraded link takes.  The mechanics live in
the buffer pool (it owns both media); this module owns the policy — the
delay derivation — and the accounting.
"""

from __future__ import annotations

from ..sim import Simulator
from ..sim.stats import LatencyRecorder
from .policy import ReliabilityPolicy

__all__ = ["HedgeStats", "hedge_delay_us"]


def hedge_delay_us(policy: ReliabilityPolicy, recorder: LatencyRecorder) -> float:
    """Delay before the backup read fires, derived from observed tails.

    Uses ``hedge_percentile`` of the recorded primary-read latency,
    clamped to ``[hedge_min_delay_us, hedge_max_delay_us]``.  With too
    few samples the conservative maximum is used so cold starts do not
    hedge every read.
    """
    if recorder.count < policy.hedge_min_samples:
        return policy.hedge_max_delay_us
    derived = recorder.percentile(policy.hedge_percentile)
    return min(policy.hedge_max_delay_us, max(policy.hedge_min_delay_us, derived))


class HedgeStats:
    """Counts hedge decisions; logs a ``hedge.backup_win`` event per win."""

    def __init__(self, sim: Simulator, server: str):
        self.sim = sim
        #: The database server whose reads are hedged (names its events).
        self.server = server
        #: Backup reads actually issued (delay elapsed before primary).
        self.issued = 0
        #: Primary still won after the backup was issued.
        self.primary_wins = 0
        #: Backup (disk) beat the browned-out primary.
        self.backup_wins = 0
        #: Primary failed outright and the backup supplied the page.
        self.rescues = 0

    def record_backup_win(self, rescued: bool = False) -> None:
        self.backup_wins += 1
        if rescued:
            self.rescues += 1
        self.sim.log("hedge.backup_win", server=self.server, rescued=rescued)

    def snapshot(self) -> dict[str, int]:
        return {
            "issued": self.issued,
            "primary_wins": self.primary_wins,
            "backup_wins": self.backup_wins,
            "rescues": self.rescues,
        }
