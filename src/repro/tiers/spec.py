"""Declarative tier-stack grammar: a design is data, not a code path.

A :class:`TierSpec` names where every engine-internal page store lives:

* ``extension`` — the buffer-pool extension hierarchy below the DRAM
  pool, ordered fast to slow.  Zero tiers disables BPExt, one tier is
  every Table-5 design, two or more gives the paper's Section-8
  future-work hierarchy (e.g. DRAM -> SSD -> remote).
* ``tempdb`` / ``wal`` / ``semcache`` — the medium for spill runs, the
  transaction log and semantic-cache structures.
* ``protocol`` — transport for every remote-medium store ("smb",
  "smbdirect" or "ndspi"), plus ``sync_remote_io`` for the Custom
  design's spin-wait.

``resolve()`` turns the spec plus the run's page budgets into a
:class:`TierPlan`: concrete per-tier capacities with the analytic
BPExt-disable rule (paper Section 5.3) applied in exactly one place.
The harness builder walks the plan; it never branches on design names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


__all__ = ["TierDef", "TierSpec", "ResolvedTier", "TierPlan"]

#: Media a tier may live on.
MEDIA = ("hdd", "ssd", "remote")
#: Remote transports (Table 5 / Section 4).
PROTOCOLS = ("smb", "smbdirect", "ndspi")


@dataclass(frozen=True)
class TierDef:
    """One extension tier below the DRAM buffer pool."""

    medium: str
    #: Display name; defaults to ``bpext`` (single tier) or
    #: ``bpext.<medium>`` (multi-tier stacks).
    name: str = ""
    #: Relative share of the extension page budget.
    share: float = 1.0
    #: Promote pages hit here into the tier above (multi-tier stacks).
    promote_on_hit: bool = False

    def __post_init__(self):
        if self.medium not in MEDIA:
            raise ValueError(f"unknown tier medium {self.medium!r} (one of {MEDIA})")
        if self.share <= 0:
            raise ValueError(f"tier share must be positive, got {self.share}")


@dataclass(frozen=True)
class TierSpec:
    """Full memory-hierarchy topology for one design alternative."""

    name: str
    extension: tuple[TierDef, ...] = ()
    tempdb: str = "hdd"
    wal: str = "hdd"
    semcache: str = "ssd"
    protocol: Optional[str] = None
    #: Custom-design spin-wait on remote completions (Section 4.1.3).
    sync_remote_io: bool = False
    #: Paper Section 5.3: HDD/HDD+SSD disable BPExt for sequential
    #: (analytic) workloads; remote-memory designs keep it.
    extension_for_analytics: bool = True
    #: Local Memory: the extension budget joins the DRAM pool instead.
    pool_absorbs_extension: bool = False

    def __post_init__(self):
        for medium in (self.tempdb, self.wal, self.semcache):
            if medium not in MEDIA:
                raise ValueError(f"unknown medium {medium!r} in spec {self.name!r}")
        if self.protocol is not None and self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r} in spec {self.name!r}")
        remote_media = [t.medium for t in self.extension if t.medium == "remote"]
        if self.tempdb == "remote" or self.semcache == "remote":
            remote_media.append("remote")
        if remote_media and self.protocol is None:
            raise ValueError(f"spec {self.name!r} places stores remotely but names no protocol")

    def resolve(
        self, *, analytic: bool, bpext_pages: int, tempdb_pages: int
    ) -> "TierPlan":
        """Apply budgets and workload rules; returns the concrete plan.

        This is the single home of the analytic BPExt-disable rule:
        callers never re-derive it.
        """
        tiers: list[ResolvedTier] = []
        enabled = bool(self.extension) and bpext_pages > 0
        if analytic and not self.extension_for_analytics:
            enabled = False
        if enabled:
            total_share = sum(tier.share for tier in self.extension)
            remaining = bpext_pages
            for index, tier in enumerate(self.extension):
                last = index == len(self.extension) - 1
                pages = remaining if last else int(bpext_pages * tier.share / total_share)
                remaining -= pages
                name = tier.name or (
                    "bpext" if len(self.extension) == 1 else f"bpext.{tier.medium}"
                )
                tiers.append(
                    ResolvedTier(
                        name=name,
                        medium=tier.medium,
                        capacity_pages=pages,
                        promote_on_hit=tier.promote_on_hit,
                    )
                )
        return TierPlan(
            spec=self,
            extension=tuple(tiers),
            tempdb=ResolvedTier(
                name="tempdb",
                medium=self.tempdb,
                capacity_pages=tempdb_pages,
            ),
            wal=ResolvedTier(
                name="wal",
                medium=self.wal,
                capacity_pages=0,
            ),
        )


@dataclass(frozen=True)
class ResolvedTier:
    """A tier with its capacity fixed for one run."""

    name: str
    medium: str
    capacity_pages: int
    promote_on_hit: bool = False


@dataclass(frozen=True)
class TierPlan:
    """Resolved placement: what the harness builder actually constructs."""

    spec: TierSpec
    extension: tuple[ResolvedTier, ...] = ()
    tempdb: ResolvedTier = field(default=None)  # type: ignore[assignment]
    wal: ResolvedTier = field(default=None)  # type: ignore[assignment]

    @property
    def protocol(self) -> Optional[str]:
        return self.spec.protocol

    @property
    def needs_remote(self) -> bool:
        """Whether any placed store lives behind the remote protocol."""
        return self.protocol is not None

    def remote_extension_tiers(self) -> tuple[ResolvedTier, ...]:
        return tuple(tier for tier in self.extension if tier.medium == "remote")
