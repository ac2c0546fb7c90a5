"""One level of the memory hierarchy below the DRAM buffer pool.

A :class:`Tier` names the level and its medium, carries the placement
knob (promotion policy) and holds that level's *state*: the page
store, the page-id -> slot map in eviction order, the free-slot list
and the hit/failure counters.  It has no behavior of its own —
:class:`~repro.engine.BufferPoolExtension` owns an ordered list of
tiers and implements every operation over them once; reliability
routing and telemetry read tier identity and counters from here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from ..sim import LatencyRecorder

__all__ = ["Tier"]


class Tier:
    """A :class:`~repro.engine.PageStore` with hierarchy metadata and the
    slot bookkeeping of the extension level built on it."""

    def __init__(
        self,
        name: str,
        store: Any,
        medium: str = "unknown",
        promote_on_hit: bool = False,
    ):
        self.name = name
        self.store = store
        self.medium = medium
        #: Pages hit at this tier are promoted into the tier above it.
        self.promote_on_hit = promote_on_hit
        #: False while the level's store is torn down (fleet resizes) or
        #: a benchmark switches the extension off: nothing is served from
        #: or parked in a disabled level.
        self.enabled = True
        #: Parked page id -> store slot, coldest first.
        self.slots: OrderedDict = OrderedDict()
        #: Unused store slots (filled when an extension binds the store).
        self.free: list[int] = []
        self.hits = 0
        self.misses = 0
        self.failures = 0
        #: Accesses skipped because the backing provider is quarantined.
        self.quarantine_skips = 0
        #: Deadline expiries — the parked image is presumed intact.
        self.transient_failures = 0
        #: Pages invalidated by provider faults (``on_fault`` sweeps).
        self.pages_lost_to_faults = 0
        #: Per-read latency of fetches served by this tier.
        self.read_latency = LatencyRecorder("bpext.read")

    @property
    def capacity_pages(self) -> Optional[int]:
        return self.store.capacity_pages

    @property
    def parked_pages(self) -> int:
        """Number of page images currently parked at this tier."""
        return len(self.slots)

    def __repr__(self) -> str:
        return (
            f"Tier({self.name!r}, medium={self.medium!r}, "
            f"capacity={self.capacity_pages})"
        )
