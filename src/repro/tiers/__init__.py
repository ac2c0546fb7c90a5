"""Declarative memory hierarchy: tiers and design specs.

The paper's six Table-5 design alternatives — and its Section-8
future-work three-tier hierarchy — are one idea: a page can live in
local DRAM, on the SSD, or in remote memory behind a protocol.  This
package makes that topology *configuration*:

* :class:`Tier` — one level: a page store plus its medium and
  placement metadata, slot map and counters.  An ordered list of them
  is what :class:`~repro.engine.BufferPoolExtension` runs placement,
  promotion/demotion and per-tier eviction over;
* :class:`TierSpec` / :class:`TierPlan` — the declarative grammar a
  design is written in, consumed by the node assembler
  (:mod:`repro.harness.node`).
"""

from .spec import ResolvedTier, TierDef, TierPlan, TierSpec
from .tier import Tier

__all__ = [
    "ResolvedTier",
    "Tier",
    "TierDef",
    "TierPlan",
    "TierSpec",
]
