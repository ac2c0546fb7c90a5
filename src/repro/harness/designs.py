"""The design alternatives of Table 5.

=====================  ==========  ============  ============  =========
Design                 Data files  TempDB        BPExt         Protocol
=====================  ==========  ============  ============  =========
HDD                    HDD         HDD           (disabled)    —
HDD+SSD                HDD         SSD           SSD [OLTP]    —
SMB+RamDrive           HDD         remote mem    remote mem    SMB (TCP)
SMBDirect+RamDrive     HDD         remote mem    remote mem    SMB Direct
Custom                 HDD         remote mem    remote mem    NDSPI
Local Memory           HDD         SSD           (not needed)  —
=====================  ==========  ============  ============  =========

For analytic workloads the paper disables BPExt on the HDD/HDD+SSD
baselines because redirecting sequential scans to the SSD's random path
is a loss (Section 5.3); :attr:`~repro.tiers.TierSpec.extension_for_analytics`
captures that rule.  Table 5 keeps the log on the HDD array in every
design; semantic-cache structures go wherever remote memory is
available (else the SSD).
"""

from __future__ import annotations

import enum

from ..tiers import TierDef, TierSpec

__all__ = ["Design", "TIER_SPECS"]


class Design(enum.Enum):
    HDD = "HDD"
    HDD_SSD = "HDD+SSD"
    SMB_RAMDRIVE = "SMB+RamDrive"
    SMBDIRECT_RAMDRIVE = "SMBDirect+RamDrive"
    CUSTOM = "Custom"
    LOCAL_MEMORY = "Local Memory"
    #: Section-8 future work: DRAM pool over an SSD tier over remote
    #: memory.  Not a Table-5 row — it exists purely as a TierSpec.
    THREE_TIER = "ThreeTier"



#: Every design in the declarative tier grammar — the only form the
#: builder consumes.
TIER_SPECS: dict[Design, TierSpec] = {
    Design.HDD: TierSpec(name="HDD", tempdb="hdd", extension_for_analytics=False),
    Design.HDD_SSD: TierSpec(
        name="HDD+SSD", extension=(TierDef(medium="ssd"),), tempdb="ssd",
        extension_for_analytics=False,
    ),
    Design.SMB_RAMDRIVE: TierSpec(
        name="SMB+RamDrive", extension=(TierDef(medium="remote"),),
        tempdb="remote", semcache="remote", protocol="smb",
    ),
    Design.SMBDIRECT_RAMDRIVE: TierSpec(
        name="SMBDirect+RamDrive", extension=(TierDef(medium="remote"),),
        tempdb="remote", semcache="remote", protocol="smbdirect",
    ),
    # Only Custom spin-waits on remote completions (Section 4.1.3).
    Design.CUSTOM: TierSpec(
        name="Custom", extension=(TierDef(medium="remote"),),
        tempdb="remote", semcache="remote", protocol="ndspi", sync_remote_io=True,
    ),
    Design.LOCAL_MEMORY: TierSpec(
        name="Local Memory", tempdb="ssd", extension_for_analytics=False,
        pool_absorbs_extension=True,
    ),
    # The three-tier hierarchy is data, not a code path: a hot SSD tier
    # absorbs pool evictions, overflow demotes to a larger remote tier,
    # and remote hits promote back up.  TempDB rides the remote memory.
    Design.THREE_TIER: TierSpec(
        name="ThreeTier",
        extension=(
            TierDef(medium="ssd", share=1.0),
            TierDef(medium="remote", share=2.0, promote_on_hit=True),
        ),
        tempdb="remote", semcache="remote", protocol="ndspi", sync_remote_io=True,
    ),
}
