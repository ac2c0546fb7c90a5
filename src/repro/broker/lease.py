"""Lease objects handed out by the memory broker.

A lease grants one database server exclusive read/write access to one
memory region on a memory server for a bounded time.  The holder must
renew before expiry; if renewal fails (broker revoked it, or the memory
server withdrew the region under local pressure) the holder must stop
using the region.  Correctness never depends on the lease — remote
memory is best-effort (Section 4.1.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..net.rdma import MemoryRegion

__all__ = ["Lease", "LeaseState"]


class LeaseState(enum.Enum):
    ACTIVE = "active"
    EXPIRED = "expired"
    RELEASED = "released"
    REVOKED = "revoked"


@dataclass
class Lease:
    region: MemoryRegion
    holder: str
    expires_at_us: float
    duration_us: float
    #: Issued by the granting broker, in grant order.
    lease_id: int
    state: LeaseState = LeaseState.ACTIVE

    def is_valid(self, now_us: float) -> bool:
        return self.state is LeaseState.ACTIVE and now_us < self.expires_at_us

    @property
    def provider(self) -> str:
        return self.region.server.name

    def __repr__(self) -> str:
        return (
            f"<Lease {self.lease_id} {self.holder}->{self.provider} "
            f"{self.region.size}B {self.state.value}>"
        )
