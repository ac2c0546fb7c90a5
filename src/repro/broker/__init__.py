"""Cluster memory brokering: proxies, leases, broker, metadata store."""

from .broker import (
    BrokerError,
    BrokerUnavailable,
    InsufficientMemory,
    MemoryBroker,
    PlacementHook,
)
from .lease import Lease, LeaseState
from .metadata import MetadataStore
from .proxy import DEFAULT_MR_BYTES, MemoryProxy

__all__ = [
    "BrokerError",
    "BrokerUnavailable",
    "DEFAULT_MR_BYTES",
    "InsufficientMemory",
    "Lease",
    "LeaseState",
    "MemoryBroker",
    "MemoryProxy",
    "MetadataStore",
    "PlacementHook",
]
