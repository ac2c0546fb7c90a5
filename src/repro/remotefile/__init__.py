"""Remote memory exposed through a lightweight file API (Table 2)."""

from .api import (
    AccessPolicy,
    RemoteFile,
    RemoteFileError,
    RemoteMemoryFilesystem,
    RemoteMemoryUnavailable,
)
from .staging import MEMCPY_BYTES_PER_US, StagingPool

__all__ = [
    "AccessPolicy",
    "MEMCPY_BYTES_PER_US",
    "RemoteFile",
    "RemoteFileError",
    "RemoteMemoryFilesystem",
    "RemoteMemoryUnavailable",
    "StagingPool",
]
