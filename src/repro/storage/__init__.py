"""Storage substrate: HDD spindles, RAID-0, SSD, RAM-backed devices."""

from .device import (
    GB,
    KB,
    MB,
    PAGE_SIZE,
    BlockDevice,
    DeviceUnavailable,
    IoOp,
    RamDrive,
)
from .hdd import HDD_PROFILE, HddSpindle, Raid0Array
from .ssd import SSD_PROFILE, SsdDevice

__all__ = [
    "GB",
    "KB",
    "MB",
    "PAGE_SIZE",
    "BlockDevice",
    "DeviceUnavailable",
    "HDD_PROFILE",
    "HddSpindle",
    "IoOp",
    "Raid0Array",
    "RamDrive",
    "SSD_PROFILE",
    "SsdDevice",
]
