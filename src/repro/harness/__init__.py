"""Experiment harness: Table-5 designs, cluster builders, reporting."""

from .dbbench import (
    DbSetup,
    build_database,
    prewarm_extension,
    prewarm_pool,
    rebuild_extension,
)
from .designs import TIER_SPECS, Design
from .iobench import IO_DESIGNS, IoTarget, build_custom_multi, build_io_target
from .report import format_metrics, format_table

__all__ = [
    "DbSetup", "Design", "IO_DESIGNS",
    "IoTarget", "TIER_SPECS", "build_custom_multi",
    "build_database", "build_io_target", "format_metrics", "format_table",
    "prewarm_extension", "prewarm_pool", "rebuild_extension",
]
