"""Cost-based plan choice with a device-aware cost model.

Section 3.3 / Figure 15(b): whether an index-nested-loop join beats a
hash join depends on the *random access cost of the medium holding the
index*.  A classic optimizer costs seeks assuming disk; when the index
is pinned in remote memory the crossover selectivity moves by orders of
magnitude, so the cost model must be re-calibrated — this module is
that re-calibration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .catalog import Table
from .costs import (
    PER_ROW_HASH_BUILD_CPU_US,
    PER_ROW_HASH_PROBE_CPU_US,
    PER_ROW_SCAN_CPU_US,
)

__all__ = ["Medium", "CostModel", "JoinChoice", "choose_join"]


class Medium(enum.Enum):
    """Where an access lands, with its random/sequential page costs."""

    LOCAL_MEMORY = "local_memory"
    REMOTE_MEMORY = "remote_memory"
    SSD = "ssd"
    HDD = "hdd"


#: (random_page_us, sequential_page_us) per medium — the calibration
#: constants of Section 6.1 at page granularity.
_MEDIUM_COST = {
    Medium.LOCAL_MEMORY: (1.0, 0.5),
    Medium.REMOTE_MEMORY: (15.0, 2.0),
    Medium.SSD: (620.0, 21.0),
    Medium.HDD: (4500.0, 90.0),
}


@dataclass(frozen=True)
class CostModel:
    """Estimates operator costs given the media of the inputs."""

    index_medium: Medium
    table_medium: Medium = Medium.HDD

    def random_page_us(self, medium: Medium) -> float:
        return _MEDIUM_COST[medium][0]

    def sequential_page_us(self, medium: Medium) -> float:
        return _MEDIUM_COST[medium][1]

    def index_seek_cost_us(self, height: int) -> float:
        """One B-tree descent, assuming upper levels cached locally."""
        cached_levels = max(0, height - 1)
        return (
            cached_levels * self.random_page_us(Medium.LOCAL_MEMORY)
            + self.random_page_us(self.index_medium)
        )

    def inlj_cost_us(self, outer_rows: int, inner_height: int) -> float:
        """Index nested-loop join: one seek per outer row."""
        return outer_rows * (
            self.index_seek_cost_us(inner_height) + PER_ROW_SCAN_CPU_US
        )

    def hash_join_cost_us(
        self, build_rows: int, build_pages: int, probe_rows: int
    ) -> float:
        """Hash join: scan + build + probe (assumed in-memory)."""
        scan = build_pages * self.sequential_page_us(self.table_medium)
        build = build_rows * PER_ROW_HASH_BUILD_CPU_US
        probe = probe_rows * PER_ROW_HASH_PROBE_CPU_US
        return scan + build + probe


class JoinChoice(enum.Enum):
    INDEX_NESTED_LOOP = "inlj"
    HASH_JOIN = "hash"


def choose_join(
    model: CostModel,
    outer_rows: int,
    inner_table: Table,
) -> tuple[JoinChoice, float, float]:
    """Pick INLJ vs HJ for joining ``outer_rows`` against ``inner_table``.

    Returns (choice, inlj_cost, hash_cost).  The crossover point —
    the outer cardinality where the hash join starts to win — moves
    right when the index medium is faster (Figure 15b).
    """
    height = inner_table.clustered.height if inner_table.clustered else 3
    inlj_cost = model.inlj_cost_us(outer_rows, height)
    hash_cost = model.hash_join_cost_us(
        build_rows=inner_table.stats.row_count,
        build_pages=max(1, inner_table.stats.page_count),
        probe_rows=outer_rows,
    )
    if inlj_cost <= hash_cost:
        return JoinChoice.INDEX_NESTED_LOOP, inlj_cost, hash_cost
    return JoinChoice.HASH_JOIN, inlj_cost, hash_cost


def crossover_selectivity(model: CostModel, inner_table: Table, total_outer: int) -> float:
    """Fraction of outer rows at which HJ overtakes INLJ."""
    low, high = 0.0, 1.0
    for _ in range(60):
        mid = (low + high) / 2
        choice, _inlj, _hash = choose_join(model, max(1, int(mid * total_outer)), inner_table)
        if choice is JoinChoice.INDEX_NESTED_LOOP:
            low = mid
        else:
            high = mid
    return (low + high) / 2
