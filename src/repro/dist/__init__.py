"""repro.dist: RDMA-native distributed query processing.

Query shipping vs page shipping on the paper's virtual hardware: the
partitioning grammar and cluster builder (:mod:`~repro.dist.partition`),
credit-flow-controlled RDMA exchange operators
(:mod:`~repro.dist.exchange`), Bloom-filter semi-join pushdown
(:mod:`~repro.dist.semijoin`) and the three-strategy planner
(:mod:`~repro.dist.planner`).
"""

from .exchange import (
    EOS_BYTES,
    ExchangeError,
    ExchangeRuntime,
    ExchangeStats,
    GatherExchange,
    ShuffleExchange,
)
from .partition import (
    TPCH_PARTITIONING,
    DistSetup,
    DistSpec,
    PartitionSpec,
    build_dist,
    load_tpch_partitioned,
    load_tpch_single,
    partition_rows,
    prewarm_dist,
    stable_hash,
    stable_hashes,
)
from .planner import (
    FragmentLowering,
    Strategy,
    StrategyResult,
    build_strategy,
    compile_plan_fragments,
    execute_plan,
    place_exchanges,
)
from .semijoin import BloomBuild, BloomFilter, FilterSlot

__all__ = [
    "BloomBuild",
    "BloomFilter",
    "DistSetup",
    "DistSpec",
    "EOS_BYTES",
    "ExchangeError",
    "ExchangeRuntime",
    "ExchangeStats",
    "FilterSlot",
    "FragmentLowering",
    "GatherExchange",
    "PartitionSpec",
    "ShuffleExchange",
    "Strategy",
    "StrategyResult",
    "TPCH_PARTITIONING",
    "build_dist",
    "build_strategy",
    "compile_plan_fragments",
    "execute_plan",
    "place_exchanges",
    "load_tpch_partitioned",
    "load_tpch_single",
    "partition_rows",
    "prewarm_dist",
    "stable_hash",
    "stable_hashes",
]
