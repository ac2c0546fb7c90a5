"""Lower logical plans into page-, query- and hybrid-shipping plans.

The three strategies run on *identical virtual hardware* (same servers,
devices, NICs — a :class:`~repro.dist.partition.DistSpec`); only data
placement differs:

* **page** — today's baseline: the whole database lives on DB server 0,
  whose buffer-pool extension spans the remote-memory servers; queries
  run single-fragment and pull *pages* over RDMA on faults.
* **query** — partitioned execution: every server owns a shard in its
  local buffer pool, plans run as N fragments that shuffle *tuples*
  over the exchange fabric (the aggregate-DRAM scale-out of "The End
  of Slow Networks").
* **hybrid** — NAM-style compute/memory split: shards are partitioned
  *and* each shard's pages live in remote memory, so fragments fault
  pages from the memory servers and still exchange tuples.

Queries are :mod:`repro.plan` IR trees; one logical plan lowers three
ways.  The page path is :func:`repro.plan.lower_single`; this module
adds the distributed lowering in two steps:

1. :func:`place_exchanges` rewrites the logical tree, inserting
   :class:`~repro.plan.Exchange` nodes wherever tuples must cross the
   fabric.  A join keeps its build side in place when that side is
   already partitioned on the join key and shuffles the other side
   (the classic co-located join); when *neither* side is co-located it
   shuffles **both** sides on an ad-hoc hash spec (a repartitioning
   join).  An Aggregate over partitioned data splits into a
   ``partial`` per fragment and a ``final`` merge after a gather
   (two-phase aggregation); a TopN gathers beneath it.
2. :class:`FragmentLowering` lowers the placed tree once per fragment,
   mapping Exchange nodes to the credit-flow-controlled
   :class:`~repro.dist.exchange.ShuffleExchange` /
   :class:`~repro.dist.exchange.GatherExchange` operators and wrapping
   the build side with Bloom pushdown on ``semijoin`` joins.

:func:`execute_plan` is the one entry point: it picks the lowering from
how the setup's data was loaded, runs the fragments and merges their
metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from ..engine import ExecMetrics, Operator
from ..plan import (
    Aggregate,
    Exchange,
    Filter,
    Join,
    Lowering,
    PlanError,
    PlanNode,
    Project,
    Scan,
    TopN,
    count_nodes,
    lower_single,
    output_schema,
)
from ..sim.kernel import AllOf
from ..storage import MB
from ..workloads import TPCH_SCHEMAS, TpchScale
from .exchange import GatherExchange, ShuffleExchange
from .partition import (
    TPCH_PARTITIONING,
    DistSetup,
    DistSpec,
    PartitionSpec,
    build_dist,
    load_tpch_partitioned,
    load_tpch_single,
    prewarm_dist,
)
from .semijoin import BloomBuild, FilterSlot

__all__ = [
    "Strategy",
    "StrategyResult",
    "place_exchanges",
    "FragmentLowering",
    "compile_plan_fragments",
    "execute_plan",
    "build_strategy",
]


class Strategy(str, Enum):
    PAGE = "page"
    QUERY = "query"
    HYBRID = "hybrid"


@dataclass
class StrategyResult:
    """One strategy's execution of one query on one topology."""

    strategy: str
    query: str
    rows: list
    elapsed_us: float
    metrics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Exchange placement: logical tree -> logical tree + Exchange nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Location:
    """Where a placed subtree's rows live across the fragments.

    ``refs`` are the qualified column names whose values route rows
    under ``spec.owner`` (a join adds the other side's key: equal
    values, same owners).  ``rooted`` means every row has been funneled
    to fragment 0 — the shape a gather produces.
    """

    refs: frozenset = frozenset()
    spec: Optional[PartitionSpec] = None
    rooted: bool = False

    def co_located(self, ref: str) -> bool:
        return self.spec is not None and ref in self.refs


def _qualified(node: PlanNode, ref: str, schemas) -> str:
    return output_schema(node, schemas).field_of(ref).name


def place_exchanges(plan: PlanNode, partitioning: dict, schemas=None) -> PlanNode:
    """Insert Exchange nodes so ``plan`` runs as N co-operating fragments.

    Rules, bottom-up:

    * a Join whose build (left) side is partitioned on the join key
      shuffles the probe side to the build rows' owners; symmetrically
      for the probe side; when neither side is co-located, **both**
      sides shuffle on an ad-hoc hash spec (repartitioning join);
    * an Aggregate over partitioned rows becomes partial-per-fragment,
      gather, final-merge (two-phase aggregation);
    * a TopN over partitioned rows gathers beneath it;
    * if the root is still partitioned, a final gather is appended.

    The result is still a logical plan — ``explain`` renders it, and
    :func:`compile_plan_fragments` lowers it once per fragment.
    """
    schemas = schemas or TPCH_SCHEMAS

    def place(node: PlanNode) -> tuple[PlanNode, _Location]:
        if isinstance(node, Scan):
            spec = partitioning.get(node.table)
            if spec is None:
                raise PlanError(f"no partition spec for table {node.table!r}")
            return node, _Location(refs=frozenset({f"{node.table}.{spec.key}"}), spec=spec)
        if isinstance(node, Filter):
            child, at = place(node.child)
            return Filter(child, node.condition), at
        if isinstance(node, Project):
            child, at = place(node.child)
            placed = Project(child, node.columns)
            kept = frozenset(
                ref for ref in at.refs
                if any(f.name == ref for f in output_schema(placed, schemas))
            )
            if not kept:
                at = _Location(rooted=at.rooted)
            else:
                at = replace(at, refs=kept)
            return placed, at
        if isinstance(node, Join):
            return place_join(node)
        if isinstance(node, Aggregate):
            if node.phase != "single":
                raise PlanError("source plans must use single-phase Aggregates")
            child, at = place(node.child)
            if at.rooted:
                return Aggregate(child, node.group_by, node.aggs), at
            partial = Aggregate(child, node.group_by, node.aggs, phase="partial")
            gathered = Exchange(partial, "gather")
            final = Aggregate(gathered, node.group_by, node.aggs, phase="final")
            return final, _Location(rooted=True)
        if isinstance(node, TopN):
            child, at = place(node.child)
            if not at.rooted:
                child = Exchange(child, "gather")
            return TopN(child, node.n), _Location(rooted=True)
        if isinstance(node, Exchange):
            raise PlanError("source plans must not contain Exchange nodes")
        raise PlanError(f"cannot place node {type(node).__name__}")

    def place_join(node: Join) -> tuple[PlanNode, _Location]:
        left, l_at = place(node.left)
        right, r_at = place(node.right)
        qual_lk = _qualified(left, node.left_key, schemas)
        qual_rk = _qualified(right, node.right_key, schemas)
        joined = frozenset({qual_lk, qual_rk})
        if l_at.rooted and r_at.rooted:
            at = _Location(rooted=True)
        elif l_at.rooted or r_at.rooted:
            # One side already funneled to the root: gather the other
            # so the join happens (with real inputs) only at fragment 0.
            if not l_at.rooted:
                left = Exchange(left, "gather")
            else:
                right = Exchange(right, "gather")
            at = _Location(rooted=True)
        elif l_at.co_located(qual_lk):
            right = Exchange(right, "shuffle", key=qual_rk, spec=l_at.spec)
            at = _Location(refs=l_at.refs | joined, spec=l_at.spec)
        elif r_at.co_located(qual_rk):
            left = Exchange(left, "shuffle", key=qual_lk, spec=r_at.spec)
            at = _Location(refs=r_at.refs | joined, spec=r_at.spec)
        else:
            # Repartitioning join: hash both inputs on the join key.
            spec = PartitionSpec(table="*", key=qual_lk.rsplit(".", 1)[-1])
            left = Exchange(left, "shuffle", key=qual_lk, spec=spec)
            right = Exchange(right, "shuffle", key=qual_rk, spec=spec)
            at = _Location(refs=joined, spec=spec)
        placed = Join(left, right, node.left_key, node.right_key, semijoin=node.semijoin)
        return placed, at

    placed, at = place(plan)
    if not at.rooted:
        placed = Exchange(placed, "gather")
    return placed


# ---------------------------------------------------------------------------
# Fragment lowering: placed logical tree -> physical operators
# ---------------------------------------------------------------------------


class _ExchangeNames:
    """Deterministic per-plan exchange ids, declared eagerly.

    Every fragment lowers the same placed tree in the same order, so
    regenerating the sequence per fragment yields identical ids — the
    contract the exchange fabric (and telemetry binders) require.  The
    first id of each role is ``{base}.{role}``; later
    ones append a counter (``.shuffle2``, ...).
    """

    def __init__(self, runtime, base: str):
        self.runtime = runtime
        self.base = base
        self.counts: dict[str, int] = {}

    def assign(self, role: str) -> str:
        count = self.counts.get(role, 0) + 1
        self.counts[role] = count
        exchange_id = f"{self.base}.{role}" if count == 1 else f"{self.base}.{role}{count}"
        self.runtime.stat(exchange_id)  # eager: binders see ids pre-run
        return exchange_id


class FragmentLowering(Lowering):
    """Lower a placed tree for one fragment's shard of the tables.

    Everything except Exchange handling and semi-join pushdown is the
    shared single-node lowering — same fusion rules, same operators,
    which is what keeps rows identical across the three strategies.
    """

    def __init__(self, tables, schemas, runtime, names: _ExchangeNames):
        super().__init__(tables, schemas, cost_model=None)
        self.runtime = runtime
        self.names = names

    def lower_exchange(self, node: Exchange) -> Operator:
        child = self.lower(node.child)
        if node.kind == "gather":
            return GatherExchange(
                child, runtime=self.runtime, exchange_id=self.names.assign("gather")
            )
        key = self.schema_of(node.child).extractor(node.key)
        spec = node.spec or PartitionSpec(table="*", key=node.key)
        return ShuffleExchange(
            child, key=key, runtime=self.runtime,
            exchange_id=self.names.assign("shuffle"), owners=spec.owners,
        )

    def decorate_join_inputs(self, node, build_op, probe_op, left_schema, right_schema):
        if not node.semijoin or not isinstance(probe_op, ShuffleExchange):
            return build_op, probe_op
        slot = FilterSlot()
        build_op = BloomBuild(
            build_op, key=left_schema.extractor(node.left_key),
            runtime=self.runtime, exchange_id=self.names.assign("bloom"),
            slot=slot,
        )
        probe_op.filter_slot = slot
        return build_op, probe_op


def compile_plan_fragments(
    plan: PlanNode,
    setup: DistSetup,
    name: str = "query",
    tag: str = "run",
    schemas=None,
) -> list[Operator]:
    """Place exchanges, then lower the placed tree once per fragment.

    Exchange ids embed ``name`` and ``tag`` so repeated runs (warm-up
    vs measured) keep separate cumulative stats.
    """
    schemas = schemas or TPCH_SCHEMAS
    if setup.partitioning is None:
        raise ValueError("setup holds unpartitioned data; use repro.plan.lower_single")
    placed = place_exchanges(plan, setup.partitioning, schemas)
    plans: list[Operator] = []
    for tables in setup.tables:
        names = _ExchangeNames(setup.runtime, f"{name}.{tag}")
        plans.append(FragmentLowering(tables, schemas, setup.runtime, names).lower(placed))
    return plans


# ---------------------------------------------------------------------------
# Strategy topologies
# ---------------------------------------------------------------------------


def build_strategy(
    strategy: Strategy,
    spec: DistSpec,
    total_ext_pages: int,
    scale: TpchScale = TpchScale(),
    partitioning=None,
    seed: int = 0,
) -> DistSetup:
    """Build + load + warm one strategy's placement of one topology.

    All three strategies share ``spec``'s hardware; only ``ext_pages``
    (where remote memory attaches) and data placement differ.
    """
    strategy = Strategy(strategy)
    n = spec.db_servers
    if strategy is Strategy.PAGE:
        ext = (total_ext_pages,) + (0,) * (n - 1)
    elif strategy is Strategy.HYBRID:
        ext = (math.ceil(total_ext_pages / n),) * n
    else:
        ext = (0,) * n
    setup = build_dist(
        replace(spec, name=f"{spec.name}.{strategy.value}", ext_pages=ext)
    )
    if strategy is Strategy.PAGE:
        load_tpch_single(setup, scale, seed)
    else:
        load_tpch_partitioned(setup, partitioning or TPCH_PARTITIONING, scale, seed)
    prewarm_dist(setup)
    return setup


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def execute_plan(
    setup: DistSetup,
    plan: PlanNode,
    name: str = "query",
    tag: str = "run",
    memory_bytes: int = 8 * MB,
    memory_consumers: Optional[int] = None,
    schemas=None,
) -> StrategyResult:
    """Run one logical plan on one strategy setup; rows + metrics.

    Unpartitioned setups (page shipping) lower the plan single-node and
    run it on DB server 0; partitioned setups place exchanges, spawn
    one fragment per server and wait for all of them — the root
    fragment's rows are the query result.  Fragment metrics merge via
    :meth:`~repro.engine.ExecMetrics.merged`.
    """
    if memory_consumers is None:
        memory_consumers = max(1, count_nodes(plan, Join, Aggregate, TopN))
    sim = setup.sim
    start = sim.now
    if setup.partitioning is None:
        op = lower_single(plan, setup.tables[0], schemas or TPCH_SCHEMAS)
        result = setup.run(
            setup.databases[0].execute(
                op, requested_memory_bytes=memory_bytes,
                memory_consumers=memory_consumers,
            )
        )
        return StrategyResult(
            strategy=Strategy.PAGE.value, query=name,
            rows=result.rows, elapsed_us=sim.now - start,
            metrics=result.metrics.to_dict(),
        )

    plans = compile_plan_fragments(plan, setup, name, tag, schemas)
    fragments = len(plans)
    results: list = [None] * fragments

    def fragment(index: int, op: Operator):
        results[index] = yield from setup.databases[index].execute(
            op,
            requested_memory_bytes=memory_bytes,
            memory_consumers=memory_consumers,
            fragment_index=index,
            fragments=fragments,
        )

    processes = [sim.spawn(fragment(i, op)) for i, op in enumerate(plans)]

    def waiter():
        yield AllOf(sim, processes)

    setup.run(waiter())
    strategy = (
        Strategy.HYBRID.value
        if any(db.pool.extension is not None for db in setup.databases)
        else Strategy.QUERY.value
    )
    return StrategyResult(
        strategy=strategy, query=name,
        rows=results[0].rows, elapsed_us=sim.now - start,
        metrics=ExecMetrics.merged(r.metrics for r in results).to_dict(),
    )
