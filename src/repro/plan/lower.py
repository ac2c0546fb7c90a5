"""Lower the logical IR onto the single-node physical operators.

One :class:`Lowering` walk turns a plan tree into the engine's
generator operators, fusing where a real optimizer would:

* Filter chains over a Scan fuse into the TableScan's predicate;
* a Project directly over a Join fuses into the join's ``combine``
  (the physical join emits projected tuples, never the wide row);
* a Project directly over a Scan fuses into the scan's ``project``.

Un-fusable Filters/Projects lower to the row-at-a-time
:class:`~repro.engine.operators.FilterRows` /
:class:`~repro.engine.operators.ProjectRows` operators.

Join strategy consults the §3.3 cost model when one is supplied
(:func:`repro.engine.optimizer.choose_join`): a Join whose right side
is a bare Scan of a table clustered on the join key may lower to an
IndexNestedLoopJoin when the estimated outer cardinality is below the
medium's crossover.  Without a cost model every join is a hash join —
which is also what distributed fragments use, so all lowerings stay
row-comparable.

The distributed planner (:mod:`repro.dist.planner`) subclasses
:class:`Lowering` to add Exchange handling; everything else — scans,
joins, aggregation phases, sorts — is shared, which is the point of the
unified IR: one set of lowering rules, exercised by both paths.
"""

from __future__ import annotations

import operator as _op
from functools import reduce
from typing import Any, Callable, Optional

from ..engine.catalog import Schema
from ..engine.operators import (
    ExternalSort,
    FilterRows,
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    Operator,
    ProjectRows,
    TableScan,
)
from ..engine.optimizer import CostModel, JoinChoice, choose_join
from .ir import (
    Agg,
    Aggregate,
    Exchange,
    Filter,
    Join,
    PlanError,
    PlanNode,
    PlanSchema,
    Project,
    Scan,
    TopN,
    output_schema,
)

__all__ = [
    "Lowering",
    "lower_single",
    "compile_predicate",
    "compile_projector",
    "compile_aggregate",
    "estimate_rows",
]

_OPS = {
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
    "==": _op.eq,
}

#: Assumed fraction of rows surviving one filter condition, for the
#: coarse cardinality estimate the join-choice cost model consumes.
FILTER_SELECTIVITY = 0.3


def compile_predicate(schema: PlanSchema, conditions) -> Optional[Callable]:
    """AND of ``(column, op, value)`` conditions over ``schema`` rows."""
    if not conditions:
        return None
    compiled = []
    for column, op, value in conditions:
        if op not in _OPS:
            raise PlanError(f"unknown comparison op {op!r}")
        compiled.append((schema.index_of(column), _OPS[op], value))
    if len(compiled) == 1:
        index, compare, value = compiled[0]
        return lambda row: compare(row[index], value)
    return lambda row: all(compare(row[i], value) for i, compare, value in compiled)


def _row_getter(slots: tuple) -> Callable[[tuple], tuple]:
    """C-level ``row -> tuple(row[i] for i in slots)`` over tuple rows.

    ``itemgetter`` returns a bare value for one index and takes no fewer,
    so the one- and zero-column getters are slices (of a tuple: a tuple).
    """
    if len(slots) > 1:
        return _op.itemgetter(*slots)
    return _op.itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0))


def compile_projector(schema: PlanSchema, columns) -> Callable[[tuple], tuple]:
    """Row function keeping ``columns`` (resolved against ``schema``)."""
    return _row_getter(tuple(schema.index_of(ref) for ref in columns))


def _join_projector(
    left: PlanSchema, right: PlanSchema, columns
) -> Callable[[tuple, tuple], tuple]:
    """Combine function for a join with a fused projection: each ref
    resolves against the concatenated schema (left-first, same as
    schema derivation) and one getter picks them off the joined row."""
    project = compile_projector(left.concat(right), columns)
    return lambda build_row, probe_row: project(build_row + probe_row)


def estimate_rows(node: PlanNode, tables: dict, schemas: dict[str, Schema]) -> float:
    """Coarse cardinality estimate (for join-choice only, never results)."""
    if isinstance(node, Scan):
        count = tables[node.table].stats.row_count
        return max(1.0, count * FILTER_SELECTIVITY ** len(node.conditions))
    if isinstance(node, Filter):
        return max(1.0, estimate_rows(node.child, tables, schemas) * FILTER_SELECTIVITY)
    if isinstance(node, (Project, Exchange)):
        return estimate_rows(node.child, tables, schemas)
    if isinstance(node, Join):
        # Equi-join on a key: bounded by the probe side's cardinality.
        return estimate_rows(node.right, tables, schemas)
    if isinstance(node, Aggregate):
        return max(1.0, estimate_rows(node.child, tables, schemas) * 0.1)
    if isinstance(node, TopN):
        return float(node.n)
    return 1.0


# ---------------------------------------------------------------------------
# Aggregate compilation (shared by single-phase and two-phase lowering)
# ---------------------------------------------------------------------------


def _summed(value: Callable) -> Callable[[list], Any]:
    """Left-to-right sum of ``value`` over a group.  ``reduce``, not the
    builtin ``sum``: that one is compensated for floats on Python >= 3.12,
    which would move results between interpreters."""
    return lambda group: reduce(_op.add, map(value, group), 0)


def _agg_columns(agg: Agg, phase: str, value: Optional[Callable], count: Callable) -> list:
    """Per-group folds producing one aggregate's output column(s).

    ``value`` extracts the aggregated value from an input row and
    ``count`` counts the input rows of a group; for the final phase the
    input rows are partial rows, so both read partial components.
    """
    if agg.fn == "count":
        return [count]
    if agg.fn == "min":
        return [lambda group: min(map(value, group))]
    if agg.fn == "max":
        return [lambda group: max(map(value, group))]
    total = _summed(value)
    if agg.fn == "sum":
        return [total]
    # avg: exact (sum, count) partials merge exactly; divide once, last.
    if phase == "partial":
        return [total, count]
    return [lambda group: total(group) / count(group)]


def compile_aggregate(node: Aggregate, child_schema: PlanSchema) -> dict:
    """Compile an Aggregate node into HashAggregate callables.

    Returns ``group_key``, ``fold`` (a group's row list -> its aggregate
    columns) and ``finalize`` appropriate for the node's phase:

    * ``single`` — fold raw rows into result columns;
    * ``partial`` — fold raw rows into *partial* columns (avg carries
      its sum and count);
    * ``final`` — child rows are partial rows: group on the leading
      group columns, merge the components into result columns.
    """
    columns: list = []
    if node.phase == "final":
        n_group = at = len(node.group_by)
        group_key = _op.itemgetter(slice(n_group))
        for agg in node.aggs:
            # Partial layout: the value, then (avg only) the row count.
            width = 2 if agg.fn == "avg" else 1
            count = _summed(_op.itemgetter(at + width - 1))
            columns += _agg_columns(agg, node.phase, _op.itemgetter(at), count)
            at += width
    else:
        group_key = compile_projector(child_schema, node.group_by)
        for agg in node.aggs:
            value = child_schema.extractor(agg.column) if agg.column is not None else None
            columns += _agg_columns(agg, node.phase, value, len)

    def fold(group):
        return tuple(column(group) for column in columns)

    return {"group_key": group_key, "fold": fold, "finalize": _op.add}


# ---------------------------------------------------------------------------
# The lowering walk
# ---------------------------------------------------------------------------


class Lowering:
    """IR → single-node physical operators, with fusion.

    ``tables`` maps table names to loaded :class:`~repro.engine.Table`s
    (one shard's dict in distributed fragments); ``schemas`` maps table
    names to base :class:`~repro.engine.Schema`s.  Subclasses override
    :meth:`lower_exchange` (and hook :meth:`lower_join`) to place
    physical exchange operators — see :mod:`repro.dist.planner`.
    """

    def __init__(
        self,
        tables: dict,
        schemas: dict[str, Schema],
        cost_model: Optional[CostModel] = None,
    ):
        self.tables = tables
        self.schemas = schemas
        self.cost_model = cost_model

    # -- public ------------------------------------------------------------

    def lower(self, node: PlanNode) -> Operator:
        if isinstance(node, TopN):
            return ExternalSort(self.lower(node.child), key=None, top_n=node.n)
        if isinstance(node, Project):
            return self.lower_project(node)
        if isinstance(node, Join):
            return self.lower_join(node)
        if isinstance(node, Aggregate):
            return self.lower_aggregate(node)
        if isinstance(node, (Scan, Filter)):
            return self.lower_scan_chain(node)
        if isinstance(node, Exchange):
            return self.lower_exchange(node)
        raise PlanError(f"cannot lower node {type(node).__name__}")

    def schema_of(self, node: PlanNode) -> PlanSchema:
        return output_schema(node, self.schemas)

    # -- per-node rules ----------------------------------------------------

    def lower_scan_chain(self, node: PlanNode, project=None) -> Operator:
        """Scan, or Filter* over a Scan: fuse conditions into the scan."""
        conditions: list = []
        at = node
        while isinstance(at, Filter):
            conditions.append(at.condition)
            at = at.child
        if isinstance(at, Scan):
            conditions.extend(at.conditions)
            schema = self.schema_of(at)
            table = self.tables[at.table]
            return TableScan(
                table,
                predicate=compile_predicate(schema, tuple(conditions)),
                project=project,
            )
        # Filters over a non-scan child: row-at-a-time filter operator.
        child = self.lower(at)
        schema = self.schema_of(at)
        filtered = FilterRows(child, compile_predicate(schema, tuple(conditions)))
        if project is not None:
            return ProjectRows(filtered, project, row_bytes=filtered.row_bytes)
        return filtered

    def lower_project(self, node: Project) -> Operator:
        child = node.child
        if isinstance(child, Join):
            return self.lower_join(child, project_columns=node.columns)
        child_schema = self.schema_of(child)
        projector = compile_projector(child_schema, node.columns)
        if isinstance(child, (Scan, Filter)):
            return self.lower_scan_chain(child, project=projector)
        lowered = self.lower(child)
        out_schema = self.schema_of(node)
        return ProjectRows(lowered, projector, row_bytes=out_schema.row_bytes)

    def lower_join(self, node: Join, project_columns=None) -> Operator:
        left_schema = self.schema_of(node.left)
        right_schema = self.schema_of(node.right)
        build_key = left_schema.extractor(node.left_key)
        probe_key = right_schema.extractor(node.right_key)
        if project_columns is not None:
            combine = _join_projector(left_schema, right_schema, project_columns)
        else:
            combine = _op.add
        inlj = self._inlj_choice(node, left_schema)
        if inlj is not None:
            outer = self.lower(node.left)
            return IndexNestedLoopJoin(
                outer=outer, inner_tree=inlj,
                outer_key=build_key, combine=combine,
            )
        build_op = self.lower(node.left)
        probe_op = self.lower(node.right)
        build_op, probe_op = self.decorate_join_inputs(
            node, build_op, probe_op, left_schema, right_schema
        )
        return HashJoin(
            build=build_op,
            probe=probe_op,
            build_key=build_key,
            probe_key=probe_key,
            combine=combine,
        )

    def decorate_join_inputs(
        self,
        node: Join,
        build_op: Operator,
        probe_op: Operator,
        left_schema: PlanSchema,
        right_schema: PlanSchema,
    ) -> tuple[Operator, Operator]:
        """Hook for subclasses (semi-join pushdown wraps the build side)."""
        return build_op, probe_op

    def _inlj_choice(self, node: Join, left_schema: PlanSchema):
        """Inner clustered B-tree iff the cost model prefers an INLJ."""
        if self.cost_model is None or not isinstance(node.right, Scan):
            return None
        if node.right.conditions:
            return None
        table = self.tables.get(node.right.table)
        if table is None or table.clustered is None:
            return None
        if table.schema.key != node.right_key.rsplit(".", 1)[-1]:
            return None
        outer_rows = max(1, int(estimate_rows(node.left, self.tables, self.schemas)))
        choice, _inlj_cost, _hash_cost = choose_join(self.cost_model, outer_rows, table)
        if choice is JoinChoice.INDEX_NESTED_LOOP:
            return table.clustered
        return None

    def lower_aggregate(self, node: Aggregate) -> Operator:
        child_schema = self.schema_of(node.child)
        compiled = compile_aggregate(node, child_schema)
        return HashAggregate(self.lower(node.child), **compiled)

    def lower_exchange(self, node: Exchange) -> Operator:
        raise PlanError(
            "single-node lowering found an Exchange node — lower the "
            "source plan, not a placed distributed plan"
        )


def lower_single(
    plan: PlanNode,
    tables: dict,
    schemas: dict[str, Schema],
    cost_model: Optional[CostModel] = None,
) -> Operator:
    """Lower a logical plan to the single-node physical operator tree."""
    return Lowering(tables, schemas, cost_model).lower(plan)
