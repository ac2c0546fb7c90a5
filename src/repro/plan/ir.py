"""The logical plan IR: one query representation, three lowerings.

Queries are trees of declarative nodes — :class:`Scan`,
:class:`Filter`, :class:`Project`, :class:`Join`, :class:`Aggregate`,
:class:`TopN` — with **schemas derived bottom-up**: every node can
report the exact (qualified name, kind, width) layout of the tuples it
produces given a catalog of base-table schemas.  Nothing in a logical
plan names a physical operator, a server, or an exchange; those appear
only when the plan is *lowered*:

* :func:`repro.plan.lower_single` → the single-node physical operators
  (TableScan/HashJoin/HashAggregate/ExternalSort), optionally
  consulting the §3.3 cost model for INLJ-vs-hash join choice;
* :func:`repro.dist.planner.place_exchanges` → the same tree with
  :class:`Exchange` nodes inserted (shuffle / gather) wherever data
  must move between fragments, then per-fragment physical plans.

Column references are strings: either a bare column name (resolved
left-to-right, first match — the build side of a join wins ties) or a
qualified ``"table.column"``.  Qualification survives joins, so
``customer.custkey`` and ``orders.custkey`` stay distinct in a join's
output schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Optional

from ..engine.catalog import Schema

__all__ = [
    "PlanError",
    "FieldRef",
    "PlanSchema",
    "Agg",
    "PlanNode",
    "Scan",
    "Filter",
    "Project",
    "Join",
    "Aggregate",
    "TopN",
    "Exchange",
    "output_schema",
    "walk",
    "count_nodes",
]


class PlanError(ValueError):
    """A logical plan is malformed (unknown table/column, bad agg...)."""


@dataclass(frozen=True)
class FieldRef:
    """One column of a derived schema: qualified name + storage shape."""

    name: str  # qualified, e.g. "orders.custkey" or "sum_quantity"
    kind: str = "int"  # "int" | "float" | "str"
    width: int = 8

    @property
    def short(self) -> str:
        return self.name.rsplit(".", 1)[-1]


class PlanSchema:
    """Ordered field list a node produces; column order = tuple order."""

    def __init__(self, fields: tuple[FieldRef, ...]):
        self.fields = tuple(fields)

    @property
    def row_bytes(self) -> int:
        return sum(f.width for f in self.fields) + 8  # row header

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def index_of(self, ref: str) -> int:
        """Resolve a bare or qualified reference to a tuple position."""
        if "." in ref:
            for position, f in enumerate(self.fields):
                if f.name == ref:
                    return position
        else:
            for position, f in enumerate(self.fields):
                if f.short == ref:
                    return position
        raise PlanError(
            f"no column {ref!r} in schema ({', '.join(f.name for f in self.fields)})"
        )

    def field_of(self, ref: str) -> FieldRef:
        return self.fields[self.index_of(ref)]

    def extractor(self, ref: str):
        return itemgetter(self.index_of(ref))

    def concat(self, other: "PlanSchema") -> "PlanSchema":
        return PlanSchema(self.fields + other.fields)

    def describe(self) -> str:
        return ", ".join(f"{f.name} {f.kind}" for f in self.fields)


#: Aggregate functions the IR understands, with their decomposition
#: into partial components for two-phase distributed aggregation.
AGG_FNS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class Agg:
    """One aggregate: ``fn`` over ``column`` (None for count).

    Every function decomposes into partial/final phases: count and sum
    merge by addition, min/max by themselves, avg carries (sum, count)
    partials and divides at the final phase — which is what makes
    two-phase distributed aggregation return *identical* groups to the
    single-phase plan (exactly so for int-typed inputs; float sums are
    order-sensitive, see DESIGN.md §13).
    """

    fn: str
    column: Optional[str] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.fn not in AGG_FNS:
            raise PlanError(f"unknown aggregate fn {self.fn!r} (have {AGG_FNS})")
        if self.fn != "count" and self.column is None:
            raise PlanError(f"aggregate {self.fn!r} needs a column")

    @property
    def out_name(self) -> str:
        if self.name:
            return self.name
        return self.fn if self.column is None else f"{self.fn}_{self.column.rsplit('.', 1)[-1]}"


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanNode:
    """Base logical node; subclasses define children + derived schema."""

    def children(self) -> tuple["PlanNode", ...]:
        return ()


@dataclass(frozen=True)
class Scan(PlanNode):
    """Read one base table, with optional column-level conditions.

    ``conditions`` is a tuple of ``(column, op, value)`` triples ANDed
    together; ops are ``< <= > >= ==``.  Conditions are fused into the
    physical TableScan's predicate at lowering.
    """

    table: str
    conditions: tuple = ()


@dataclass(frozen=True)
class Filter(PlanNode):
    """One ``(column, op, value)`` condition over any child."""

    child: PlanNode
    condition: tuple

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Project(PlanNode):
    """Keep only ``columns`` (bare or qualified refs), in order."""

    child: PlanNode
    columns: tuple

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Join(PlanNode):
    """Equi-join ``left.left_key == right.right_key``.

    Output rows are left-tuple + right-tuple (the physical build side
    is always the left child).  ``semijoin`` requests Bloom-filter
    pushdown when the distributed lowering shuffles the right side.
    """

    left: PlanNode
    right: PlanNode
    left_key: str
    right_key: str
    semijoin: bool = False
    bloom_bits: int = 1 << 15

    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class Aggregate(PlanNode):
    """Group by ``group_by`` columns, computing ``aggs``.

    Output schema: the group columns (original qualified names and
    types) followed by one column per aggregate.  ``phase`` is
    ``single`` in source plans; the distributed lowering rewrites one
    Aggregate into a ``partial``/``final`` pair around a gather.
    """

    child: PlanNode
    group_by: tuple
    aggs: tuple = ()
    phase: str = "single"  # "single" | "partial" | "final"

    def __post_init__(self):
        if not self.group_by:
            raise PlanError("Aggregate needs at least one group-by column")
        if self.phase not in ("single", "partial", "final"):
            raise PlanError(f"unknown aggregate phase {self.phase!r}")

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class TopN(PlanNode):
    """Total-order top-N: sort by the *full tuple*, keep ``n`` rows.

    Full-tuple ordering is what makes results comparable across
    lowerings — include a primary key in the projection so it is total.
    """

    child: PlanNode
    n: int

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Exchange(PlanNode):
    """Data movement marker, inserted by the distributed lowering only.

    ``kind`` is ``shuffle`` (hash-route rows by ``key`` using
    ``spec.owner``) or ``gather`` (funnel every fragment's rows to the
    root).  Source plans never contain Exchange nodes; they appear in
    the placed tree that :func:`repro.dist.planner.place_exchanges`
    returns, so ``explain`` can show exactly where tuples cross the
    fabric.
    """

    child: PlanNode
    kind: str  # "shuffle" | "gather"
    key: Optional[str] = None
    spec: Any = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("shuffle", "gather"):
            raise PlanError(f"unknown exchange kind {self.kind!r}")
        if self.kind == "shuffle" and self.key is None:
            raise PlanError("shuffle exchange needs a routing key")

    def children(self):
        return (self.child,)


# ---------------------------------------------------------------------------
# Bottom-up schema derivation
# ---------------------------------------------------------------------------


def _scan_schema(table: str, base: Schema) -> PlanSchema:
    return PlanSchema(tuple(
        FieldRef(f"{table}.{column.name}", column.kind, column.width)
        for column in base.columns
    ))


def _agg_field(agg: Agg, child: PlanSchema) -> FieldRef:
    if agg.fn == "count":
        return FieldRef(agg.out_name, "int", 8)
    source = child.field_of(agg.column)
    if agg.fn == "avg":
        return FieldRef(agg.out_name, "float", 8)
    return FieldRef(agg.out_name, source.kind, source.width)


def output_schema(node: PlanNode, schemas: dict[str, Schema]) -> PlanSchema:
    """Derive the tuple layout ``node`` produces, bottom-up.

    ``schemas`` maps base-table names to engine :class:`Schema`s (e.g.
    :data:`repro.workloads.TPCH_SCHEMAS`).  Raises :class:`PlanError`
    on unknown tables/columns, so deriving the root schema doubles as
    plan validation.
    """
    if isinstance(node, Scan):
        if node.table not in schemas:
            raise PlanError(f"unknown table {node.table!r}")
        schema = _scan_schema(node.table, schemas[node.table])
        for column, _op, _value in node.conditions:
            schema.index_of(column)  # validate
        return schema
    if isinstance(node, Filter):
        schema = output_schema(node.child, schemas)
        schema.index_of(node.condition[0])
        return schema
    if isinstance(node, Project):
        child = output_schema(node.child, schemas)
        return PlanSchema(tuple(child.field_of(ref) for ref in node.columns))
    if isinstance(node, Join):
        left = output_schema(node.left, schemas)
        right = output_schema(node.right, schemas)
        left.index_of(node.left_key)
        right.index_of(node.right_key)
        return left.concat(right)
    if isinstance(node, Aggregate):
        child = output_schema(node.child, schemas)
        if node.phase == "final":
            # Child rows are partial rows: group cols + partial slots.
            n_group = len(node.group_by)
            group_fields = child.fields[:n_group]
            return PlanSchema(group_fields + tuple(
                _final_agg_field(agg, child) for agg in node.aggs
            ))
        group_fields = tuple(child.field_of(ref) for ref in node.group_by)
        if node.phase == "partial":
            partials: list[FieldRef] = []
            for agg in node.aggs:
                partials.extend(_partial_fields(agg, child))
            return PlanSchema(group_fields + tuple(partials))
        return PlanSchema(group_fields + tuple(
            _agg_field(agg, child) for agg in node.aggs
        ))
    if isinstance(node, (TopN, Exchange)):
        return output_schema(node.child, schemas)
    raise PlanError(f"unknown plan node {type(node).__name__}")


def _partial_fields(agg: Agg, child: PlanSchema) -> list[FieldRef]:
    """Schema slots one aggregate contributes to a partial row."""
    if agg.fn == "count":
        return [FieldRef(f"{agg.out_name}.partial", "int", 8)]
    source = child.field_of(agg.column)
    if agg.fn == "avg":
        return [
            FieldRef(f"{agg.out_name}.sum", source.kind, 8),
            FieldRef(f"{agg.out_name}.count", "int", 8),
        ]
    return [FieldRef(f"{agg.out_name}.partial", source.kind, source.width)]


def _final_agg_field(agg: Agg, partial: PlanSchema) -> FieldRef:
    if agg.fn == "count":
        return FieldRef(agg.out_name, "int", 8)
    if agg.fn == "avg":
        return FieldRef(agg.out_name, "float", 8)
    return FieldRef(agg.out_name, partial.field_of(f"{agg.out_name}.partial").kind, 8)


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------


def walk(node: PlanNode):
    """Pre-order traversal of a plan tree."""
    yield node
    for child in node.children():
        yield from walk(child)


def count_nodes(node: PlanNode, *kinds) -> int:
    """How many nodes of the given classes the tree contains."""
    return sum(1 for n in walk(node) if isinstance(n, kinds))

