"""Physical operators: scans, joins, sorts, aggregation.

Operators are generator-returning objects driven by the DES: they charge
CPU per page/row and perform page I/O through the buffer pool, and they
spill to TempDB when their share of the memory grant is too small —
which is exactly the mechanism the paper's Hash+Sort benchmark and the
TPC-H Q10/Q18 admission-control artifact exercise.
"""

from __future__ import annotations

import abc
import heapq
import math
import operator as _op
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Any, Callable, Optional

from ..sim.kernel import ProcessGenerator
from .btree import BTree
from .catalog import Table
from .costs import (
    PER_PAGE_CPU_US,
    PER_ROW_AGG_CPU_US,
    PER_ROW_HASH_BUILD_CPU_US,
    PER_ROW_HASH_PROBE_CPU_US,
    PER_ROW_OUTPUT_CPU_US,
    PER_ROW_SCAN_CPU_US,
    SORT_COMPARE_CPU_US,
)
from .errors import PlanError

__all__ = [
    "ExecContext",
    "ExecMetrics",
    "Operator",
    "TableScan",
    "IndexRangeScan",
    "HashJoin",
    "IndexNestedLoopJoin",
    "ExternalSort",
    "HashAggregate",
    "FilterRows",
    "ProjectRows",
]


@dataclass
class ExecMetrics:
    rows_out: int = 0
    spilled_runs: int = 0
    spilled_bytes: int = 0
    tempdb_reads: int = 0
    tempdb_writes: int = 0
    # Exchange-awareness (repro.dist): data this fragment moved between
    # servers, and time it spent stalled waiting for receiver credits.
    exchange_batches: int = 0
    exchange_rows: int = 0
    exchange_bytes: int = 0
    credit_stalls_us: float = 0.0
    bloom_filtered_rows: int = 0

    #: Fields surfaced in benchmark summaries (``to_dict``), in order.
    SUMMARY_FIELDS = (
        "rows_out", "spilled_runs", "spilled_bytes",
        "exchange_batches", "exchange_rows", "exchange_bytes",
        "credit_stalls_us", "bloom_filtered_rows",
    )

    def merge(self, other: "ExecMetrics") -> "ExecMetrics":
        """Fold another fragment's (or query's) counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @classmethod
    def merged(cls, parts) -> "ExecMetrics":
        """Sum of many ExecMetrics — per-fragment or per-query totals."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def to_dict(self) -> dict:
        """Summary dict with stall time rounded for stable goldens."""
        out = {name: getattr(self, name) for name in self.SUMMARY_FIELDS}
        out["credit_stalls_us"] = round(out["credit_stalls_us"], 3)
        return out


@dataclass
class ExecContext:
    """Everything an operator needs at run time."""

    db: Any  # Database (engine.database), kept loose to avoid cycles
    grant: Any  # Grant
    #: How many memory-consuming operators share the grant.
    memory_consumers: int = 1
    metrics: ExecMetrics = field(default_factory=ExecMetrics)
    #: Which fragment of a distributed plan this is (0-based) and how
    #: many fragments the plan has.  Single-node execution is fragment
    #: 0 of 1; exchange operators use these to route batches.
    fragment_index: int = 0
    fragments: int = 1

    @property
    def cpu(self):
        return self.db.server.cpu

    @property
    def operator_budget_bytes(self) -> int:
        return max(1, self.grant.granted_bytes // max(1, self.memory_consumers))

    def record_exchange(self, rows: int, nbytes: int, batches: int = 1) -> None:
        self.metrics.exchange_batches += batches
        self.metrics.exchange_rows += rows
        self.metrics.exchange_bytes += nbytes


def _traced_run(run):
    """Wrap an operator's ``run`` so each execution is one span.

    The span carries the operator class name and the output cardinality;
    children opened during execution (page faults, device service, CPU
    slices — and nested operators' own wrapped ``run``) become causal
    descendants, which is what the critical-path drill-down walks.
    """

    def spanned(self, ctx: ExecContext) -> ProcessGenerator:
        with ctx.db.sim.tracer.span(type(self).__name__, cat="operator") as span:
            rows = yield from run(self, ctx)
            if hasattr(rows, "__len__"):
                span.set(rows_out=len(rows))
        return rows

    def wrapper(self, ctx: ExecContext) -> ProcessGenerator:
        # Plain function, not a generator: under the no-op tracer the
        # caller drives the operator's own generator directly, without
        # an extra delegating frame per execution.
        if not ctx.db.sim.tracer.enabled:
            return run(self, ctx)
        return spanned(self, ctx)

    wrapper._traced = True
    wrapper.__wrapped__ = run
    return wrapper


class Operator(abc.ABC):
    """Base: produces a materialized row list when run."""

    #: Estimated output row width (bytes), for spill accounting.
    row_bytes: int = 64

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "_traced", False):
            cls.run = _traced_run(run)

    @abc.abstractmethod
    def run(self, ctx: ExecContext) -> ProcessGenerator: ...


class TableScan(Operator):
    """Full scan of a table's clustered index leaf chain."""

    def __init__(
        self,
        table: Table,
        predicate: Optional[Callable[[tuple], bool]] = None,
        project: Optional[Callable[[tuple], tuple]] = None,
        extra_cpu_per_row_us: float = 0.0,
    ):
        if table.clustered is None:
            raise PlanError(f"table {table.name} has no clustered index")
        self.table = table
        self.predicate = predicate
        self.project = project
        #: Additional per-row CPU for expression-dense queries (e.g.
        #: TPC-H Q1 computes eight aggregates per row).
        self.extra_cpu_per_row_us = extra_cpu_per_row_us
        self.row_bytes = table.schema.row_bytes

    #: Read-ahead window for sequential scans (pages).  Deep enough
    #: to cover a whole 2 MB allocation chunk so the RAID array's
    #: spindles all stream in parallel.
    READAHEAD_PAGES = 128

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        tree: BTree = self.table.clustered
        pool = tree.pool
        file_id = tree.store.file_id
        predicate, project = self.predicate, self.project
        per_row_us = PER_ROW_SCAN_CPU_US + self.extra_cpu_per_row_us
        leaf = yield from tree.seek(_NEG_INF)
        out: list[tuple] = []
        while leaf is not None:
            # Bulk-built leaves are physically sequential: issue
            # read-ahead so the scan streams at device bandwidth.  The
            # window stops at the last page the tree ever allocated.
            ahead = leaf.page_no + 1
            pool.prefetch(
                file_id, range(ahead, min(ahead + self.READAHEAD_PAGES, tree.page_count))
            )
            yield from ctx.cpu.compute(PER_PAGE_CPU_US + len(leaf.rows) * per_row_us)
            rows = leaf.rows
            if predicate is not None:
                rows = filter(predicate, rows)
            if project is not None:
                rows = map(project, rows)
            out.extend(rows)
            next_no = leaf.meta.get("next")
            if next_no is None:
                break
            leaf = yield from pool.get_page(file_id, next_no)
        ctx.metrics.rows_out += len(out)
        return out


class _NegInf:
    """Sorts below every key."""

    def __lt__(self, other):  # pragma: no cover - trivial
        return True

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return False


_NEG_INF = _NegInf()


class IndexRangeScan(Operator):
    """``low <= key < high`` over a B-tree (clustered or secondary)."""

    def __init__(self, tree: BTree, low: Any, high: Any, row_bytes: int = 64):
        self.tree = tree
        self.low = low
        self.high = high
        self.row_bytes = row_bytes

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.tree.range_scan(self.low, self.high)
        yield from ctx.cpu.compute(len(rows) * PER_ROW_SCAN_CPU_US)
        ctx.metrics.rows_out += len(rows)
        return rows


class HashJoin(Operator):
    """In-memory hash join with grace-hash spilling to TempDB.

    Build side is hashed; if it exceeds the operator's grant share, both
    sides are partitioned to TempDB and joined partition-wise — phase 1
    writes, phase 2 reads, reproducing the I/O phases of Figure 14(b).
    """

    def __init__(
        self,
        build: Operator,
        probe: Operator,
        build_key: Callable[[tuple], Any],
        probe_key: Callable[[tuple], Any],
        combine: Callable[[tuple, tuple], tuple] = _op.add,
    ):
        self.build = build
        self.probe = probe
        self.build_key = build_key
        self.probe_key = probe_key
        self.combine = combine
        self.row_bytes = build.row_bytes + probe.row_bytes

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        build_rows = yield from self.build.run(ctx)
        probe_rows = yield from self.probe.run(ctx)
        budget = ctx.operator_budget_bytes
        need = len(build_rows) * self.build.row_bytes
        if need <= budget:
            out = yield from self._join_in_memory(ctx, build_rows, probe_rows)
        else:
            out = yield from self._grace_join(ctx, build_rows, probe_rows, budget)
        ctx.metrics.rows_out += len(out)
        return out

    def _join_in_memory(self, ctx, build_rows, probe_rows) -> ProcessGenerator:
        yield from ctx.cpu.compute(len(build_rows) * PER_ROW_HASH_BUILD_CPU_US)
        table = _group_rows(self.build_key, build_rows)
        yield from ctx.cpu.compute(len(probe_rows) * PER_ROW_HASH_PROBE_CPU_US)
        combine = self.combine
        matches = map(table.get, map(self.probe_key, probe_rows))
        out = [
            combine(build_row, probe_row)
            for probe_row, matched in zip(probe_rows, matches) if matched
            for build_row in matched
        ]
        yield from ctx.cpu.compute(len(out) * PER_ROW_OUTPUT_CPU_US)
        return out

    def _grace_join(self, ctx, build_rows, probe_rows, budget) -> ProcessGenerator:
        tempdb = ctx.db.tempdb
        fanout = max(2, math.ceil(len(build_rows) * self.build.row_bytes / budget))
        build_parts: list[list[tuple]] = [[] for _ in range(fanout)]
        probe_parts: list[list[tuple]] = [[] for _ in range(fanout)]
        yield from ctx.cpu.compute(len(build_rows) * PER_ROW_HASH_BUILD_CPU_US)
        for key, row in zip(map(self.build_key, build_rows), build_rows):
            build_parts[hash(key) % fanout].append(row)
        yield from ctx.cpu.compute(len(probe_rows) * PER_ROW_HASH_PROBE_CPU_US)
        for key, row in zip(map(self.probe_key, probe_rows), probe_rows):
            probe_parts[hash(key) % fanout].append(row)
        build_rows.clear()
        probe_rows.clear()
        # Phase 1: spill both sides.
        build_runs = []
        probe_runs = []
        build_rpp = max(1, 8192 // self.build.row_bytes)
        probe_rpp = max(1, 8192 // self.probe.row_bytes)
        for part in build_parts:
            run = yield from tempdb.write_run(part, build_rpp)
            build_runs.append(run)
            ctx.metrics.tempdb_writes += run.page_count
        for part in probe_parts:
            run = yield from tempdb.write_run(part, probe_rpp)
            probe_runs.append(run)
            ctx.metrics.tempdb_writes += run.page_count
        ctx.metrics.spilled_runs += fanout * 2
        ctx.metrics.spilled_bytes += sum(r.page_count for r in build_runs + probe_runs) * 8192
        # Phase 2: per-partition in-memory joins.
        out: list[tuple] = []
        for build_run, probe_run in zip(build_runs, probe_runs):
            part_build = yield from tempdb.read_run(build_run)
            part_probe = yield from tempdb.read_run(probe_run)
            ctx.metrics.tempdb_reads += build_run.page_count + probe_run.page_count
            joined = yield from self._join_in_memory(ctx, part_build, part_probe)
            out.extend(joined)
            tempdb.free_run(build_run)
            tempdb.free_run(probe_run)
        return out


class IndexNestedLoopJoin(Operator):
    """For each outer row, seek the inner index (Figure 15b's INLJ plan)."""

    def __init__(
        self,
        outer: Operator,
        inner_tree: BTree,
        outer_key: Callable[[tuple], Any],
        combine: Callable[[tuple, tuple], tuple] = lambda o, i: o + i,
        lookup_cpu_us: float = 0.0,
    ):
        self.outer = outer
        self.inner_tree = inner_tree
        self.outer_key = outer_key
        self.combine = combine
        #: Engine CPU per random row fetch beyond the raw tree descent
        #: (RID decode, latch crabbing, row materialization) — tens of
        #: microseconds in a real engine.
        self.lookup_cpu_us = lookup_cpu_us
        self.row_bytes = outer.row_bytes + 64

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        outer_rows = yield from self.outer.run(ctx)
        out: list[tuple] = []
        for outer_row in outer_rows:
            matches = yield from self.inner_tree.search(self.outer_key(outer_row))
            yield from ctx.cpu.compute(PER_ROW_SCAN_CPU_US + self.lookup_cpu_us)
            for inner_row in matches:
                out.append(self.combine(outer_row, inner_row))
        yield from ctx.cpu.compute(len(out) * PER_ROW_OUTPUT_CPU_US)
        ctx.metrics.rows_out += len(out)
        return out


class ExternalSort(Operator):
    """Sort with run generation + streaming merge through TempDB.

    ``top_n`` truncates the *output*; the merge stops early once enough
    rows have surfaced, but run generation still sorts/spills everything
    (SQL Server's Top-N Sort behaves this way for large N, which is why
    the paper's Hash+Sort query stresses TempDB).
    """

    def __init__(
        self,
        child: Operator,
        key: Optional[Callable[[tuple], Any]],
        reverse: bool = False,
        top_n: Optional[int] = None,
    ):
        self.child = child
        #: ``None``: the row is its own key (total order over the tuple).
        self.key = key
        self.reverse = reverse
        self.top_n = top_n
        self.row_bytes = child.row_bytes

    def _compare_cost(self, n: int) -> float:
        return n * max(1.0, math.log2(max(2, n))) * SORT_COMPARE_CPU_US

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.child.run(ctx)
        budget = ctx.operator_budget_bytes
        need = len(rows) * self.row_bytes
        if need <= budget:
            yield from ctx.cpu.compute(self._compare_cost(len(rows)))
            rows.sort(key=self.key, reverse=self.reverse)
            out = rows[: self.top_n] if self.top_n is not None else rows
            ctx.metrics.rows_out += len(out)
            return out
        out = yield from self._external(ctx, rows, budget)
        ctx.metrics.rows_out += len(out)
        return out

    def _external(self, ctx, rows, budget) -> ProcessGenerator:
        tempdb = ctx.db.tempdb
        rows_per_run = max(1, budget // self.row_bytes)
        rows_per_page = max(1, 8192 // self.row_bytes)
        runs = []
        for start in range(0, len(rows), rows_per_run):
            chunk = rows[start : start + rows_per_run]
            yield from ctx.cpu.compute(self._compare_cost(len(chunk)))
            chunk.sort(key=self.key, reverse=self.reverse)
            run = yield from tempdb.write_run(chunk, rows_per_page)
            runs.append(run)
            ctx.metrics.tempdb_writes += run.page_count
        rows.clear()
        ctx.metrics.spilled_runs += len(runs)
        ctx.metrics.spilled_bytes += sum(run.page_count for run in runs) * 8192
        # Streaming k-way merge, one extent per run buffered at a time.
        out = yield from self._merge(ctx, tempdb, runs)
        for run in runs:
            tempdb.free_run(run)
        return out

    def _merge(self, ctx, tempdb, runs) -> ProcessGenerator:
        sign = -1 if self.reverse else 1
        key = self.key

        cursors = []
        for run in runs:
            if run.extents:
                rows, consumed = yield from tempdb.read_extent(run, 0)
                ctx.metrics.tempdb_reads += sum(
                    pages for _s, pages in run.extents[:consumed]
                )
                cursors.append({"run": run, "extent": consumed, "rows": rows, "pos": 0})
        heap = []
        for index, cursor in enumerate(cursors):
            if cursor["rows"]:
                row = cursor["rows"][0]
                heap.append((_sort_token(row if key is None else key(row), sign), index))
        heapq.heapify(heap)
        out: list[tuple] = []
        compares = 0
        while heap:
            _token, index = heapq.heappop(heap)
            cursor = cursors[index]
            row = cursor["rows"][cursor["pos"]]
            out.append(row)
            compares += max(1, int(math.log2(max(2, len(heap) + 1))))
            if self.top_n is not None and len(out) >= self.top_n:
                break
            cursor["pos"] += 1
            if cursor["pos"] >= len(cursor["rows"]):
                cursor["pos"] = 0
                if cursor["extent"] < len(cursor["run"].extents):
                    rows, consumed = yield from tempdb.read_extent(
                        cursor["run"], cursor["extent"]
                    )
                    ctx.metrics.tempdb_reads += sum(
                        pages for _s, pages in
                        cursor["run"].extents[cursor["extent"]:cursor["extent"] + consumed]
                    )
                    cursor["rows"] = rows
                    cursor["extent"] += consumed
                else:
                    cursor["rows"] = []
            if cursor["rows"]:
                next_row = cursor["rows"][cursor["pos"]]
                token = _sort_token(next_row if key is None else key(next_row), sign)
                heapq.heappush(heap, (token, index))
        yield from ctx.cpu.compute(compares * SORT_COMPARE_CPU_US)
        return out


def _sort_token(key: Any, sign: int):
    """Negate numeric keys for descending merges; tuples handled item-wise."""
    if sign == 1:
        return key
    if isinstance(key, tuple):
        return tuple(_sort_token(item, sign) for item in key)
    return -key


class FilterRows(Operator):
    """Row-at-a-time predicate over any child (un-fusable Filters).

    Plans lowered from the IR fuse filters into scans where possible;
    this operator exists for conditions over derived rows — e.g. a
    post-join filter — and charges one row-touch of CPU per input row.
    """

    def __init__(self, child: Operator, predicate: Callable[[tuple], bool]):
        self.child = child
        self.predicate = predicate
        self.row_bytes = child.row_bytes

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.child.run(ctx)
        yield from ctx.cpu.compute(len(rows) * PER_ROW_SCAN_CPU_US)
        out = list(filter(self.predicate, rows))
        ctx.metrics.rows_out += len(out)
        return out


class ProjectRows(Operator):
    """Row-at-a-time projection over any child (un-fusable Projects)."""

    def __init__(
        self,
        child: Operator,
        project: Callable[[tuple], tuple],
        row_bytes: int = 64,
    ):
        self.child = child
        self.project = project
        self.row_bytes = row_bytes

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.child.run(ctx)
        yield from ctx.cpu.compute(len(rows) * PER_ROW_OUTPUT_CPU_US)
        out = list(map(self.project, rows))
        ctx.metrics.rows_out += len(out)
        return out


class HashAggregate(Operator):
    """Group-by with a hash table (assumed to fit the grant; groups are
    few in the workloads reproduced here).

    Rows are grouped first (references, in arrival order), then each
    group is folded once: by ``fold(group)`` — what the plan lowering
    compiles, C-level per row — or else by ``update`` from ``init()``,
    row by row in the same left-to-right order.
    """

    def __init__(
        self,
        child: Operator,
        group_key: Callable[[tuple], Any],
        init: Optional[Callable[[], Any]] = None,
        update: Optional[Callable[[Any, tuple], Any]] = None,
        finalize: Callable[[Any, Any], tuple] = lambda key, acc: (key, acc),
        fold: Optional[Callable[[list], Any]] = None,
    ):
        if fold is None:
            if init is None or update is None:
                raise PlanError("HashAggregate needs fold, or init and update")
            fold = lambda group: reduce(update, group, init())  # noqa: E731
        self.child = child
        self.group_key = group_key
        self.fold = fold
        self.finalize = finalize
        self.row_bytes = 32

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.child.run(ctx)
        yield from ctx.cpu.compute(len(rows) * PER_ROW_AGG_CPU_US)
        fold, finalize = self.fold, self.finalize
        groups = _group_rows(self.group_key, rows)
        out = [finalize(key, fold(group)) for key, group in groups.items()]
        yield from ctx.cpu.compute(len(out) * PER_ROW_OUTPUT_CPU_US)
        ctx.metrics.rows_out += len(out)
        return out


def _group_rows(key: Callable[[tuple], Any], rows: list) -> dict[Any, list[tuple]]:
    """``key(row) -> [rows]``: groups in first-seen order, rows in input order."""
    groups: dict[Any, list[tuple]] = {}
    for value, row in zip(map(key, rows), rows):
        group = groups.get(value)
        if group is None:
            groups[value] = [row]
        else:
            group.append(row)
    return groups
