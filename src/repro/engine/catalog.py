"""Schemas, tables and the database catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from .errors import EngineError
from .page import rows_per_page

__all__ = ["Column", "Schema", "TableStats", "Table", "Catalog"]


@dataclass(frozen=True)
class Column:
    name: str
    kind: str = "int"  # "int" | "float" | "str"
    width: int = 8


@dataclass(frozen=True)
class Schema:
    """Fixed-width row layout; column order matches row tuple order."""

    columns: tuple[Column, ...]
    key: str  # clustering key column name

    @property
    def row_bytes(self) -> int:
        return sum(column.width for column in self.columns) + 8  # row header

    @property
    def rows_per_page(self) -> int:
        return rows_per_page(self.row_bytes)

    def index_of(self, name: str) -> int:
        for position, column in enumerate(self.columns):
            if column.name == name:
                return position
        raise EngineError(f"no column {name!r}")

    @cached_property
    def key_index(self) -> int:
        # Cached: key extraction runs once per row on every B-tree
        # probe, and the column scan in index_of would dominate it.
        # (cached_property writes the instance __dict__ directly, which
        # is fine on a frozen dataclass — the value is derived, not a
        # field, so equality and hashing are unaffected.)
        return self.index_of(self.key)

    def key_of(self, row: tuple) -> Any:
        return row[self.key_index]

    def extractor(self, name: str) -> Callable[[tuple], Any]:
        position = self.index_of(name)
        return lambda row: row[position]


@dataclass
class TableStats:
    row_count: int = 0
    page_count: int = 0
    min_key: Any = None
    max_key: Any = None

    @property
    def rows_per_page(self) -> float:
        return self.row_count / self.page_count if self.page_count else 0.0


@dataclass
class Table:
    name: str
    schema: Schema
    file_id: int
    #: Clustered B-tree (set after load); None for pure heaps.
    clustered: Any = None
    stats: TableStats = field(default_factory=TableStats)
    #: Secondary indexes by name.
    indexes: dict[str, Any] = field(default_factory=dict)

    def key_of(self, row: tuple) -> Any:
        return self.schema.key_of(row)


class Catalog:
    """Names -> tables, plus file-id allocation for the whole database."""

    def __init__(self):
        self.tables: dict[str, Table] = {}
        self._next_file_id = 1

    def allocate_file_id(self) -> int:
        file_id = self._next_file_id
        self._next_file_id += 1
        return file_id

    def add_table(self, name: str, schema: Schema) -> Table:
        if name in self.tables:
            raise EngineError(f"table {name!r} already exists")
        table = Table(name=name, schema=schema, file_id=self.allocate_file_id())
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise EngineError(f"no table {name!r}")
        return self.tables[name]
