"""A small in-memory relational engine.

The paper's Object Repository sits on "a commercially available
relational database system"; this module is our substitute substrate
(see DESIGN.md).  It is deliberately relational in the Codd sense the
paper leans on: "a database table is a flat structure composed of simple
data types" — typed columns, primary keys, hash indexes, and predicate
queries.  No SQL surface; the mapping layer drives it programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .query import Predicate, TRUE

__all__ = ["Column", "Database", "DatabaseError", "Table",
           "INTEGER", "REAL", "TEXT", "BOOLEAN", "BLOB"]

# column types (a flat structure of simple data types)
INTEGER = "integer"
REAL = "real"
TEXT = "text"
BOOLEAN = "boolean"
BLOB = "blob"

_PYTHON_TYPES = {
    INTEGER: int,
    REAL: (int, float),
    TEXT: str,
    BOOLEAN: bool,
    BLOB: bytes,
}


class DatabaseError(RuntimeError):
    """Schema violations, duplicate keys, unknown tables/columns."""


@dataclass(frozen=True)
class Column:
    """One typed column.  ``nullable`` columns accept None."""

    name: str
    type: str
    nullable: bool = True

    def __post_init__(self) -> None:
        if self.type not in _PYTHON_TYPES:
            raise DatabaseError(f"unknown column type {self.type!r}")

    def check(self, value: Any) -> None:
        if value is None:
            if not self.nullable:
                raise DatabaseError(f"column {self.name!r} is not nullable")
            return
        expected = _PYTHON_TYPES[self.type]
        if self.type == INTEGER and isinstance(value, bool):
            raise DatabaseError(
                f"column {self.name!r}: got bool for integer")
        if self.type == REAL and isinstance(value, bool):
            raise DatabaseError(f"column {self.name!r}: got bool for real")
        if not isinstance(value, expected):
            raise DatabaseError(
                f"column {self.name!r} ({self.type}): bad value {value!r}")


class Table:
    """Rows are dicts keyed by column name; missing columns read as None."""

    def __init__(self, name: str, columns: Sequence[Column],
                 primary_key: Optional[str] = None):
        if not columns:
            raise DatabaseError(f"table {name!r} needs at least one column")
        self.name = name
        self.columns: Dict[str, Column] = {}
        for column in columns:
            if column.name in self.columns:
                raise DatabaseError(
                    f"table {name!r}: duplicate column {column.name!r}")
            self.columns[column.name] = column
        if primary_key is not None and primary_key not in self.columns:
            raise DatabaseError(
                f"table {name!r}: unknown primary key {primary_key!r}")
        self.primary_key = primary_key
        self._rows: List[Dict[str, Any]] = []
        self._indexes: Dict[str, Dict[Any, List[int]]] = {}
        if primary_key is not None:
            self.create_index(primary_key)
        # statistics for benches / planner verification
        self.scans = 0
        self.index_lookups = 0

    # ------------------------------------------------------------------
    # schema
    # ------------------------------------------------------------------
    def create_index(self, column: str) -> None:
        if column not in self.columns:
            raise DatabaseError(
                f"table {self.name!r}: cannot index unknown column "
                f"{column!r}")
        if column in self._indexes:
            return
        index: Dict[Any, List[int]] = {}
        for position, row in enumerate(self._rows):
            index.setdefault(row.get(column), []).append(position)
        self._indexes[column] = index

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Dict[str, Any]) -> None:
        checked = self._check_row(row)
        if self.primary_key is not None:
            key = checked.get(self.primary_key)
            if key is None:
                raise DatabaseError(
                    f"table {self.name!r}: missing primary key")
            if self._indexes[self.primary_key].get(key):
                raise DatabaseError(
                    f"table {self.name!r}: duplicate key {key!r}")
        position = len(self._rows)
        self._rows.append(checked)
        for column, index in self._indexes.items():
            index.setdefault(checked.get(column), []).append(position)

    def upsert(self, row: Dict[str, Any]) -> None:
        """Insert, replacing any row with the same primary key."""
        if self.primary_key is None:
            raise DatabaseError(
                f"table {self.name!r}: upsert needs a primary key")
        key = row.get(self.primary_key)
        self.delete(self._pk_predicate(key))
        self.insert(row)

    def delete(self, predicate: Predicate = TRUE) -> int:
        """Delete matching rows; returns how many went away."""
        doomed = [row for row in self._iter_candidates(predicate)
                  if predicate.matches(row)]
        if not doomed:
            return 0
        removed_ids = {id(row) for row in doomed}
        self._rows = [row for row in self._rows
                      if id(row) not in removed_ids]
        self._rebuild_indexes()
        return len(removed_ids)

    def update(self, predicate: Predicate, changes: Dict[str, Any]) -> int:
        """Apply ``changes`` to matching rows; returns how many changed."""
        for name, value in changes.items():
            column = self.columns.get(name)
            if column is None:
                raise DatabaseError(
                    f"table {self.name!r}: unknown column {name!r}")
            column.check(value)
        touched = 0
        for row in self._rows:
            if predicate.matches(row):
                row.update(changes)
                touched += 1
        if touched:
            self._rebuild_indexes()
        return touched

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def select(self, predicate: Predicate = TRUE) -> List[Dict[str, Any]]:
        """Matching rows (copies — callers cannot corrupt the table)."""
        return [dict(row) for row in self._iter_candidates(predicate)
                if predicate.matches(row)]

    def get(self, key: Any) -> Optional[Dict[str, Any]]:
        """Primary-key point lookup."""
        if self.primary_key is None:
            raise DatabaseError(f"table {self.name!r} has no primary key")
        rows = self.select(self._pk_predicate(key))
        return rows[0] if rows else None

    def count(self, predicate: Predicate = TRUE) -> int:
        if predicate is TRUE:
            return len(self._rows)
        return sum(1 for row in self._iter_candidates(predicate)
                   if predicate.matches(row))

    def __len__(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pk_predicate(self, key: Any) -> Predicate:
        from .query import Eq
        return Eq(self.primary_key, key)

    def _check_row(self, row: Dict[str, Any]) -> Dict[str, Any]:
        checked: Dict[str, Any] = {}
        for name, value in row.items():
            column = self.columns.get(name)
            if column is None:
                raise DatabaseError(
                    f"table {self.name!r}: unknown column {name!r}")
            column.check(value)
            checked[name] = value
        return checked

    def _iter_candidates(self, predicate: Predicate) -> Iterable[Dict[str, Any]]:
        """Use a hash index when the predicate pins an indexed column."""
        hint = predicate.index_hint()
        if hint is not None:
            column, value = hint
            index = self._indexes.get(column)
            if index is not None:
                self.index_lookups += 1
                return [self._rows[pos] for pos in index.get(value, [])]
        self.scans += 1
        return list(self._rows)

    def _rebuild_indexes(self) -> None:
        for column in self._indexes:
            index: Dict[Any, List[int]] = {}
            for position, row in enumerate(self._rows):
                index.setdefault(row.get(column), []).append(position)
            self._indexes[column] = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Table {self.name} rows={len(self._rows)}>"


class Database:
    """A named collection of tables."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, columns: Sequence[Column],
                     primary_key: Optional[str] = None) -> Table:
        if name in self._tables:
            raise DatabaseError(f"table {name!r} already exists")
        table = Table(name, columns, primary_key)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise DatabaseError(f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Database {self.name} tables={len(self._tables)}>"
