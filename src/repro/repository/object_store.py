"""The Object Repository's storage engine: store, load, and query
DataObjects over the relational substrate.

Users "work freely in the object model without concerning themselves with
the relational data model" (Section 4): :meth:`ObjectStore.store` takes a
:class:`~repro.objects.data_object.DataObject`, decomposes it per the
:class:`~repro.repository.schema_mapper.SchemaMapper`, and
:meth:`ObjectStore.query` reconstructs full objects — including
instances of subtypes, so "old queries will still work even as new
subtypes are introduced".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..objects import DataObject, TypeRegistry, decode, encode
from .query import And, Eq, Predicate, TRUE
from .relational import Database
from .schema_mapper import DIRECTORY_TABLE, AttributeMapping, SchemaMapper, TypeSchema

__all__ = ["ObjectStore", "StoreError"]


class StoreError(RuntimeError):
    """Bad store/load/query request."""


class ObjectStore:
    """Object persistence over :class:`~repro.repository.relational.Database`."""

    def __init__(self, db: Database, registry: TypeRegistry):
        self.db = db
        self.registry = registry
        self.mapper = SchemaMapper(db, registry)
        self.objects_stored = 0

    def reset(self, db: Optional[Database] = None) -> None:
        """Discard all stored data, swapping in a fresh database.

        In place, so every component holding a reference to this store
        (e.g. a query server) sees the new state — used by the capture
        server's crash recovery before replaying its write-ahead log.
        """
        self.db = db if db is not None else Database(self.db.name)
        self.mapper = SchemaMapper(self.db, self.registry)
        self.objects_stored = 0

    # ------------------------------------------------------------------
    # store
    # ------------------------------------------------------------------
    def store(self, obj: DataObject) -> str:
        """Persist ``obj`` (and, recursively, nested objects); returns oid.

        Storing an object whose oid already exists replaces it.
        """
        if not isinstance(obj, DataObject):
            raise StoreError(f"can only store DataObjects, got {obj!r}")
        schema = self.mapper.schema_for(obj.type_name)
        self._delete_rows(obj.oid, schema)
        row: Dict[str, Any] = {"oid": obj.oid}
        for mapping in schema.attributes:
            value = obj.get(mapping.attr_name) if obj.has(mapping.attr_name) \
                else None
            self._store_attribute(obj, mapping, value, row)
        self.db.table(schema.main_table).insert(row)
        directory = self.db.table(DIRECTORY_TABLE)
        directory.upsert({"oid": obj.oid, "type_name": obj.type_name})
        self.objects_stored += 1
        return obj.oid

    def _store_attribute(self, obj: DataObject, mapping: AttributeMapping,
                         value: Any, row: Dict[str, Any]) -> None:
        if mapping.kind == "scalar":
            row[mapping.column] = value
        elif mapping.kind == "blob":
            # blobs are self-contained on purpose: stored rows outlive
            # every bus session, so they never use type-plane ids
            row[mapping.column] = None if value is None else \
                encode(value, self.registry, inline_types=True)
        elif mapping.kind == "ref":
            if value is None:
                row[mapping.column] = None
            else:
                self.store(value)   # recursive decomposition
                row[mapping.column] = value.oid
        elif mapping.kind in ("list", "map"):
            row[mapping.column] = None if value is None else len(value)
            table = self.db.table(mapping.child_table)
            items = [] if value is None else (
                list(enumerate(value)) if mapping.kind == "list"
                else sorted(value.items()))
            for key, item in items:
                child_row = {"parent_oid": obj.oid,
                             ("idx" if mapping.kind == "list" else "k"): key}
                child_row["v"] = self._store_element(mapping, item)
                table.insert(child_row)

    def _store_element(self, mapping: AttributeMapping, item: Any) -> Any:
        if mapping.element_kind == "scalar":
            return item
        if mapping.element_kind == "blob":
            # self-contained, same as _store_attribute blob columns
            return encode(item, self.registry, inline_types=True)
        self.store(item)   # element objects stored by reference
        return item.oid

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------
    def load(self, oid: str) -> DataObject:
        """Reconstruct the object stored under ``oid``."""
        entry = self.db.table(DIRECTORY_TABLE).get(oid)
        if entry is None:
            raise StoreError(f"no object with oid {oid!r}")
        return self._load_as(entry["type_name"], oid)

    def exists(self, oid: str) -> bool:
        return self.db.table(DIRECTORY_TABLE).get(oid) is not None

    def _load_as(self, type_name: str, oid: str) -> DataObject:
        schema = self.mapper.schema_for(type_name)
        row = self.db.table(schema.main_table).get(oid)
        if row is None:
            raise StoreError(
                f"directory names {oid!r} as {type_name!r} but its row "
                f"is missing")
        return self._reconstruct(schema, row)

    def _reconstruct(self, schema: TypeSchema,
                     row: Dict[str, Any]) -> DataObject:
        attrs: Dict[str, Any] = {}
        for mapping in schema.attributes:
            value = self._load_attribute(row, mapping)
            if value is not None:
                attrs[mapping.attr_name] = value
        return DataObject(self.registry, schema.type_name, attrs,
                          oid=row["oid"])

    def _load_attribute(self, row: Dict[str, Any],
                        mapping: AttributeMapping) -> Any:
        if mapping.kind == "scalar":
            return row.get(mapping.column)
        if mapping.kind == "blob":
            blob = row.get(mapping.column)
            return None if blob is None else decode(blob, self.registry)
        if mapping.kind == "ref":
            child_oid = row.get(mapping.column)
            return None if child_oid is None else self.load(child_oid)
        if row.get(mapping.column) is None:
            return None                      # attribute was never set
        table = self.db.table(mapping.child_table)
        children = table.select(Eq("parent_oid", row["oid"]))
        if mapping.kind == "list":
            children.sort(key=lambda c: c["idx"])
            return [self._load_element(mapping, c["v"]) for c in children]
        return {c["k"]: self._load_element(mapping, c["v"])
                for c in children}

    def _load_element(self, mapping: AttributeMapping, value: Any) -> Any:
        if mapping.element_kind == "scalar":
            return value
        if mapping.element_kind == "blob":
            return decode(value, self.registry)
        return self.load(value)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def query(self, type_name: str, predicate: Optional[Predicate] = None,
              include_subtypes: bool = True,
              order_by: Optional[str] = None, descending: bool = False,
              limit: Optional[int] = None,
              **attr_equals: Any) -> List[DataObject]:
        """All stored objects of ``type_name`` matching the constraints.

        ``attr_equals`` are equality constraints on attribute names;
        ``predicate`` (over attribute names) allows richer conditions.
        With ``include_subtypes`` (the default, matching the paper),
        instances of registered subtypes are returned too.  ``order_by``
        sorts on a directly-queryable attribute (unset values last);
        ``limit`` truncates after ordering.
        """
        self.registry.get(type_name)
        type_names = [type_name]
        if include_subtypes:
            type_names += self.registry.subtypes_of(type_name)
        out: List[DataObject] = []
        for concrete in type_names:
            schema = self.mapper.schema_for(concrete)
            table = self.db.table(schema.main_table)
            translated = self._translate(schema, predicate, attr_equals)
            if order_by is not None:
                self._queryable_column(schema, order_by)  # validate early
            for row in table.select(translated):
                out.append(self._reconstruct(schema, row))
        if order_by is not None:
            # unset values go last regardless of direction (NULLS LAST)
            have = [o for o in out if o.get(order_by) is not None]
            lack = [o for o in out if o.get(order_by) is None]
            have.sort(key=lambda o: o.get(order_by), reverse=descending)
            out = have + lack
        if limit is not None:
            out = out[:max(0, limit)]
        return out

    def count(self, type_name: str, include_subtypes: bool = True) -> int:
        self.registry.get(type_name)
        type_names = [type_name]
        if include_subtypes:
            type_names += self.registry.subtypes_of(type_name)
        total = 0
        for concrete in type_names:
            schema = self.mapper.schema_for(concrete)
            total += self.db.table(schema.main_table).count()
        return total

    def delete(self, oid: str) -> bool:
        """Remove the object's own rows (nested objects are left alone —
        they may be shared)."""
        entry = self.db.table(DIRECTORY_TABLE).get(oid)
        if entry is None:
            return False
        schema = self.mapper.schema_for(entry["type_name"])
        self._delete_rows(oid, schema)
        self.db.table(DIRECTORY_TABLE).delete(Eq("oid", oid))
        return True

    def _delete_rows(self, oid: str, schema: TypeSchema) -> None:
        self.db.table(schema.main_table).delete(Eq("oid", oid))
        for mapping in schema.attributes:
            if mapping.child_table:
                self.db.table(mapping.child_table).delete(
                    Eq("parent_oid", oid))

    # ------------------------------------------------------------------
    def _translate(self, schema: TypeSchema,
                   predicate: Optional[Predicate],
                   attr_equals: Dict[str, Any]) -> Predicate:
        """Rewrite attribute-level predicates into column-level ones."""
        parts: List[Predicate] = []
        for attr, value in attr_equals.items():
            column = self._queryable_column(schema, attr)
            if isinstance(value, DataObject):
                value = value.oid   # reference equality by oid
            parts.append(Eq(column, value))
        if predicate is not None:
            parts.append(self._rewrite(schema, predicate))
        if not parts:
            return TRUE
        if len(parts) == 1:
            return parts[0]
        return And(*parts)

    def _rewrite(self, schema: TypeSchema,
                 predicate: Predicate) -> Predicate:
        from .query import And as AndP, Not as NotP, Or as OrP
        if isinstance(predicate, AndP):
            return AndP(*[self._rewrite(schema, p) for p in predicate.parts])
        if isinstance(predicate, OrP):
            return OrP(*[self._rewrite(schema, p) for p in predicate.parts])
        if isinstance(predicate, NotP):
            return NotP(self._rewrite(schema, predicate.part))
        column_attr = getattr(predicate, "column", None)
        if column_attr is None:
            return predicate
        column = self._queryable_column(schema, column_attr)
        clone = predicate.__class__.__new__(predicate.__class__)
        clone.__dict__.update(predicate.__dict__)
        clone.column = column
        return clone

    def _queryable_column(self, schema: TypeSchema, attr: str) -> str:
        """The main-table column for ``attr``; containers live in child
        tables and are not directly queryable."""
        mapping = schema.mapping(attr)
        if mapping is None or mapping.kind in ("list", "map"):
            raise StoreError(
                f"type {schema.type_name!r}: attribute {attr!r} is "
                f"not directly queryable")
        return mapping.column
