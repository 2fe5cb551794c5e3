"""Object ↔ relational schema mapping, driven entirely by type metadata.

Section 4: "The repository behaves as a kind of schema converter from
objects to database tables, and vice versa. ... our conversion algorithm
decomposes a complex object into one or more database tables and
reconstructs a complex object from one or more database tables ... This
operation can be fully automated; only the type information is necessary
to do the transformation."

The mapping, per concrete type ``T``:

* a main table ``obj_T`` — ``oid`` primary key plus one column per
  declared attribute (inherited attributes included, so supertype columns
  repeat across subtype tables);
* scalar attributes map to typed columns (``a_<name>``);
* a nested object attribute maps to a ``a_<name>__oid`` reference column,
  the child object being stored in *its* type's tables;
* ``list<X>`` / ``map<X>`` attributes map to child tables
  ``obj_T__<name>`` keyed by parent oid (+ index or key column);
* ``any`` attributes and nested containers map to marshalled blobs.

Subtype queries ("queries ... return all objects that satisfy a
constraint, including objects that are instances of a subtype") work by
unioning over the tables of the type and its registered subtypes — see
:mod:`repro.repository.object_store`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..objects import TypeRegistry, parse_type_name
from .relational import (BLOB, BOOLEAN, Column, Database, INTEGER, REAL,
                         TEXT)

__all__ = ["AttributeMapping", "SchemaMapper", "TypeSchema",
           "DIRECTORY_TABLE", "main_table_name", "child_table_name"]

#: Table mapping every stored oid to its concrete type.
DIRECTORY_TABLE = "obj_directory"

_SCALAR_COLUMNS = {
    "int": INTEGER,
    "float": REAL,
    "bool": BOOLEAN,
    "string": TEXT,
    "bytes": BLOB,
}


def main_table_name(type_name: str) -> str:
    return f"obj_{type_name}"


def child_table_name(type_name: str, attr_name: str) -> str:
    return f"obj_{type_name}__{attr_name}"


@dataclass
class AttributeMapping:
    """How one attribute is represented relationally."""

    attr_name: str
    attr_type: str
    kind: str                 # scalar | blob | ref | list | map
    column: Optional[str] = None        # main-table column (if any)
    child_table: Optional[str] = None   # child table (list/map)
    element_kind: Optional[str] = None  # scalar | blob | ref (containers)
    element_column_type: Optional[str] = None


@dataclass
class TypeSchema:
    """The full relational layout of one concrete type."""

    type_name: str
    main_table: str
    attributes: List[AttributeMapping] = field(default_factory=list)

    def mapping(self, attr_name: str) -> Optional[AttributeMapping]:
        for mapping in self.attributes:
            if mapping.attr_name == attr_name:
                return mapping
        return None


class SchemaMapper:
    """Computes and materializes :class:`TypeSchema` objects in a database."""

    def __init__(self, db: Database, registry: TypeRegistry):
        self.db = db
        self.registry = registry
        self._schemas: Dict[str, TypeSchema] = {}
        self.tables_created = 0
        if not db.has_table(DIRECTORY_TABLE):
            db.create_table(DIRECTORY_TABLE,
                            [Column("oid", TEXT, nullable=False),
                             Column("type_name", TEXT, nullable=False)],
                            primary_key="oid")
            db.table(DIRECTORY_TABLE).create_index("type_name")

    # ------------------------------------------------------------------
    def schema_for(self, type_name: str) -> TypeSchema:
        """The layout for ``type_name``, computing it on first use.

        This is the dynamic-evolution entry point: storing an instance of
        a previously unknown type generates its tables on the fly.
        """
        schema = self._schemas.get(type_name)
        if schema is None:
            schema = self._compute(type_name)
            self._materialize(schema)
            self._schemas[type_name] = schema
        return schema

    def known_schemas(self) -> List[str]:
        return sorted(self._schemas)

    # ------------------------------------------------------------------
    def _compute(self, type_name: str) -> TypeSchema:
        self.registry.get(type_name)   # raise early on unknown types
        schema = TypeSchema(type_name, main_table_name(type_name))
        for attr in self.registry.all_attributes(type_name):
            schema.attributes.append(self._map_attribute(type_name, attr))
        return schema

    def _map_attribute(self, type_name: str, attr) -> AttributeMapping:
        outer, inner = parse_type_name(attr.type_name)
        if outer in _SCALAR_COLUMNS:
            return AttributeMapping(attr.name, attr.type_name, "scalar",
                                    column=f"a_{attr.name}")
        if outer == "any":
            return AttributeMapping(attr.name, attr.type_name, "blob",
                                    column=f"a_{attr.name}")
        if outer in ("list", "map"):
            element_kind, element_type = self._element_layout(inner)
            # the main table carries an element count so an *empty*
            # container is distinguishable from an unset attribute
            return AttributeMapping(
                attr.name, attr.type_name, outer,
                column=f"a_{attr.name}__n",
                child_table=child_table_name(type_name, attr.name),
                element_kind=element_kind,
                element_column_type=element_type)
        # a nested object type: store the child's oid as a reference
        return AttributeMapping(attr.name, attr.type_name, "ref",
                                column=f"a_{attr.name}__oid")

    def _element_layout(self, element_type: str) -> Tuple[str, str]:
        outer, inner = parse_type_name(element_type)
        if outer in _SCALAR_COLUMNS:
            return "scalar", _SCALAR_COLUMNS[outer]
        if outer in ("list", "map", "any"):
            return "blob", BLOB   # nested containers: marshalled blob
        return "ref", TEXT        # element objects stored by reference

    # ------------------------------------------------------------------
    def _materialize(self, schema: TypeSchema) -> None:
        if not self.db.has_table(schema.main_table):
            columns = [Column("oid", TEXT, nullable=False)]
            for mapping in schema.attributes:
                if mapping.column is None:
                    continue
                if mapping.kind in ("list", "map"):
                    column_type = INTEGER        # element count
                elif mapping.kind == "blob":
                    column_type = BLOB
                else:
                    column_type = _SCALAR_COLUMNS.get(mapping.attr_type,
                                                      TEXT)
                columns.append(Column(mapping.column, column_type))
            self.db.create_table(schema.main_table, columns,
                                 primary_key="oid")
            self.tables_created += 1
        for mapping in schema.attributes:
            if mapping.child_table and not self.db.has_table(
                    mapping.child_table):
                key_column = (Column("idx", INTEGER, nullable=False)
                              if mapping.kind == "list"
                              else Column("k", TEXT, nullable=False))
                self.db.create_table(mapping.child_table, [
                    Column("parent_oid", TEXT, nullable=False),
                    key_column,
                    Column("v", mapping.element_column_type),
                ])
                self.db.table(mapping.child_table).create_index("parent_oid")
                self.tables_created += 1
