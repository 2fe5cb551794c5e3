"""Tests for the relational engine."""

import pytest

from repro.repository import (And, BLOB, BOOLEAN, Column, Contains, Database,
                              DatabaseError, Eq, Ge, Gt, In, INTEGER, Le, Lt,
                              Ne, Not, Or, REAL, TEXT, TRUE)


@pytest.fixture
def people():
    db = Database()
    table = db.create_table("people", [
        Column("id", TEXT, nullable=False),
        Column("name", TEXT),
        Column("age", INTEGER),
        Column("score", REAL),
        Column("active", BOOLEAN),
        Column("photo", BLOB),
    ], primary_key="id")
    table.insert({"id": "p1", "name": "ada", "age": 36, "active": True})
    table.insert({"id": "p2", "name": "brian", "age": 51, "active": False})
    table.insert({"id": "p3", "name": "carol", "age": 36, "score": 9.5})
    return db, table


def test_insert_and_select_all(people):
    _, table = people
    assert len(table) == 3
    assert len(table.select()) == 3
    assert len(table.select(TRUE)) == 3


def test_primary_key_lookup(people):
    _, table = people
    assert table.get("p2")["name"] == "brian"
    assert table.get("zzz") is None


def test_duplicate_primary_key_rejected(people):
    _, table = people
    with pytest.raises(DatabaseError):
        table.insert({"id": "p1", "name": "dup"})


def test_missing_primary_key_rejected(people):
    _, table = people
    with pytest.raises(DatabaseError):
        table.insert({"name": "nobody"})


def test_type_checking(people):
    _, table = people
    with pytest.raises(DatabaseError):
        table.insert({"id": "x", "age": "old"})
    with pytest.raises(DatabaseError):
        table.insert({"id": "x", "age": True})    # bool is not integer
    with pytest.raises(DatabaseError):
        table.insert({"id": "x", "name": 42})
    with pytest.raises(DatabaseError):
        table.insert({"id": "x", "photo": "not-bytes"})
    table.insert({"id": "x", "score": 3})          # int ok for REAL


def test_unknown_column_rejected(people):
    _, table = people
    with pytest.raises(DatabaseError):
        table.insert({"id": "x", "ghost": 1})


def test_not_nullable(people):
    _, table = people
    with pytest.raises(DatabaseError):
        table.insert({"id": None, "name": "x"})


def test_predicates(people):
    _, table = people
    assert {r["id"] for r in table.select(Eq("age", 36))} == {"p1", "p3"}
    assert {r["id"] for r in table.select(Ne("age", 36))} == {"p2"}
    assert {r["id"] for r in table.select(Lt("age", 40))} == {"p1", "p3"}
    assert {r["id"] for r in table.select(Le("age", 36))} == {"p1", "p3"}
    assert {r["id"] for r in table.select(Gt("age", 40))} == {"p2"}
    assert {r["id"] for r in table.select(Ge("age", 51))} == {"p2"}
    assert {r["id"] for r in table.select(In("name", ["ada", "carol"]))} == \
        {"p1", "p3"}
    assert {r["id"] for r in table.select(Contains("name", "ri"))} == {"p2"}


def test_null_never_compares(people):
    _, table = people
    # p1/p2 have no score; ordered comparisons must not match them
    assert {r["id"] for r in table.select(Gt("score", 1.0))} == {"p3"}
    assert {r["id"] for r in table.select(Lt("score", 99.0))} == {"p3"}


def test_combinators(people):
    _, table = people
    pred = And(Eq("age", 36), Eq("name", "ada"))
    assert [r["id"] for r in table.select(pred)] == ["p1"]
    pred = Or(Eq("name", "ada"), Eq("name", "brian"))
    assert {r["id"] for r in table.select(pred)} == {"p1", "p2"}
    assert {r["id"] for r in table.select(Not(Eq("age", 36)))} == {"p2"}
    # operator sugar
    assert {r["id"] for r in table.select(Eq("age", 36) & Eq("name", "ada"))} \
        == {"p1"}
    assert {r["id"] for r in table.select(~Eq("age", 36))} == {"p2"}


def test_count(people):
    _, table = people
    assert table.count() == 3
    assert table.count(Eq("age", 36)) == 2


def test_update(people):
    _, table = people
    changed = table.update(Eq("id", "p1"), {"age": 37})
    assert changed == 1
    assert table.get("p1")["age"] == 37
    with pytest.raises(DatabaseError):
        table.update(TRUE, {"ghost": 1})


def test_delete(people):
    _, table = people
    assert table.delete(Eq("age", 36)) == 2
    assert len(table) == 1
    assert table.delete(Eq("age", 999)) == 0


def test_upsert(people):
    _, table = people
    table.upsert({"id": "p1", "name": "ada2", "age": 40})
    assert len(table) == 3
    assert table.get("p1")["name"] == "ada2"
    table.upsert({"id": "p9", "name": "new"})
    assert len(table) == 4


def test_select_returns_copies(people):
    _, table = people
    row = table.select(Eq("id", "p1"))[0]
    row["name"] = "mutated"
    assert table.get("p1")["name"] == "ada"


def test_secondary_index_used(people):
    _, table = people
    table.create_index("age")
    before = table.scans
    rows = table.select(Eq("age", 36))
    assert len(rows) == 2
    assert table.scans == before          # no full scan
    assert table.index_lookups >= 1


def test_index_survives_mutation(people):
    _, table = people
    table.create_index("age")
    table.insert({"id": "p4", "age": 36})
    assert len(table.select(Eq("age", 36))) == 3
    table.delete(Eq("id", "p1"))
    assert len(table.select(Eq("age", 36))) == 2
    table.update(Eq("id", "p3"), {"age": 99})
    assert len(table.select(Eq("age", 36))) == 1


def test_index_hint_through_and(people):
    _, table = people
    table.create_index("age")
    before_scans = table.scans
    rows = table.select(And(Eq("age", 36), Contains("name", "a")))
    assert {r["id"] for r in rows} == {"p1", "p3"}
    assert table.scans == before_scans


def test_database_table_management():
    db = Database("test")
    db.create_table("t", [Column("a", TEXT)])
    assert db.has_table("t")
    assert db.tables() == ["t"]
    with pytest.raises(DatabaseError):
        db.create_table("t", [Column("a", TEXT)])
    with pytest.raises(DatabaseError):
        db.table("ghost")


def test_bad_schema_rejected():
    db = Database()
    with pytest.raises(DatabaseError):
        db.create_table("t", [])
    with pytest.raises(DatabaseError):
        db.create_table("t", [Column("a", "varchar")])
    with pytest.raises(DatabaseError):
        db.create_table("t", [Column("a", TEXT), Column("a", TEXT)])
    with pytest.raises(DatabaseError):
        db.create_table("t", [Column("a", TEXT)], primary_key="ghost")


def test_index_unknown_column_rejected(people):
    _, table = people
    with pytest.raises(DatabaseError):
        table.create_index("ghost")


def test_predicate_wire_roundtrip():
    from repro.repository import (predicate_from_wire, predicate_to_wire,
                                  In)
    predicates = [
        TRUE,
        Eq("a", 1),
        Ne("a", "x"),
        Lt("a", 2) & Ge("b", 3),
        Or(Contains("name", "ri"), Not(Eq("a", None))),
        In("a", [1, 2, 3]),
    ]
    rows = [{"a": 1, "b": 3, "name": "brian"},
            {"a": 5, "b": 0, "name": "ada"},
            {"a": None, "b": 7, "name": ""}]
    for predicate in predicates:
        rebuilt = predicate_from_wire(predicate_to_wire(predicate))
        for row in rows:
            assert rebuilt.matches(row) == predicate.matches(row), \
                (predicate, row)


def test_predicate_wire_rejects_malformed():
    import pytest as _pytest
    from repro.repository import predicate_from_wire
    for bad in [None, {}, {"op": "nope"}, {"op": "eq"}, "eq"]:
        with _pytest.raises((ValueError, KeyError)):
            predicate_from_wire(bad)
