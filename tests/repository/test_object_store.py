"""Tests for the object-relational mapping (the Object Repository core)."""

import pytest

from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.repository import (Contains, Database, Eq, Gt, ObjectStore, Or,
                              StoreError, main_table_name)


@pytest.fixture
def reg():
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "source", attributes=[AttributeSpec("name", "string")]))
    registry.register(TypeDescriptor(
        "story",
        attributes=[
            AttributeSpec("headline", "string"),
            AttributeSpec("words", "int", required=False),
            AttributeSpec("score", "float", required=False),
            AttributeSpec("hot", "bool", required=False),
            AttributeSpec("raw", "bytes", required=False),
            AttributeSpec("industry_groups", "list<string>", required=False),
            AttributeSpec("country_codes", "map<string>", required=False),
            AttributeSpec("source", "source", required=False),
            AttributeSpec("sources", "list<source>", required=False),
            AttributeSpec("extra", "any", required=False),
        ]))
    registry.register(TypeDescriptor(
        "reuters_story", supertype="story",
        attributes=[AttributeSpec("ric", "string", required=False)]))
    return registry


@pytest.fixture
def store(reg):
    return ObjectStore(Database(), reg)


def full_story(reg, **extra):
    return DataObject(reg, "story", dict({
        "headline": "Fab5 yields up",
        "words": 420,
        "score": 8.5,
        "hot": True,
        "raw": b"\x01\x02",
        "industry_groups": ["semis", "equipment"],
        "country_codes": {"us": "United States", "jp": "Japan"},
        "source": DataObject(reg, "source", name="Reuters"),
    }, **extra))


def test_store_and_load_roundtrip(reg, store):
    story = full_story(reg)
    oid = store.store(story)
    loaded = store.load(oid)
    assert loaded == story
    assert loaded.oid == oid
    assert loaded.get("industry_groups") == ["semis", "equipment"]
    assert loaded.get("country_codes")["jp"] == "Japan"
    assert loaded.get("source").get("name") == "Reuters"
    assert loaded.get("raw") == b"\x01\x02"


def test_complex_object_decomposed_into_tables(reg, store):
    """'Every object must be mapped into collections of simple database
    relations' — check the actual relational layout."""
    store.store(full_story(reg))
    tables = store.db.tables()
    assert main_table_name("story") in tables
    assert main_table_name("source") in tables      # nested object's table
    assert "obj_story__industry_groups" in tables   # list child table
    assert "obj_story__country_codes" in tables     # map child table
    groups = store.db.table("obj_story__industry_groups").select()
    assert sorted(g["v"] for g in groups) == ["equipment", "semis"]
    # the nested source is a row in its own table, referenced by oid
    story_row = store.db.table(main_table_name("story")).select()[0]
    assert story_row["a_source__oid"].startswith("source:")


def test_unset_optional_attributes_roundtrip(reg, store):
    story = DataObject(reg, "story", headline="bare")
    loaded = store.load(store.store(story))
    assert loaded.get("words") is None
    assert loaded.get("industry_groups") is None
    assert loaded == story


def test_store_replaces_existing_oid(reg, store):
    story = full_story(reg)
    store.store(story)
    story.set("headline", "updated")
    story.set("industry_groups", ["only-one"])
    store.store(story)
    loaded = store.load(story.oid)
    assert loaded.get("headline") == "updated"
    assert loaded.get("industry_groups") == ["only-one"]
    assert store.db.table(main_table_name("story")).count() == 1


def test_any_attribute_marshalled(reg, store):
    story = DataObject(reg, "story", headline="x",
                       extra={"nested": [1, 2, {"deep": True}]})
    loaded = store.load(store.store(story))
    assert loaded.get("extra") == {"nested": [1, 2, {"deep": True}]}


def test_list_of_objects(reg, store):
    story = DataObject(reg, "story", headline="x", sources=[
        DataObject(reg, "source", name="A"),
        DataObject(reg, "source", name="B")])
    loaded = store.load(store.store(story))
    assert [s.get("name") for s in loaded.get("sources")] == ["A", "B"]


def test_query_by_attribute_equality(reg, store):
    for headline, words in [("a", 10), ("b", 20), ("c", 10)]:
        store.store(DataObject(reg, "story", headline=headline, words=words))
    tens = store.query("story", words=10)
    assert sorted(s.get("headline") for s in tens) == ["a", "c"]


def test_query_with_predicates(reg, store):
    for headline, words in [("alpha", 10), ("beta", 20), ("gamma", 30)]:
        store.store(DataObject(reg, "story", headline=headline, words=words))
    big = store.query("story", predicate=Gt("words", 15))
    assert sorted(s.get("headline") for s in big) == ["beta", "gamma"]
    either = store.query("story", predicate=Or(Eq("headline", "alpha"),
                                               Contains("headline", "mm")))
    assert sorted(s.get("headline") for s in either) == ["alpha", "gamma"]


def test_query_returns_subtype_instances(reg, store):
    """'This conversion respects the type hierarchy, enabling queries to
    return all objects ... including objects that are instances of a
    subtype.'"""
    store.store(DataObject(reg, "story", headline="plain"))
    store.store(DataObject(reg, "reuters_story", headline="wired",
                           ric="GM.N"))
    all_stories = store.query("story")
    assert sorted(s.get("headline") for s in all_stories) == \
        ["plain", "wired"]
    types = {s.type_name for s in all_stories}
    assert types == {"story", "reuters_story"}
    # subtype-only query still works, and exact-type query excludes
    assert len(store.query("reuters_story")) == 1
    assert len(store.query("story", include_subtypes=False)) == 1


def test_old_queries_work_as_new_subtypes_appear(reg, store):
    """Section 5.2: dynamic schema generation for new types."""
    store.store(DataObject(reg, "story", headline="old"))
    assert store.count("story") == 1
    # a brand-new subtype arrives (e.g. defined in TDL at run time)
    reg.register(TypeDescriptor(
        "ap_story", supertype="story",
        attributes=[AttributeSpec("wire_id", "string", required=False)]))
    store.store(DataObject(reg, "ap_story", headline="new", wire_id="7"))
    assert main_table_name("ap_story") in store.db.tables()
    assert store.count("story") == 2
    assert sorted(s.get("headline") for s in store.query("story")) == \
        ["new", "old"]


def test_query_by_object_reference(reg, store):
    src = DataObject(reg, "source", name="Reuters")
    store.store(DataObject(reg, "story", headline="a", source=src))
    store.store(DataObject(reg, "story", headline="b"))
    hits = store.query("story", source=src)
    assert [s.get("headline") for s in hits] == ["a"]


def test_query_unqueryable_attribute_rejected(reg, store):
    store.store(full_story(reg))
    with pytest.raises(StoreError):
        store.query("story", industry_groups=["semis"])   # child table attr


def test_load_missing_oid(reg, store):
    with pytest.raises(StoreError):
        store.load("story:does-not-exist")
    assert not store.exists("story:does-not-exist")


def test_delete(reg, store):
    story = full_story(reg)
    oid = store.store(story)
    assert store.delete(oid) is True
    assert not store.exists(oid)
    assert store.db.table("obj_story__industry_groups").count() == 0
    assert store.delete(oid) is False
    # the shared nested source survives
    assert store.count("source") == 1


def test_count(reg, store):
    assert store.count("story") == 0
    store.store(DataObject(reg, "story", headline="1"))
    store.store(DataObject(reg, "reuters_story", headline="2"))
    assert store.count("story") == 2
    assert store.count("story", include_subtypes=False) == 1


def test_store_non_object_rejected(reg, store):
    with pytest.raises(StoreError):
        store.store({"not": "an object"})


def test_unknown_type_query_rejected(reg, store):
    with pytest.raises(Exception):
        store.query("ghost_type")


def test_query_order_by_and_limit(reg, store):
    for headline, words in [("c", 30), ("a", 10), ("b", 20), ("d", None)]:
        attrs = {"headline": headline}
        if words is not None:
            attrs["words"] = words
        store.store(DataObject(reg, "story", attributes=attrs))
    ordered = store.query("story", order_by="words")
    assert [s.get("headline") for s in ordered] == ["a", "b", "c", "d"]
    reverse = store.query("story", order_by="words", descending=True)
    assert [s.get("headline") for s in reverse][:3] == ["c", "b", "a"]
    top2 = store.query("story", order_by="words", limit=2)
    assert [s.get("headline") for s in top2] == ["a", "b"]
    assert store.query("story", limit=0) == []


def test_query_order_by_spans_subtypes(reg, store):
    store.store(DataObject(reg, "story", headline="plain", words=20))
    store.store(DataObject(reg, "reuters_story", headline="wired",
                           words=10, ric="X"))
    ordered = store.query("story", order_by="words")
    assert [s.get("headline") for s in ordered] == ["wired", "plain"]


def test_order_by_unqueryable_attribute_rejected(reg, store):
    store.store(full_story(reg))
    with pytest.raises(StoreError):
        store.query("story", order_by="industry_groups")
