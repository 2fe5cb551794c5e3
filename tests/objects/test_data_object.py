"""Tests for DataObject validation and the meta-object protocol."""

import pytest

from repro.objects import (AttributeSpec, DataObject, OperationSpec,
                           TypeDescriptor, ValidationError, check_value,
                           standard_registry)
from repro.objects.properties import make_property


@pytest.fixture
def reg():
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "source", attributes=[AttributeSpec("name", "string")]))
    registry.register(TypeDescriptor(
        "story",
        attributes=[
            AttributeSpec("headline", "string"),
            AttributeSpec("body", "string", required=False),
            AttributeSpec("words", "int", required=False),
            AttributeSpec("hot", "bool", required=False),
            AttributeSpec("score", "float", required=False),
            AttributeSpec("codes", "list<string>", required=False),
            AttributeSpec("meta", "map<string>", required=False),
            AttributeSpec("source", "source", required=False),
            AttributeSpec("anything", "any", required=False),
        ],
        operations=[OperationSpec("summarize", result_type="string")]))
    registry.register(TypeDescriptor(
        "reuters_story", supertype="story",
        attributes=[AttributeSpec("ric", "string", required=False)]))
    return registry


def test_construct_and_access(reg):
    story = DataObject(reg, "story", headline="IC fab yields up",
                       words=420, hot=True)
    assert story.type_name == "story"
    assert story.get("headline") == "IC fab yields up"
    assert story.get("body") is None
    assert story.get("body", "dflt") == "dflt"
    assert story.has("words") and not story.has("body")


def test_missing_required_attribute(reg):
    with pytest.raises(ValidationError, match="headline"):
        DataObject(reg, "story", words=10)


def test_undeclared_attribute_rejected(reg):
    with pytest.raises(ValidationError, match="no attribute"):
        DataObject(reg, "story", headline="x", bogus=1)


def test_get_undeclared_attribute_raises(reg):
    story = DataObject(reg, "story", headline="x")
    with pytest.raises(ValidationError):
        story.get("bogus")


@pytest.mark.parametrize("attr,bad", [
    ("headline", 7), ("words", "many"), ("words", True), ("hot", 1),
    ("score", "high"), ("codes", "notalist"), ("codes", [1]),
    ("meta", {"k": 5}), ("meta", {1: "v"}), ("source", "acme"),
])
def test_type_checking_rejects(reg, attr, bad):
    attrs = {"headline": "x"}
    attrs[attr] = bad
    with pytest.raises(ValidationError):
        DataObject(reg, "story", attributes=attrs)


def test_float_accepts_int(reg):
    story = DataObject(reg, "story", headline="x", score=3)
    assert story.get("score") == 3


def test_nested_object_attribute(reg):
    src = DataObject(reg, "source", name="Reuters")
    story = DataObject(reg, "story", headline="x", source=src)
    assert story.get("source").get("name") == "Reuters"


def test_subtype_instance_accepted_where_supertype_declared(reg):
    reg.register(TypeDescriptor(
        "wire_source", supertype="source",
        attributes=[AttributeSpec("feed_id", "string", required=False)]))
    src = DataObject(reg, "wire_source", name="DJ", feed_id="dj1")
    story = DataObject(reg, "story", headline="x", source=src)
    assert story.get("source").is_a("source")


def test_set_validates(reg):
    story = DataObject(reg, "story", headline="x")
    story.set("words", 99)
    assert story.get("words") == 99
    with pytest.raises(ValidationError):
        story.set("words", "many")


def test_inherited_attributes_visible_on_subtype(reg):
    story = DataObject(reg, "reuters_story", headline="x", ric="GM.N")
    assert story.attribute_names()[:2] == ["headline", "body"]
    assert "ric" in story.attribute_names()
    assert story.attribute_type("headline") == "string"
    assert story.is_a("story") and story.is_a("object")
    assert not story.is_a("property")


def test_operations_via_mop(reg):
    story = DataObject(reg, "reuters_story", headline="x")
    assert [op.name for op in story.operations()] == ["summarize"]


def test_oid_unique_and_typed(reg):
    a = DataObject(reg, "story", headline="a")
    b = DataObject(reg, "story", headline="b")
    assert a.oid != b.oid
    assert a.oid.startswith("story:")


def test_explicit_oid_preserved(reg):
    a = DataObject(reg, "story", headline="a", oid="story:fixed")
    assert a.oid == "story:fixed"


def test_structural_equality_ignores_oid(reg):
    a = DataObject(reg, "story", headline="same")
    b = DataObject(reg, "story", headline="same")
    c = DataObject(reg, "story", headline="different")
    assert a == b
    assert a != c
    assert a != "not an object"


def test_equal_objects_with_different_oids_hash_alike(reg):
    a = DataObject(reg, "story", headline="same")
    b = DataObject(reg, "story", headline="same")
    assert a.oid != b.oid and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_as_dict_is_a_copy(reg):
    story = DataObject(reg, "story", headline="x")
    d = story.as_dict()
    d["headline"] = "mutated"
    assert story.get("headline") == "x"


def test_any_attribute_accepts_everything(reg):
    for value in [1, "s", [1, 2], {"k": "v"}, None,
                  DataObject(reg, "source", name="n")]:
        DataObject(reg, "story", headline="x", anything=value)


def test_check_value_standalone(reg):
    check_value(reg, "list<list<int>>", [[1], [2, 3]])
    with pytest.raises(ValidationError):
        check_value(reg, "list<list<int>>", [[1], ["x"]])


def test_property_helper(reg):
    story = DataObject(reg, "story", headline="x")
    prop = make_property(reg, "keywords", ["fab", "yield"], ref=story.oid)
    assert prop.is_a("property")
    assert prop.get("value") == ["fab", "yield"]
    assert prop.get("ref") == story.oid


def test_repr_is_stable(reg):
    story = DataObject(reg, "story", headline="x", words=1)
    assert repr(story) == "story(headline='x', words=1)"
