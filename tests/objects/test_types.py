"""Tests for type descriptors and the registry (P2/P3)."""

import pytest

from repro.objects import (AttributeSpec, OperationSpec, ParamSpec,
                           TypeDescriptor, TypeError_, TypeRegistry,
                           parse_type_name, standard_registry)


# ----------------------------------------------------------------------
# type-name parsing
# ----------------------------------------------------------------------

def test_parse_plain_name():
    assert parse_type_name("story") == ("story", None)


def test_parse_parameterized():
    assert parse_type_name("list<string>") == ("list", "string")
    assert parse_type_name("map<story>") == ("map", "story")
    assert parse_type_name("list<list<int>>") == ("list", "list<int>")


@pytest.mark.parametrize("bad", ["", "list<", "set<int>", "1abc",
                                 "a b", "list<>"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(TypeError_):
        parse_type_name(bad)


# ----------------------------------------------------------------------
# descriptors
# ----------------------------------------------------------------------

def test_descriptor_describe_roundtrip():
    desc = TypeDescriptor(
        "story",
        attributes=[AttributeSpec("headline", "string", doc="title"),
                    AttributeSpec("codes", "list<string>", required=False)],
        operations=[OperationSpec("summarize",
                                  params=(ParamSpec("width", "int"),),
                                  result_type="string")],
        doc="a news story")
    rebuilt = TypeDescriptor.from_description(desc.describe())
    assert rebuilt.same_shape(desc)
    assert rebuilt.own_attribute("codes").required is False


def test_operation_signature_string():
    op = OperationSpec("lookup", params=(ParamSpec("cat", "string"),),
                       result_type="list<string>")
    assert op.signature() == "lookup(cat: string) -> list<string>"


def test_duplicate_attribute_rejected():
    with pytest.raises(TypeError_):
        TypeDescriptor("t", attributes=[AttributeSpec("a", "int"),
                                        AttributeSpec("a", "string")])


def test_duplicate_operation_rejected():
    with pytest.raises(TypeError_):
        TypeDescriptor("t", operations=[OperationSpec("f"),
                                        OperationSpec("f")])


def test_duplicate_parameter_rejected():
    with pytest.raises(TypeError_):
        OperationSpec("f", params=(ParamSpec("x", "int"),
                                   ParamSpec("x", "int")))


def test_cannot_redefine_fundamental():
    with pytest.raises(TypeError_):
        TypeDescriptor("int")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def test_registry_contains_root_and_property():
    reg = standard_registry()
    assert "object" in reg
    assert "property" in reg
    assert reg.get("property").supertype == "object"


def test_register_and_lookup():
    reg = TypeRegistry()
    reg.register(TypeDescriptor("story",
                                attributes=[AttributeSpec("h", "string")]))
    assert reg.has("story")
    assert reg.get("story").name == "story"
    assert "story" in reg.names()


def test_unknown_type_raises():
    reg = TypeRegistry()
    with pytest.raises(TypeError_):
        reg.get("nope")


def test_unknown_supertype_rejected():
    reg = TypeRegistry()
    with pytest.raises(TypeError_):
        reg.register(TypeDescriptor("t", supertype="ghost"))


def test_unknown_attribute_type_rejected():
    reg = TypeRegistry()
    with pytest.raises(TypeError_):
        reg.register(TypeDescriptor(
            "t", attributes=[AttributeSpec("a", "ghost")]))


def test_self_referential_attribute_allowed():
    reg = TypeRegistry()
    reg.register(TypeDescriptor(
        "node", attributes=[AttributeSpec("next", "node", required=False)]))


def test_parameterized_attribute_type_checked():
    reg = TypeRegistry()
    with pytest.raises(TypeError_):
        reg.register(TypeDescriptor(
            "t", attributes=[AttributeSpec("a", "list<ghost>")]))


def test_idempotent_reregistration():
    reg = TypeRegistry()
    d1 = TypeDescriptor("t", attributes=[AttributeSpec("a", "int")])
    d2 = TypeDescriptor("t", attributes=[AttributeSpec("a", "int")])
    reg.register(d1)
    assert reg.register(d2) is d1   # no-op returns the original


def test_conflicting_reregistration_rejected():
    reg = TypeRegistry()
    reg.register(TypeDescriptor("t", attributes=[AttributeSpec("a", "int")]))
    with pytest.raises(TypeError_):
        reg.register(TypeDescriptor(
            "t", attributes=[AttributeSpec("a", "string")]))


def test_subtype_cannot_redeclare_inherited_attribute():
    reg = TypeRegistry()
    reg.register(TypeDescriptor("base",
                                attributes=[AttributeSpec("a", "int")]))
    with pytest.raises(TypeError_):
        reg.register(TypeDescriptor(
            "derived", supertype="base",
            attributes=[AttributeSpec("a", "int")]))


# ----------------------------------------------------------------------
# hierarchy
# ----------------------------------------------------------------------

@pytest.fixture
def story_hierarchy():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string")],
        operations=[OperationSpec("summarize", result_type="string")]))
    reg.register(TypeDescriptor(
        "reuters_story", supertype="story",
        attributes=[AttributeSpec("ric", "string")]))
    reg.register(TypeDescriptor(
        "dowjones_story", supertype="story",
        attributes=[AttributeSpec("djcode", "string")],
        operations=[OperationSpec("summarize", result_type="string",
                                  doc="override")]))
    return reg


def test_supertype_chain(story_hierarchy):
    assert story_hierarchy.supertype_chain("reuters_story") == \
        ["reuters_story", "story", "object"]


def test_is_subtype(story_hierarchy):
    reg = story_hierarchy
    assert reg.is_subtype("reuters_story", "story")
    assert reg.is_subtype("reuters_story", "object")
    assert reg.is_subtype("story", "story")
    assert not reg.is_subtype("story", "reuters_story")


def test_subtypes_of(story_hierarchy):
    reg = story_hierarchy
    assert reg.subtypes_of("story") == ["dowjones_story", "reuters_story"]
    assert reg.subtypes_of("story", transitive=False) == \
        ["dowjones_story", "reuters_story"]
    assert "story" in reg.subtypes_of("object")


def test_all_attributes_merges_supertypes(story_hierarchy):
    names = [a.name for a in story_hierarchy.all_attributes("reuters_story")]
    assert names == ["headline", "ric"]   # supertype attrs first


def test_operation_override(story_hierarchy):
    ops = story_hierarchy.all_operations("dowjones_story")
    assert len(ops) == 1
    assert ops[0].doc == "override"
    # lookup resolves through the chain
    assert story_hierarchy.operation("reuters_story", "summarize") is not None
    assert story_hierarchy.attribute("reuters_story", "headline") is not None
    assert story_hierarchy.attribute("reuters_story", "ghost") is None
