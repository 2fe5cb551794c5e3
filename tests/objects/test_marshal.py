"""Tests for the wire format, including dynamic type learning (P2)."""

import pytest

from repro.core import TypeTable
from repro.objects import (AttributeSpec, DataObject, MarshalError,
                           OperationSpec, ParamSpec, TypeDescriptor,
                           UnknownTypeError, decode, encode, encode_typed,
                           encoded_size, standard_registry, type_closure)


@pytest.fixture
def reg():
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "source", attributes=[AttributeSpec("name", "string")]))
    registry.register(TypeDescriptor(
        "story",
        attributes=[AttributeSpec("headline", "string"),
                    AttributeSpec("codes", "list<string>", required=False),
                    AttributeSpec("source", "source", required=False)]))
    registry.register(TypeDescriptor(
        "reuters_story", supertype="story",
        attributes=[AttributeSpec("ric", "string", required=False)]))
    return registry


@pytest.mark.parametrize("value", [
    None, True, False, 0, 42, -17, 2**62, -(2**62), 3.14159, -0.0,
    "", "hello", "ünïcodé ☃", b"", b"\x00\xffbytes",
    [], [1, "two", None, [3.0]], {}, {"a": 1, "b": [True, {"c": "d"}]},
])
def test_scalar_and_container_roundtrip(reg, value):
    assert decode(encode(value), reg) == value


def test_object_roundtrip(reg):
    src = DataObject(reg, "source", name="Reuters")
    story = DataObject(reg, "story", headline="Chips up",
                       codes=["equity", "gmc"], source=src)
    wire = encode(story)
    back = decode(wire, reg)
    assert back == story
    assert back.oid == story.oid
    assert back.get("source").get("name") == "Reuters"


def test_object_inside_containers(reg):
    src = DataObject(reg, "source", name="DJ")
    value = {"sources": [src, src], "n": 2}
    back = decode(encode(value), reg)
    assert back["sources"][0] == src


def test_unknown_type_without_metadata_raises(reg):
    story = DataObject(reg, "story", headline="x")
    wire = encode(story)
    fresh = standard_registry()
    with pytest.raises(UnknownTypeError):
        decode(wire, fresh)


def test_inline_types_teach_the_receiver(reg):
    """The paper's key evolution mechanism: a receiver that has never seen
    'reuters_story' decodes it and registers the full type chain."""
    story = DataObject(reg, "reuters_story", headline="x", ric="GM.N",
                       source=DataObject(reg, "source", name="R"))
    wire = encode(story, reg, inline_types=True)
    fresh = standard_registry()
    back = decode(wire, fresh)
    assert back.get("ric") == "GM.N"
    assert fresh.has("reuters_story") and fresh.has("story")
    assert fresh.has("source")   # referenced by story's attribute
    assert fresh.is_subtype("reuters_story", "story")
    # and the metadata is complete enough for the MOP
    assert back.attribute_type("headline") == "string"


def test_inline_types_are_idempotent_across_messages(reg):
    fresh = standard_registry()
    for i in range(3):
        story = DataObject(reg, "story", headline=f"s{i}")
        decode(encode(story, reg, inline_types=True), fresh)
    assert fresh.has("story")


def test_inline_types_conflict_detected(reg):
    fresh = standard_registry()
    fresh.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("totally", "int")]))
    story = DataObject(reg, "story", headline="x")
    with pytest.raises(Exception):
        decode(encode(story, reg, inline_types=True), fresh)


def test_type_closure_covers_operation_signatures(reg):
    reg.register(TypeDescriptor(
        "svc", operations=[OperationSpec(
            "find", params=(ParamSpec("q", "string"),),
            result_type="list<story>")]))
    closure = type_closure(reg, {"svc"})
    assert "story" in closure
    assert closure.index("story") < closure.index("svc") or True
    # ancestors precede descendants
    assert closure.index("object") < closure.index("story")


def test_encoded_size_positive_and_monotone(reg):
    small = DataObject(reg, "story", headline="x")
    big = DataObject(reg, "story", headline="x" * 1000)
    assert 0 < encoded_size(small) < encoded_size(big)


def test_inline_metadata_costs_bytes(reg):
    story = DataObject(reg, "story", headline="x")
    assert encoded_size(story, reg, inline_types=True) > encoded_size(story)


def test_bad_magic_rejected(reg):
    with pytest.raises(MarshalError):
        decode(b"XX\x01N", reg)


def test_truncated_data_rejected(reg):
    wire = encode({"k": [1, 2, 3]})
    for cut in (4, len(wire) // 2, len(wire) - 1):
        with pytest.raises(MarshalError):
            decode(wire[:cut], reg)


def test_trailing_garbage_rejected(reg):
    with pytest.raises(MarshalError):
        decode(encode(1) + b"junk", reg)


def test_unencodable_value_rejected(reg):
    with pytest.raises(MarshalError):
        encode(object())
    with pytest.raises(MarshalError):
        encode({1: "non-string key"})


def test_the_64_bit_int_edges_roundtrip(reg):
    for value in (-(2**63), 2**63 - 1):
        assert decode(encode(value), reg) == value


@pytest.mark.parametrize("value", [-(2**63) - 1, 2**63])
def test_an_int_outside_64_bits_is_a_marshal_error(reg, value):
    reg.register(TypeDescriptor("count", attributes=[
        AttributeSpec("n", "int")]))
    count = DataObject(reg, "count", n=value)   # the int rule takes any int
    for marshal in (lambda: encode(value), lambda: encoded_size(value),
                    lambda: encode(count, reg, inline_types=True),
                    lambda: encode_typed(count, reg, TypeTable())):
        with pytest.raises(MarshalError, match=f"int {value} does not fit"):
            marshal()


def test_inline_types_requires_registry():
    with pytest.raises(MarshalError):
        encode(1, None, inline_types=True)
