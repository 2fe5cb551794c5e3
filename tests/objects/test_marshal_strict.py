"""The strict-decode contract: whatever the bytes, ``decode`` returns a
value or raises from the ``TypeError_`` family — malformed input is
always a ``MarshalError`` — so a callback that catches the family can
never be killed by a peer (docs/OBJECTS.md, "Strict decode")."""

import pytest

from repro.objects import (AttributeSpec, DataObject, MarshalError,
                           TypeDescriptor, TypeError_, decode, encode,
                           encoded_size, standard_registry)
from repro.objects import marshal

MAGIC = b"IB\x01"


@pytest.fixture
def reg():
    return standard_registry()


def test_nesting_bomb_is_a_marshal_error_not_a_recursion_error(reg):
    bomb = MAGIC + b"l\x01" * 5000 + b"N"
    with pytest.raises(MarshalError, match="nested deeper"):
        decode(bomb, reg)
    maps = MAGIC + b"m\x01\x01k" * 5000 + b"N"
    with pytest.raises(MarshalError, match="nested deeper"):
        decode(maps, reg)


def test_depth_bound_is_exact_and_shared_with_the_encoder(reg):
    def nest(levels):
        value = None
        for _ in range(levels):
            value = [value]
        return value

    deepest = nest(marshal._MAX_DEPTH)
    wire = encode(deepest)
    assert decode(wire, reg) == deepest
    assert encoded_size(deepest) == len(wire)
    # one level more: the decoder refuses the bytes, and the encoder
    # refuses to produce them
    too_deep = MAGIC + b"l\x01" * (marshal._MAX_DEPTH + 1) + b"N"
    with pytest.raises(MarshalError):
        decode(too_deep, reg)
    with pytest.raises(MarshalError, match="deeper"):
        encode(nest(marshal._MAX_DEPTH + 1))
    with pytest.raises(MarshalError):
        encoded_size(nest(marshal._MAX_DEPTH + 1))


def test_self_containing_list_is_a_marshal_error():
    loop = []
    loop.append(loop)
    with pytest.raises(MarshalError):
        encode(loop)


def test_objects_count_toward_the_depth_bound(reg):
    reg.register(TypeDescriptor("node", attributes=[
        AttributeSpec("next", "node", required=False)]))
    chain = DataObject(reg, "node")
    for _ in range(marshal._MAX_DEPTH - 1):
        chain = DataObject(reg, "node", next=chain)
    assert decode(encode(chain), reg) == chain
    with pytest.raises(MarshalError):
        encode(DataObject(reg, "node", next=chain))


@pytest.mark.parametrize("payload", [
    MAGIC + b"s\x02\xff\xfe",                       # value
    MAGIC + b"m\x01\x02\xc3\x28N",                  # map key
    MAGIC + b"o\x02\xff\xfe",                       # object type name
    MAGIC + b"l\x01s\x01\x80",                      # inside a container
], ids=["value", "map-key", "type-name", "nested"])
def test_invalid_utf8_is_a_marshal_error(reg, payload):
    with pytest.raises(MarshalError, match="UTF-8"):
        decode(payload, reg)


@pytest.mark.parametrize("description", [
    None, 7, "story", [], {}, {"name": 3}, {"name": "t", "attributes": 5},
    {"name": "t", "attributes": [{"name": "a"}]},
    {"name": "t", "operations": [{"name": "op", "params": [None]}]},
    {"name": "t", "supertype": ["object"]},     # found by the payload fuzz
    {"name": "t", "supertype": "object", "doc": b"not json"},
    {"name": "t", "supertype": "object",
     "attributes": [{"name": "a", "type": "int", "doc": [b"x"]}]},
], ids=repr)
def test_malformed_inline_description_stays_in_the_family(reg, description):
    payload = bytearray(encode(description))
    payload[3:3] = b"M\x01"
    payload += b"N"
    for _ in range(2):      # the second pass would compare fingerprints
        with pytest.raises(TypeError_):
            decode(bytes(payload), reg)
    assert not reg.has("t")


def test_inline_metadata_without_a_registry_is_a_marshal_error():
    with pytest.raises(MarshalError):
        decode(MAGIC + b"M\x00N", None)


def test_absurd_counts_and_lengths_are_truncation_errors(reg):
    huge = b"\xff\xff\xff\xff\xff\xff\xff\xff\x7f"
    for tag in (b"l", b"m", b"s", b"b"):
        with pytest.raises(MarshalError):
            decode(MAGIC + tag + huge, reg)
    with pytest.raises(MarshalError, match="varint too long"):
        decode(MAGIC + b"l" + b"\xff" * 11, reg)


@pytest.mark.parametrize("wrap", [bytearray, memoryview],
                         ids=["bytearray", "memoryview"])
def test_decode_accepts_any_bytes_like(reg, wrap):
    value = {"k": [1, "two", b"\x03", None, 4.5]}
    assert decode(wrap(encode(value)), reg) == value
    with pytest.raises(MarshalError):
        decode(wrap(b"XX\x01N"), reg)
