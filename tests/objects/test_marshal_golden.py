"""Golden bytes for the three marshal entry points.

``golden_marshal.json`` holds the exact hex that ``encode``,
``encode(..., inline_types=True)`` and ``encode_typed`` produced for the
values below *before* the marshaller was given per-type plans and byte
fast paths (PR 13); the typed encodings share one session
:class:`TypeTable`, so the file also pins dense-id assignment order,
``type_refs`` and the typedef blobs.  Any drift is a wire-format break.

Regenerate (only for a deliberate, versioned format change)::

    PYTHONPATH=src python tests/objects/test_marshal_golden.py

or ``make goldens``, which runs it (and the golden run's) under two
hash seeds and fails if the second run changes a file.
"""

import json
import os

import pytest

from repro.core import PeerTypeView, TypeTable
from repro.objects import (AttributeSpec, DataObject, OperationSpec,
                           ParamSpec, TypeDescriptor, decode, encode,
                           encode_typed, encoded_size, standard_registry)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_marshal.json")

_WORDS = ("bus", "subject", "publish", "daemon", "market", "equity", "wafer",
          "lot", "quote", "story", "ledger", "router", "adapter", "object")


def golden_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor("story_source", attributes=[
        AttributeSpec("name", "string"), AttributeSpec("desk", "string")]))
    reg.register(TypeDescriptor("wire_source", supertype="story_source",
                                attributes=[AttributeSpec("feed", "int")]))
    reg.register(TypeDescriptor("story", attributes=[
        AttributeSpec("pub", "int"), AttributeSpec("n", "int"),
        AttributeSpec("chk", "int"), AttributeSpec("headline", "string"),
        AttributeSpec("body", "string"),
        AttributeSpec("tags", "list<string>"),
        AttributeSpec("src", "story_source")]))
    reg.register(TypeDescriptor("grid", attributes=[
        AttributeSpec("cells", "list<list<int>>"),
        AttributeSpec("labels", "map<string>"),
        AttributeSpec("extra", "any", required=False),
        AttributeSpec("blob", "bytes", required=False),
        AttributeSpec("ratio", "float", required=False),
        AttributeSpec("live", "bool", required=False)]))
    # reachable only through an operation signature: the closure must
    # still carry it
    reg.register(TypeDescriptor("receipt", attributes=[
        AttributeSpec("ok", "bool")]))
    reg.register(TypeDescriptor("desk", attributes=[
        AttributeSpec("stories", "list<story>", required=False),
        AttributeSpec("by_symbol", "map<grid>", required=False)],
        operations=[OperationSpec(
            "file", params=(ParamSpec("item", "story"),),
            result_type="receipt")]))
    return reg


def golden_values(reg):
    """name -> value, in the order the shared type table sees them."""
    text = " ".join(_WORDS[(i * 7) % len(_WORDS)] for i in range(330))
    source = DataObject(reg, "story_source", oid="story_source:00000001",
                        name="wire0", desk="equities")
    wire = DataObject(reg, "wire_source", oid="wire_source:00000002",
                      name="wire1", desk="fx", feed=7)

    def story(n, src, body=1700):
        return DataObject(
            reg, "story", oid=f"story:{n:08d}", pub=1, n=n, chk=2**47 + n,
            headline=text[:60], body=text[:body].ljust(body, "."),
            tags=["gmc", "equity", "é"], src=src)

    grid = DataObject(
        reg, "grid", oid="grid:00000003", cells=[[1, 2], [], [-3]],
        labels={"a": "x", "": "empty key"}, extra=None, blob=b"\x00\xff",
        ratio=-0.5, live=True)
    bare_grid = DataObject(reg, "grid", oid="grid:00000004", cells=[],
                           labels={})
    return {
        "story": story(1, source),
        "subtype_in_supertype_attribute": story(2, wire),
        "nested_containers": grid,
        "optional_unset_empty_containers": bare_grid,
        "int_edges": [-(2**63), 2**63 - 1, 0, -1, 127, 128],
        "untyped_empties": {"l": [], "m": {}, "s": "", "b": b"", "n": None,
                            "t": True, "f": False, "d": 1e300},
        "mixed_objects": [grid, {"k": story(3, source, body=40)}, [wire, None]],
        "operation_signature_closure": DataObject(
            reg, "desk", oid="desk:00000005", stories=[story(4, wire, body=0)],
            by_symbol={"gmc": bare_grid}),
    }


def encodings():
    reg = golden_registry()
    table = TypeTable()
    out = {}
    for name, value in golden_values(reg).items():
        payload, refs = encode_typed(value, reg, table)
        out[name] = {
            "plain": encode(value).hex(),
            "inline": encode(value, reg, inline_types=True).hex(),
            "typed": payload.hex(),
            "refs": list(refs),
        }
    out["typedefs"] = [table.blob(tid).hex() for tid in range(len(table))]
    return out


GOLDEN = {}
if os.path.exists(GOLDEN_PATH):     # absent only while regenerating
    with open(GOLDEN_PATH) as handle:
        GOLDEN = json.load(handle)


@pytest.fixture(scope="module")
def current():
    return encodings()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bytes_match_golden(current, name):
    assert current[name] == GOLDEN[name], (
        f"{name} bytes moved: a wire-format break; if deliberate and "
        f"versioned, regenerate with `make goldens`")


def test_golden_covers_every_value(current):
    assert sorted(current) == sorted(GOLDEN)


def test_encoded_size_matches_and_golden_bytes_decode():
    reg = golden_registry()
    for name, value in golden_values(reg).items():
        assert encoded_size(value) == len(GOLDEN[name]["plain"]) // 2
        assert encoded_size(value, reg, inline_types=True) == \
            len(GOLDEN[name]["inline"]) // 2
        # a schema-naive receiver decodes the committed inline bytes
        assert decode(bytes.fromhex(GOLDEN[name]["inline"]),
                      standard_registry()) == value
        assert decode(bytes.fromhex(GOLDEN[name]["plain"]), reg) == value


def test_typed_golden_bytes_decode_through_learned_typedefs():
    """Committed typed payloads + committed typedef blobs are enough for
    a receiver that has never seen the types (what the wire delivers)."""
    view = PeerTypeView({tid: bytes.fromhex(blob)
                         for tid, blob in enumerate(GOLDEN["typedefs"])})
    reg = golden_registry()
    fresh = standard_registry()
    for name, value in golden_values(reg).items():
        assert decode(bytes.fromhex(GOLDEN[name]["typed"]), fresh,
                      type_resolver=view) == value


# string lengths on both sides of the one- and two-byte varint edges; the
# expected bytes are spelled out rather than stored (64 KB of "61")
_LENGTH_PREFIXES = {0: "00", 127: "7f", 128: "8001", 16383: "ff7f",
                    16384: "808001"}


class _Text(str):
    """A ``str`` subclass: ``encode`` writes it through the general path,
    not the top-level ``str`` fast path."""


def _check_string_golden(text, expected):
    # the fast path, and the general path a subclass takes, write the
    # same bytes
    assert encode(text).hex() == expected
    assert encode(_Text(text)).hex() == expected
    reg = standard_registry()
    # no objects: no metadata block content, no type refs, same bytes
    inline = "494201" "4d00" + expected[6:]
    assert encode(text, reg, inline_types=True).hex() == inline
    assert encode_typed(text, reg, TypeTable()) == \
        (bytes.fromhex(expected), ())
    assert encoded_size(text) == len(expected) // 2
    assert decode(bytes.fromhex(expected), reg) == text
    assert decode(bytes.fromhex(inline), reg) == text


@pytest.mark.parametrize("length", sorted(_LENGTH_PREFIXES))
def test_string_length_prefix_golden(length):
    _check_string_golden(
        "a" * length,
        "494201" "73" + _LENGTH_PREFIXES[length] + "61" * length)


def test_non_ascii_string_golden():
    # the prefix counts UTF-8 bytes, not characters: 64 two-byte
    # characters need the two-byte varint
    _check_string_golden("é€😀", "494201" "73" "09" "c3a9" "e282ac" "f09f9880")
    _check_string_golden("é" * 64, "494201" "73" "8001" + "c3a9" * 64)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(encodings(), handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
