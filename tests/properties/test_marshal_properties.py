"""Property-based tests: the wire format round-trips everything."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           decode, encode, standard_registry)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(string.ascii_lowercase, max_size=8),
                        children, max_size=5)),
    max_leaves=25)


@given(values)
@settings(max_examples=300, deadline=None)
def test_scalar_and_container_roundtrip(value):
    reg = standard_registry()
    assert decode(encode(value), reg) == value


@given(values)
@settings(max_examples=150, deadline=None)
def test_encoding_is_deterministic(value):
    assert encode(value) == encode(value)


class _Text(str):
    """A ``str`` subclass: ``encode`` writes it through the general path."""


@given(st.text(max_size=300))
@settings(max_examples=200, deadline=None)
def test_top_level_string_fast_path_writes_the_general_paths_bytes(text):
    payload = encode(text)
    assert payload == encode(_Text(text))
    assert decode(payload, standard_registry()) == text


attr_values = st.fixed_dictionaries({}, optional={
    "title": st.text(max_size=30),
    "count": st.integers(-10**9, 10**9),
    "ratio": st.floats(allow_nan=False, allow_infinity=False),
    "flag": st.booleans(),
    "blob": st.binary(max_size=30),
    "tags": st.lists(st.text(max_size=8), max_size=5),
    "attrs": st.dictionaries(st.text(string.ascii_lowercase, min_size=1,
                                     max_size=6),
                             st.text(max_size=8), max_size=4),
    "extra": values,
})


def doc_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor("doc", attributes=[
        AttributeSpec("title", "string", required=False),
        AttributeSpec("count", "int", required=False),
        AttributeSpec("ratio", "float", required=False),
        AttributeSpec("flag", "bool", required=False),
        AttributeSpec("blob", "bytes", required=False),
        AttributeSpec("tags", "list<string>", required=False),
        AttributeSpec("attrs", "map<string>", required=False),
        AttributeSpec("extra", "any", required=False),
    ]))
    return reg


@given(attr_values)
@settings(max_examples=200, deadline=None)
def test_object_roundtrip_preserves_structure_and_oid(attrs):
    reg = doc_registry()
    obj = DataObject(reg, "doc", attrs)
    back = decode(encode(obj), reg)
    assert back == obj
    assert back.oid == obj.oid
    for name, value in attrs.items():
        assert back.get(name) == value


@given(attr_values)
@settings(max_examples=100, deadline=None)
def test_inline_types_roundtrip_to_a_blank_registry(attrs):
    """Any valid object can teach a completely fresh process its type."""
    reg = doc_registry()
    obj = DataObject(reg, "doc", attrs)
    wire = encode(obj, reg, inline_types=True)
    fresh = standard_registry()
    back = decode(wire, fresh)
    assert back == obj
    assert fresh.has("doc")
    assert [a.name for a in fresh.all_attributes("doc")] == \
        [a.name for a in reg.all_attributes("doc")]


@given(values)
@settings(max_examples=150, deadline=None)
def test_truncation_never_decodes_silently(value):
    """Any strict prefix of an encoding must raise, never return junk."""
    import pytest
    reg = standard_registry()
    wire = encode(value)
    for cut in {1, 3, len(wire) // 2, len(wire) - 1} - {len(wire)}:
        if 0 < cut < len(wire):
            with pytest.raises(Exception):
                decode(wire[:cut], reg)


# ----------------------------------------------------------------------
# the session type plane (O-tag encoding)
# ----------------------------------------------------------------------

@given(attr_values)
@settings(max_examples=150, deadline=None)
def test_typed_roundtrip_through_a_type_table(attrs):
    """``encode_typed`` + a resolver must round-trip anything the inline
    path round-trips, teaching a blank registry the same shape."""
    from repro.core import TypeTable
    from repro.objects import encode_typed
    reg = doc_registry()
    obj = DataObject(reg, "doc", attrs)
    table = TypeTable()
    payload, refs = encode_typed(obj, reg, table)
    assert refs                                   # a DataObject has refs
    fresh = standard_registry()
    back = decode(payload, fresh, type_resolver=table)
    assert back == obj
    assert back.oid == obj.oid
    assert fresh.has("doc")
    assert [a.name for a in fresh.all_attributes("doc")] == \
        [a.name for a in reg.all_attributes("doc")]


@given(attr_values, st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_typedef_reregistration_is_idempotent(attrs, repeats):
    """Decoding N payloads of the same session leaves one registered
    descriptor; the table interns one id per shape no matter how often
    the type is used."""
    from repro.core import TypeTable
    from repro.objects import encode_typed
    reg = doc_registry()
    table = TypeTable()
    fresh = standard_registry()
    payloads = [encode_typed(DataObject(reg, "doc", attrs), reg, table)[0]
                for _ in range(repeats)]
    for payload in payloads:
        decode(payload, fresh, type_resolver=table)
    assert fresh.get("doc") is fresh.get("doc")   # single stable object
    assert len(table) == len(set(
        encode_typed(DataObject(reg, "doc", attrs), reg, table)[1]))


@given(values, values)
@settings(max_examples=100, deadline=None)
def test_bare_values_ignore_the_type_table(a, b):
    """Values without DataObjects encode identically with and without a
    table, and intern nothing."""
    from repro.core import TypeTable
    from repro.objects import encode_typed
    reg = doc_registry()
    table = TypeTable()
    for value in (a, b, [a, b], {"x": a}):
        payload, refs = encode_typed(value, reg, table)
        assert refs == ()
        assert payload == encode(value)
    assert len(table) == 0


@given(st.lists(st.sampled_from(["string", "int", "float", "bool"]),
                min_size=1, max_size=4, unique=False),
       st.lists(st.sampled_from(["string", "int", "float", "bool"]),
                min_size=1, max_size=4, unique=False))
@settings(max_examples=100, deadline=None)
def test_fingerprint_equality_is_shape_equality(types_a, types_b):
    """Two descriptors fingerprint equal iff their shapes (names, types,
    order) match — redefinition detection rests on this."""
    def make(type_names):
        return TypeDescriptor("t", attributes=[
            AttributeSpec(f"a{i}", tn, required=False)
            for i, tn in enumerate(type_names)])
    a, b = make(types_a), make(types_b)
    assert (a.fingerprint() == b.fingerprint()) == (types_a == types_b)
    assert a.same_shape(b) == (types_a == types_b)


@given(attr_values)
@settings(max_examples=60, deadline=None)
def test_conflicting_fingerprint_redefinition_raises(attrs):
    """A session whose typedef conflicts with a receiver's registered
    shape is a per-message decode failure, exactly like inline mode."""
    import pytest
    from repro.core import TypeTable
    from repro.objects import TypeError_, encode_typed
    reg = doc_registry()
    table = TypeTable()
    payload, _ = encode_typed(DataObject(reg, "doc", attrs), reg, table)
    conflicted = standard_registry()
    conflicted.register(TypeDescriptor("doc", attributes=[
        AttributeSpec("other", "bytes", required=False)]))
    with pytest.raises(TypeError_):
        decode(payload, conflicted, type_resolver=table)
    # inline mode fails the same way on the same conflict
    wire = encode(DataObject(reg, "doc", attrs), reg, inline_types=True)
    conflicted2 = standard_registry()
    conflicted2.register(TypeDescriptor("doc", attributes=[
        AttributeSpec("other", "bytes", required=False)]))
    with pytest.raises(TypeError_):
        decode(wire, conflicted2)


# ----------------------------------------------------------------------
# nested typed objects through both resolvers, and hostile payloads
# ----------------------------------------------------------------------

def folder_registry():
    """``doc`` plus a subtype and a container type that nests them."""
    reg = doc_registry()
    reg.register(TypeDescriptor("memo", supertype="doc", attributes=[
        AttributeSpec("to", "string", required=False)]))
    reg.register(TypeDescriptor("folder", attributes=[
        AttributeSpec("cover", "doc", required=False),
        AttributeSpec("docs", "list<doc>", required=False),
        AttributeSpec("index", "map<doc>", required=False),
        AttributeSpec("shelves", "list<list<doc>>", required=False),
        AttributeSpec("parent", "folder", required=False),
        AttributeSpec("note", "any", required=False)]))
    return reg


def docs(reg):
    plain = attr_values.map(lambda attrs: DataObject(reg, "doc", attrs))
    memos = st.tuples(attr_values, st.text(max_size=6)).map(
        lambda pair: DataObject(reg, "memo", pair[0], to=pair[1]))
    return st.one_of(plain, memos)       # a memo is a doc wherever one fits


def folders(reg):
    doc = docs(reg)
    leaf = st.fixed_dictionaries({}, optional={
        "cover": doc,
        "docs": st.lists(doc, max_size=3),
        "index": st.dictionaries(
            st.text(string.ascii_lowercase, max_size=4), doc, max_size=3),
        "shelves": st.lists(st.lists(doc, max_size=2), max_size=2),
        "note": st.one_of(values, doc),
    })
    build = lambda attrs: DataObject(reg, "folder", attrs)      # noqa: E731
    return st.recursive(
        leaf.map(build),
        lambda inner: st.tuples(leaf, inner).map(
            lambda pair: build({**pair[0], "parent": pair[1]})),
        max_leaves=3)


_FOLDER_REG = folder_registry()


@given(folders(_FOLDER_REG))
@settings(max_examples=120, deadline=None)
def test_nested_typed_roundtrip_through_table_and_peer_view(folder):
    """Nested objects, ``list<T>``, ``map<T>``, ``list<list<T>>``,
    subtype instances and unset optionals survive ``encode_typed`` →
    ``decode`` whether the resolver is the publisher's own table
    (loop-back) or a view over the typedef blobs a peer learned."""
    from repro.core import PeerTypeView, TypeTable
    from repro.objects import encode_typed, encoded_size
    table = TypeTable()
    payload, refs = encode_typed(folder, _FOLDER_REG, table)
    assert refs == tuple(range(len(table)))       # dense, closure order
    view = PeerTypeView({tid: table.blob(tid) for tid in refs})
    for resolver in (table, view):
        fresh = standard_registry()
        for _ in range(2):      # cold, then with the descriptors cached
            back = decode(payload, fresh, type_resolver=resolver)
            assert back == folder
            assert back.oid == folder.oid
        assert fresh.has("folder")
    # the three encodings agree on the value they carry
    wire = encode(folder, _FOLDER_REG, inline_types=True)
    assert encoded_size(folder, _FOLDER_REG, inline_types=True) == len(wire)
    assert decode(wire, standard_registry()) == folder


@given(folders(_FOLDER_REG), st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_payloads_only_raise_the_type_error_family(folder, data):
    """Flip, splice or truncate a typed or inline payload anywhere: the
    decoder answers with a value or a ``TypeError_`` — never
    ``IndexError``, ``UnicodeDecodeError``, ``RecursionError``,
    ``struct.error`` or ``KeyError``."""
    from repro.core import PeerTypeView, TypeTable
    from repro.objects import TypeError_, encode_typed
    table = TypeTable()
    typed, refs = encode_typed(folder, _FOLDER_REG, table)
    view = PeerTypeView({tid: table.blob(tid) for tid in refs})
    inline = encode(folder, _FOLDER_REG, inline_types=True)
    for payload, resolver in ((typed, view), (typed, table), (inline, None)):
        mutated = bytearray(payload)
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(mutated) - 1))
            action = data.draw(st.sampled_from(
                ["flip", "set", "cut", "insert", "nest"]))
            if action == "flip":
                mutated[at] ^= 1 << data.draw(st.integers(0, 7))
            elif action == "set":
                mutated[at] = data.draw(st.sampled_from(
                    [0x00, 0x7F, 0x80, 0xFF, 0x6C, 0x6D, 0x4F, 0x4D, 0x73]))
            elif action == "cut":
                del mutated[at:]
            elif action == "insert":
                mutated[at:at] = data.draw(st.binary(min_size=1, max_size=6))
            else:
                mutated[at:at] = b"l\x01" * data.draw(st.integers(1, 200))
            if not mutated:
                break
        try:
            decode(bytes(mutated), standard_registry(),
                   type_resolver=resolver)
        except TypeError_:
            pass
