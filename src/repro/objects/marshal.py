"""Metadata-driven marshalling: objects to bytes and back.

Data objects "can be easily copied, marshalled, and transmitted" (Section
3); crucially, the wire format can carry the *type metadata itself* inline
(``inline_types=True``), so a receiver that has never seen a type can
decode the object, register the type dynamically, and operate on it through
the meta-object protocol — the mechanism behind the paper's dynamic system
evolution scenarios (Section 5.2).

The format is a compact tagged binary encoding:

=====  =============================================================
tag    meaning
=====  =============================================================
``N``  None
``T``  / ``F``  booleans
``i``  64-bit signed integer
``d``  64-bit float
``s``  UTF-8 string (varint length prefix)
``b``  raw bytes (varint length prefix)
``l``  list (varint count, then items)
``m``  map (varint count, then string-key/value pairs)
``o``  object: type name, oid, set-attribute count, name/value pairs
``O``  object by session type id: varint id into the publisher's
       :class:`~repro.core.typeplane.TypeTable`, oid, set-attribute
       count, name/value pairs (:func:`encode_typed`)
``M``  metadata block: varint count of inline type descriptions,
       each encoded with the generic value encoder, then the value
=====  =============================================================

``M``-block payloads (``inline_types=True``) are *self-contained*:
anyone holding the bytes can decode them.  ``O``-tag payloads
(:func:`encode_typed`) instead reference the publishing session's type
table and need a ``type_resolver`` at decode time — the definitions
ride once per session on the wire frames themselves (see
``docs/PROTOCOLS.md``, "The session type plane").

Decoding is strict: for *any* byte string :func:`decode` either returns
a value or raises a :class:`~repro.objects.types.TypeError_` (malformed
bytes are always the :class:`MarshalError` branch of that family) —
containers nested deeper than :data:`_MAX_DEPTH` and strings that are
not valid UTF-8 included.  The encoder refuses the same nesting, so it
cannot produce bytes its own decoder rejects.  An object's attributes
are read through a reader compiled once per (registry, type) from the
rules the validator checks values with: a value whose wire tags are
among its declared type's rule's ``tags`` (``s`` for ``string``, ``l``
of proven items for ``list<T>``, an object of the type or a subtype,
...) skips the rule's check, and only an object whose every value was
proven, with no name repeated and every required attribute present, is
built without ``DataObject``'s checks.  Every other object takes the
ordinary constructor, so validation is skipped only where the tags
already did its work.
"""

from __future__ import annotations

import struct
from io import BytesIO
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .data_object import DataObject, _plan_for, _prevalidated, _Rule
from .registry import TypeRegistry
from .types import FUNDAMENTAL_TYPES, TypeDescriptor, TypeError_, parse_type_name

__all__ = ["encode", "encode_typed", "decode", "encoded_size",
           "MarshalError", "UnknownTypeError", "type_closure"]

#: What every encoding starts with: the format and its version.  The bus
#: wire codec leaves it out of envelope bodies and puts it back on read.
MAGIC = b"IB\x01"

#: Containers (list, map, object) may nest at most this deep, on both
#: the encode and the decode side.  A constant of the format, not a knob:
#: it bounds the decoder's recursion on hostile input.
_MAX_DEPTH = 64

#: Dependency closures and accepted session descriptors memoised per
#: registry; each memo is cleared when full.
_MEMO_LIMIT = 1024

_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")


class MarshalError(TypeError_):
    """Malformed wire data or unencodable value."""


class UnknownTypeError(MarshalError):
    """Decoded an object of a type this process does not know.

    Publish with ``inline_types=True`` (the default for bus messages) to
    let receivers learn types dynamically.
    """


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------

#: the 128 one-byte varints (every attribute count, most string lengths)
_VARINT1 = tuple(bytes([n]) for n in range(0x80))


def _varint(value: int) -> bytes:
    if 0 <= value < 0x80:
        return _VARINT1[value]
    if value < 0:
        raise MarshalError(f"varint must be non-negative: {value}")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    if pos < len(data) and data[pos] < 0x80:
        return data[pos], pos + 1
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise MarshalError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise MarshalError("varint too long")


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

def _str(text: str) -> bytes:
    """Length-prefixed UTF-8."""
    raw = text.encode("utf-8")
    return _varint(len(raw)) + raw


def _encode_value(write: Callable[[bytes], Any], value: Any,
                  type_ids: Optional[Dict[str, int]], depth: int) -> None:
    if isinstance(value, str):
        write(b"s" + _str(value))
    elif value is None:
        write(b"N")
    elif value is True:
        write(b"T")
    elif value is False:
        write(b"F")
    elif isinstance(value, int):
        try:
            write(b"i" + _INT64.pack(value))
        except struct.error:
            raise MarshalError(f"int {value} does not fit in 64 bits") from None
    elif isinstance(value, float):
        write(b"d" + _FLOAT64.pack(value))
    elif isinstance(value, bytes):
        write(b"b" + _varint(len(value)) + value)
    elif depth >= _MAX_DEPTH:
        raise MarshalError(
            f"value nests containers deeper than {_MAX_DEPTH} levels")
    elif isinstance(value, list):
        write(b"l" + _varint(len(value)))
        for item in value:
            _encode_value(write, item, type_ids, depth + 1)
    elif isinstance(value, dict):
        write(b"m" + _varint(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshalError(f"map keys must be strings: {key!r}")
            write(_str(key))
            _encode_value(write, item, type_ids, depth + 1)
    elif isinstance(value, DataObject):
        attrs = value._attrs
        if type_ids is not None:
            head = b"O" + _varint(type_ids[value._type_name])
        else:
            head = b"o" + _str(value._type_name)
        write(head + _str(value.oid) + _varint(len(attrs)))
        for name, item in attrs.items():
            write(_str(name))
            _encode_value(write, item, type_ids, depth + 1)
    else:
        raise MarshalError(f"cannot marshal value of type {type(value)!r}")


def _base_type(type_name: str) -> Optional[str]:
    """The object type ``list<map<T>>`` bottoms out in, if it is one."""
    outer, inner = parse_type_name(type_name)
    while inner is not None:
        outer, inner = parse_type_name(inner)
    return None if outer in FUNDAMENTAL_TYPES or outer == "void" else outer


def _direct_deps(descriptor: TypeDescriptor) -> List[str]:
    """The object types ``descriptor`` references: supertype, attribute
    types, operation signatures — in declaration order."""
    referenced = [attr.type_name for attr in descriptor.own_attributes()]
    for op in descriptor.own_operations():
        referenced.append(op.result_type)
        referenced.extend(param.type_name for param in op.params)
    deps = [] if descriptor.supertype is None else [descriptor.supertype]
    deps.extend(filter(None, map(_base_type, referenced)))
    return deps


def type_closure(registry: TypeRegistry, type_names: Set[str]) -> List[str]:
    """Every non-fundamental type reachable from ``type_names``.

    Reachability covers supertype chains plus every type referenced by an
    attribute or operation signature — the full set a receiver needs to
    register the types without dangling references.  Returned in
    dependency order (supertypes before subtypes).
    """
    deps: Dict[str, List[str]] = {}
    stack = [n for n in type_names if n not in FUNDAMENTAL_TYPES]
    while stack:
        name = stack.pop()
        if name not in deps:
            deps[name] = _direct_deps(registry.get(name))
            stack.extend(deps[name])
    # dependency order: every type a descriptor references precedes it
    # (a self-reference is already ``seen`` when it comes up)
    ordered: List[str] = []
    seen: Set[str] = set()

    def visit(name: str) -> None:
        if name not in seen:
            seen.add(name)
            for dep in deps[name]:
                visit(dep)
            ordered.append(name)

    for name in sorted(deps):
        visit(name)
    return ordered


def _collect_instance_types(value: Any, acc: Set[str]) -> None:
    if isinstance(value, DataObject):
        acc.add(value._type_name)
        for item in value._attrs.values():
            _collect_instance_types(item, acc)
    elif isinstance(value, list):
        for item in value:
            _collect_instance_types(item, acc)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_instance_types(item, acc)


def _closure(registry: TypeRegistry, value: Any) -> Tuple[TypeDescriptor, ...]:
    """Descriptors of the dependency closure of ``value``'s instance
    types, in :func:`type_closure` order.  Memoised on the registry per
    set of instance types: registries only grow and descriptors never
    change, so a closure computed once stays right."""
    used: Set[str] = set()
    _collect_instance_types(value, used)
    if not used:
        return ()
    key = frozenset(used)
    memo = registry._closures
    closure = memo.get(key)
    if closure is None:
        closure = tuple(registry.get(name)
                        for name in type_closure(registry, used))
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        memo[key] = closure
    return closure


def _encode_payload(write: Callable[[bytes], Any], value: Any,
                    registry: TypeRegistry, inline_types: bool) -> None:
    write(MAGIC)
    if inline_types:
        if registry is None:
            raise MarshalError("inline_types requires a registry")
        closure = _closure(registry, value)
        write(b"M" + _varint(len(closure)))
        for descriptor in closure:
            _encode_value(write, descriptor.describe(), None, 0)
    _encode_value(write, value, None, 0)


def encode(value: Any, registry: TypeRegistry = None,
           inline_types: bool = False) -> bytes:
    """Marshal ``value`` to bytes.

    With ``inline_types=True`` (requires ``registry``), full descriptions
    of every type used by the value are prepended so any receiver can
    decode it (P2: objects are self-describing on the wire).
    """
    if value.__class__ is str and not inline_types:
        # a top-level string in one step, the shape decode reads back in
        # one; the same bytes as the general path below
        return MAGIC + b"s" + _str(value)
    out = BytesIO()
    _encode_payload(out.write, value, registry, inline_types)
    return out.getvalue()


def encode_typed(value: Any, registry: TypeRegistry,
                 type_table) -> Tuple[bytes, Tuple[int, ...]]:
    """Marshal ``value`` against a session :class:`TypeTable`.

    DataObjects are written with the ``O`` tag — a dense varint id
    assigned by ``type_table`` (:class:`repro.core.typeplane.TypeTable`)
    in place of the type-name string — and *no* ``M`` metadata block.
    Returns ``(payload, type_refs)`` where ``type_refs`` is the id of
    every type in the dependency closure of the value's instance types;
    the caller stamps the refs onto the envelope so the wire layer can
    ride the matching typedef definitions in-band (first use on DATA,
    all of them on RETRANS).

    A value with no DataObjects encodes byte-identically to
    ``encode(value)`` and returns empty refs — untyped traffic pays
    nothing for the type plane.
    """
    if registry is None:
        raise MarshalError("encode_typed requires a registry")
    closure = _closure(registry, value)
    type_ids: Optional[Dict[str, int]] = None
    if closure:
        # interned in closure order: that order is the dense-id
        # assignment order and the order of ``type_refs``
        intern = type_table.intern
        type_ids = {descriptor.name: intern(descriptor)
                    for descriptor in closure}
    out = BytesIO()
    out.write(MAGIC)
    _encode_value(out.write, value, type_ids, 0)
    return out.getvalue(), tuple(type_ids.values()) if type_ids else ()


def encoded_size(value: Any, registry: TypeRegistry = None,
                 inline_types: bool = False) -> int:
    """Size in bytes of the encoding (what the bus charges to the wire).

    Runs the encoder against a counting sink, so the answer costs the
    traversal but never builds the byte string.
    """
    count = 0

    def write(data: bytes) -> None:
        nonlocal count
        count += len(data)

    _encode_payload(write, value, registry, inline_types)
    return count


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------

def _read_str(data: bytes, pos: int) -> Tuple[str, int]:
    length, pos = _read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise MarshalError("truncated string")
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError as error:
        raise MarshalError(f"string is not valid UTF-8: {error}") from None


def _register_learned(registry: TypeRegistry, descriptor: TypeDescriptor,
                      resolver, pending: Set[str]) -> None:
    """Register a type learned from the session type plane, dependencies
    first (the typedef region carries descriptions individually, not in
    closure order, so the receiver re-derives the order here)."""
    name = descriptor.name
    if name in pending:
        return   # self/mutually-referential types; registry validates
    pending.add(name)
    for dep in _direct_deps(descriptor):
        if dep == name or registry.has(dep):
            continue
        dep_desc = resolver.named(dep)
        if dep_desc is None:
            raise UnknownTypeError(
                f"type {name!r} references {dep!r}, which this session's "
                f"type table has not defined")
        _register_learned(registry, TypeDescriptor.from_description(dep_desc),
                          resolver, pending)
    registry.register(descriptor)


def _resolve_typed(registry: TypeRegistry, tid: int, resolver) -> str:
    """Map a session type id to a registered type name, learning it (and
    its dependencies) from the resolver on first sight.  The resolver
    hands out one descriptor per id for the session's lifetime, and the
    registry accepts each such descriptor once: the registry is
    append-only, so a descriptor that matched (or taught) it can never
    start to conflict.  A conflicting one is never accepted, so it
    raises the registry's ``TypeError_`` on every message — the same
    failure inline metadata produces."""
    if resolver is None:
        raise UnknownTypeError(
            f"typed payload references session type id {tid} but no "
            f"type_resolver was supplied")
    descriptor = resolver.descriptor(tid)
    if descriptor is None:
        raise UnknownTypeError(
            f"session type id {tid} is not defined in this session's "
            f"type table")
    name = descriptor.name
    if registry is None:
        raise UnknownTypeError(
            f"received object of unknown type {name!r}; "
            f"publish with inline_types=True")
    accepted = registry._accepted
    if descriptor in accepted:
        return name
    if registry.has(name):
        # idempotent when shapes match; conflicting shape raises
        registry.register(descriptor)
    else:
        _register_learned(registry, descriptor, resolver, set())
    if len(accepted) >= _MEMO_LIMIT:
        accepted.clear()
    accepted.add(descriptor)
    return name


class _Reader:
    """How to read the body of one object type, compiled on first decode
    from its instance plan and memoised on the registry (append-only, so
    it never goes stale): each declared name's entry keyed with the tags
    its attribute's rule names."""

    __slots__ = ("plan", "required", "fields")

    def __init__(self, registry: TypeRegistry, type_name: str) -> None:
        self.plan = _plan_for(registry, type_name)
        self.required = frozenset(self.plan.required)
        #: a declared name's entry and a tag that can prove its value, as
        #: an encoder writes them: (name, tag, rule)
        self.fields: Dict[bytes, Tuple[str, int, _Rule]] = {
            _str(name) + bytes([tag]): (name, tag, rule)
            for name, rule in self.plan.rules.items() for tag in rule.tags}


def _read_field(data: bytes, pos: int, registry: TypeRegistry, resolver,
                depth: int, rule: Optional[_Rule]) -> Tuple[Any, int, bool]:
    """One value where ``rule``'s type is declared (``None``: nothing
    is) as ``(value, pos, proven)``, decoded exactly as
    :func:`_decode_value` would; proven means its tags satisfy ``rule``."""
    if pos >= len(data) or rule is None or data[pos] not in rule.tags:
        value, pos = _decode_value(data, pos, registry, resolver, depth)
        return value, pos, False
    items, expected = rule.items, rule.type_name
    if items is None and expected is None:      # a scalar
        value, pos = _decode_value(data, pos, registry, resolver, depth)
        return value, pos, True
    if depth >= _MAX_DEPTH:
        raise MarshalError(
            f"containers nested deeper than {_MAX_DEPTH} levels "
            f"at offset {pos}")
    depth += 1
    if expected is not None:
        value, pos = _read_object(data, pos, registry, resolver, depth)
        # registry.is_subtype, for a type known to be registered
        return value, pos, expected in registry._chains[value._type_name]
    # a list or map: proven when every item is
    is_list = data[pos] == 0x6C
    count, pos = _read_varint(data, pos + 1)
    value = [] if is_list else {}
    proven = True
    for index in range(count):
        if not is_list:
            index, pos = _read_str(data, pos)
        item, pos, ok = _read_field(data, pos, registry, resolver, depth,
                                    items)
        proven = proven and ok
        if is_list:
            value.append(item)
        else:
            value[index] = item
    return value, pos, proven


def _read_object(data: bytes, pos: int, registry: TypeRegistry, resolver,
                 depth: int) -> Tuple[DataObject, int]:
    """The object whose ``O`` or ``o`` head is at ``pos``, its attributes
    read through its type's reader.  When every value was proven, no
    name repeated and every required attribute is present, the object
    is built without re-checking its values; otherwise the ordinary
    constructor decides, so its exceptions and generated oids are
    unchanged."""
    if data[pos] == 0x4F:   # O
        tid, pos = _read_varint(data, pos + 1)
        type_name = _resolve_typed(registry, tid, resolver)
    else:                   # o
        type_name, pos = _read_str(data, pos + 1)
        # fail fast before decoding attributes: a bad frame should
        # not pay for (or allocate) a value tree it cannot use
        if registry is None or not registry.has(type_name):
            raise UnknownTypeError(
                f"received object of unknown type {type_name!r}; "
                f"publish with inline_types=True")
    reader = registry._readers.get(type_name)
    if reader is None:
        reader = registry._readers[type_name] = _Reader(registry, type_name)
    oid, pos = _read_str(data, pos)
    count, pos = _read_varint(data, pos)
    fields = reader.fields
    end = len(data)
    attrs = {}
    proven = True
    for _ in range(count):
        # a declared name and a tag that proves its value, matched as one
        # key wherever it falls in the body (a match is those very bytes,
        # so it is never wrong); anything else is read by name
        stop = pos + 2 + data[pos] if pos < end else pos
        field = fields.get(data[pos:stop])
        if field is None:
            name, pos = _read_str(data, pos)
            attrs[name], pos, ok = _read_field(
                data, pos, registry, resolver, depth,
                reader.plan.rules.get(name))
            proven = proven and ok
            continue
        name, tag, rule = field
        if tag == 0x73:     # s, a one-byte length read in place
            length = data[stop] if stop < end else 0x80
            if length < 0x80 and stop + length < end:
                pos = stop + 1 + length
                try:
                    attrs[name] = str(data[stop + 1:pos], "utf-8")
                except UnicodeDecodeError as error:
                    raise MarshalError(
                        f"string is not valid UTF-8: {error}") from None
            else:
                attrs[name], pos = _read_str(data, stop)
        elif tag == 0x69:   # i, read in place
            if stop + 8 > end:
                raise MarshalError("truncated int")
            attrs[name] = _INT64.unpack_from(data, stop)[0]
            pos = stop + 8
        else:
            attrs[name], pos, ok = _read_field(data, stop - 1, registry,
                                               resolver, depth, rule)
            proven = proven and ok
    if proven and len(attrs) == count and reader.required <= attrs.keys():
        return _prevalidated(registry, reader.plan, type_name, attrs,
                             oid), pos
    return DataObject(registry, type_name, attrs, oid=oid), pos


def _decode_value(data: bytes, pos: int, registry: TypeRegistry,
                  resolver, depth: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise MarshalError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == 0x73:     # s
        return _read_str(data, pos)
    if tag == 0x69:     # i
        if pos + 8 > len(data):
            raise MarshalError("truncated int")
        return _INT64.unpack_from(data, pos)[0], pos + 8
    if tag == 0x4E:     # N
        return None, pos
    if tag == 0x54:     # T
        return True, pos
    if tag == 0x46:     # F
        return False, pos
    if tag == 0x64:     # d
        if pos + 8 > len(data):
            raise MarshalError("truncated float")
        return _FLOAT64.unpack_from(data, pos)[0], pos + 8
    if tag == 0x62:     # b
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise MarshalError("truncated bytes")
        return data[pos:pos + length], pos + length
    if depth >= _MAX_DEPTH:
        raise MarshalError(
            f"containers nested deeper than {_MAX_DEPTH} levels "
            f"at offset {pos - 1}")
    depth += 1
    if tag == 0x6C:     # l
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, registry, resolver, depth)
            items.append(item)
        return items, pos
    if tag == 0x6D:     # m
        count, pos = _read_varint(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _read_str(data, pos)
            mapping[key], pos = _decode_value(data, pos, registry, resolver,
                                              depth)
        return mapping, pos
    if tag == 0x4F or tag == 0x6F:      # O, o
        return _read_object(data, pos - 1, registry, resolver, depth)
    raise MarshalError(f"unknown tag {chr(tag)!r} at offset {pos - 1}")


def decode(data: bytes, registry: TypeRegistry, type_resolver=None) -> Any:
    """Unmarshal bytes produced by :func:`encode` or :func:`encode_typed`.

    Inline type metadata, if present, is registered into ``registry``
    before the value is decoded (idempotently — identical re-registration
    is a no-op).  ``O``-tagged objects resolve their session type ids
    through ``type_resolver`` (``descriptor(tid)`` / ``named(name)``,
    see :mod:`repro.core.typeplane`), registering learned types the same
    way; without a resolver they raise :class:`UnknownTypeError`.

    Whatever the bytes, the only exceptions are :class:`MarshalError`
    (malformed input) and the other ``TypeError_`` subclasses the
    descriptor, registry and validator raise for well-formed bytes this
    process must refuse.
    """
    if not isinstance(data, bytes):
        data = bytes(data)      # one copy; indexing bytes beats a view
    if not data.startswith(MAGIC):
        raise MarshalError("bad magic: not an Information Bus encoding")
    end = len(data)
    if end > 4 and data[3] == 0x73 and data[4] < 0x80 and data[4] + 5 == end:
        # a top-level string whose one-byte length ends the payload, in
        # one step; any other shape, or a malformed one, takes the
        # general path below and raises what it always did
        try:
            return str(data[5:], "utf-8")
        except UnicodeDecodeError as error:
            raise MarshalError(
                f"string is not valid UTF-8: {error}") from None
    pos = 3
    if data[3:4] == b"M":
        if registry is None:
            raise MarshalError("inline type metadata needs a registry")
        count, pos = _read_varint(data, 4)
        for _ in range(count):
            desc, pos = _decode_value(data, pos, registry, None, 0)
            registry.register(TypeDescriptor.from_description(desc))
    value, pos = _decode_value(data, pos, registry, type_resolver, 0)
    if pos != end:
        raise MarshalError(f"{end - pos} trailing bytes after value")
    return value
