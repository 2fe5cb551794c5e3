"""Differential decoder fuzz: the per-type object reader vs a generic walk.

:func:`repro.objects.marshal.decode` reads an object's attributes
through a reader compiled per (registry, type), which stores a value its
wire tags prove without running its checker and builds the object
without ``DataObject.__init__``'s checks when every value was proven.
The generic walk it replaced is kept here, verbatim, as the reference:
every object value goes through the ordinary ``DataObject(...)`` call
and a session type is offered to the registry on every message.

Payloads are written byte by byte from drawn type schemas (every
attribute kind, ``any``, containers, nested objects, subtypes) and
drawn object bodies (empty oids, out-of-order, undeclared, repeated and
missing names, well- and ill-typed values, ``O`` and ``o`` heads), then
optionally hit with the byte mutations of
``test_mutated_payloads_only_raise_the_type_error_family``.  For each,
both decoders run against identical fresh registries from the same oid
counter, and must give the same value with the same oids (generated
ones included), or the same exception class and message, and leave the
same registry contents.
"""

import itertools
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PeerTypeView, TypeTable
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           decode, standard_registry)
from repro.objects import data_object
from repro.objects.marshal import (MAGIC, _MAX_DEPTH, MarshalError,
                                   UnknownTypeError, _register_learned,
                                   _str, _varint)

_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")


# ----------------------------------------------------------------------
# the reference: the generic walk, as it was before the per-type reader
# ----------------------------------------------------------------------

def _ref_read_varint(data, pos):
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


def _ref_read_str(data, pos):
    length, pos = _ref_read_varint(data, pos)
    end = pos + length
    if end > len(data):
        raise MarshalError("truncated string")
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError as error:
        raise MarshalError(f"string is not valid UTF-8: {error}") from None


def _ref_resolve_typed(registry, tid, resolver):
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
    if registry.has(name):
        registry.register(descriptor)
    else:
        _register_learned(registry, descriptor, resolver, set())
    return name


def _ref_decode_value(data, pos, registry, resolver, depth):
    if pos >= len(data):
        raise MarshalError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == 0x73:     # s
        return _ref_read_str(data, pos)
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
        length, pos = _ref_read_varint(data, pos)
        if pos + length > len(data):
            raise MarshalError("truncated bytes")
        return data[pos:pos + length], pos + length
    if depth >= _MAX_DEPTH:
        raise MarshalError(
            f"containers nested deeper than {_MAX_DEPTH} levels "
            f"at offset {pos - 1}")
    depth += 1
    if tag == 0x6C:     # l
        count, pos = _ref_read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _ref_decode_value(data, pos, registry, resolver,
                                          depth)
            items.append(item)
        return items, pos
    if tag == 0x6D:     # m
        count, pos = _ref_read_varint(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _ref_read_str(data, pos)
            mapping[key], pos = _ref_decode_value(data, pos, registry,
                                                  resolver, depth)
        return mapping, pos
    if tag == 0x4F:     # O
        tid, pos = _ref_read_varint(data, pos)
        type_name = _ref_resolve_typed(registry, tid, resolver)
    elif tag == 0x6F:   # o
        type_name, pos = _ref_read_str(data, pos)
        if registry is None or not registry.has(type_name):
            raise UnknownTypeError(
                f"received object of unknown type {type_name!r}; "
                f"publish with inline_types=True")
    else:
        raise MarshalError(f"unknown tag {chr(tag)!r} at offset {pos - 1}")
    oid, pos = _ref_read_str(data, pos)
    count, pos = _ref_read_varint(data, pos)
    attrs = {}
    for _ in range(count):
        name, pos = _ref_read_str(data, pos)
        attrs[name], pos = _ref_decode_value(data, pos, registry, resolver,
                                             depth)
    return DataObject(registry, type_name, attrs, oid=oid), pos


def reference_decode(data, registry, type_resolver=None):
    data = bytes(data)
    if not data.startswith(MAGIC):
        raise MarshalError("bad magic: not an Information Bus encoding")
    pos = 3
    if data[3:4] == b"M":
        if registry is None:
            raise MarshalError("inline type metadata needs a registry")
        count, pos = _ref_read_varint(data, 4)
        for _ in range(count):
            desc, pos = _ref_decode_value(data, pos, registry, None, 0)
            registry.register(TypeDescriptor.from_description(desc))
    value, pos = _ref_decode_value(data, pos, registry, type_resolver, 0)
    if pos != len(data):
        raise MarshalError(f"{len(data) - pos} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# comparing outcomes
# ----------------------------------------------------------------------

def snapshot(value):
    """``value`` as plain data: every object's type, oid and attributes
    in order, every scalar with its Python type."""
    if isinstance(value, DataObject):
        return ("object", value.type_name, value.oid,
                [(name, snapshot(item))
                 for name, item in value.as_dict().items()])
    if isinstance(value, list):
        return ("list", [snapshot(item) for item in value])
    if isinstance(value, dict):
        return ("map", [(key, snapshot(item)) for key, item in value.items()])
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, value)


def outcome(decoder, payload, registry, resolver, start):
    """What ``decoder`` makes of ``payload``, generating oids from
    ``start``."""
    data_object._oid_counter = itertools.count(start)
    try:
        result = ("value", snapshot(decoder(payload, registry,
                                            type_resolver=resolver)))
    except Exception as error:      # compared, class and message
        result = ("raised", type(error).__name__, str(error))
    contents = [(d.name, d.fingerprint()) for d in registry]
    return result, contents


# ----------------------------------------------------------------------
# drawn schemas and bodies, written byte by byte
# ----------------------------------------------------------------------
#
# Structure is drawn from one ``Random`` per example, seeded by
# hypothesis, rather than from many small strategies: hypothesis leans
# towards minimal and boundary draws (empty bodies, absent optionals,
# 0.0), and a body the reader builds without a check needs every one of
# its values well-typed at once.

SCALARS = ["int", "float", "bool", "string", "bytes", "any"]
NAMES = ["a", "b", "c", "d", "e"]

#: per fundamental type, values of a neighbouring tag its checker refuses
NEAR_MISSES = {
    "int": [b"T", b"F", b"d" + _FLOAT64.pack(2.0), b"s\x011", b"N"],
    "float": [b"T", b"F", b"s\x011", b"N"],
    "bool": [b"i" + _INT64.pack(1), b"i" + _INT64.pack(0), b"N"],
    "string": [b"b\x02hi", b"i" + _INT64.pack(1), b"N"],
    "bytes": [b"s\x02hi", b"l\x00", b"N"],
}


def draw_type_name(rng, refs):
    """A scalar most of the time; else an object type, or a list or map
    of one or two levels."""
    def leaf():
        return rng.choice(refs) if rng.random() < 0.3 else \
            rng.choice(SCALARS)

    roll = rng.random()
    if roll < 0.55:
        return rng.choice(SCALARS)
    if roll < 0.75:
        return rng.choice(refs)
    inner = leaf() if roll < 0.9 else \
        f"{rng.choice(['list', 'map'])}<{leaf()}>"
    return f"{rng.choice(['list', 'map'])}<{inner}>"


def draw_schema(rng):
    """A sender registry with 1-4 types (each may subtype an earlier one
    and refer to itself and earlier types) and their names, in
    registration order."""
    registry = standard_registry()
    names = []
    for index in range(rng.randint(1, 4)):
        name = f"t{index}"
        supertype = rng.choice(["object"] + names)
        inherited = {a.name for a in registry.all_attributes(supertype)}
        refs = names + [name]
        attributes = []
        for attr in rng.sample(NAMES, rng.randint(1, 4)):
            if attr not in inherited:
                type_name = draw_type_name(rng, refs)
                # an object-typed attribute is optional, so that every
                # type has finite instances
                required = rng.random() < 0.5 and not any(
                    ref in type_name for ref in refs)
                attributes.append(AttributeSpec(attr, type_name, required))
        registry.register(TypeDescriptor(name, supertype=supertype,
                                         attributes=attributes))
        names.append(name)
    return registry, names


def scalar_bytes(rng):
    kind = rng.choice("sidTFNb")
    if kind == "s":
        return b"s" + _str(rng.choice(["", "x", "é", "a longer string"]))
    if kind == "i":
        return b"i" + _INT64.pack(rng.randint(-(2**63), 2**63 - 1))
    if kind == "d":
        return b"d" + _FLOAT64.pack(rng.uniform(-1e9, 1e9))
    if kind == "b":
        return b"b\x03raw"
    return kind.encode()


class Writer:
    """Writes drawn values for a schema: well-typed nineteen times in
    twenty, each value, and otherwise a near miss or anything at all."""

    def __init__(self, rng, registry, names, type_ids):
        self.rng = rng
        self.registry = registry
        self.names = names
        self.type_ids = type_ids

    def value(self, type_name, depth):
        rng = self.rng
        roll = rng.random()
        if roll < 0.03 or depth > 3:
            return self.anything(depth)
        if roll < 0.06 and type_name in NEAR_MISSES:
            return rng.choice(NEAR_MISSES[type_name])
        if type_name.startswith(("list<", "map<")):
            inner = type_name[type_name.index("<") + 1:-1]
            items = [self.value(inner, depth + 1)
                     for _ in range(rng.randint(0, 3))]
            if type_name.startswith("list<"):
                return b"l" + _varint(len(items)) + b"".join(items)
            return b"m" + _varint(len(items)) + b"".join(
                _str(rng.choice(["k", "j", "é"])) + item for item in items)
        if type_name in self.names:
            subtypes = [name for name in self.names
                        if self.registry.is_subtype(name, type_name)]
            if roll < 0.1:      # a near miss: an object of any type
                subtypes = self.names
            return self.object(rng.choice(subtypes), depth + 1)
        if type_name == "int":
            return b"i" + _INT64.pack(rng.randint(-5, 5))
        if type_name == "float":
            return rng.choice([b"d" + _FLOAT64.pack(1.5),
                               b"i" + _INT64.pack(2)])
        if type_name == "bool":
            return rng.choice([b"T", b"F"])
        if type_name == "string":
            if roll < 0.08:     # not UTF-8
                return b"s\x02\xc3("
            return b"s" + _str(rng.choice(["", "x", "é", "x" * 130]))
        if type_name == "bytes":
            return b"b\x02hi"
        return self.anything(depth)         # any

    def anything(self, depth):
        rng = self.rng
        choice = rng.randrange(4) if depth <= 3 else 0
        if choice == 0:
            return scalar_bytes(rng)
        if choice == 1:
            return b"l\x01" + self.anything(depth + 1)
        if choice == 2:
            return b"m\x01" + _str("k") + self.anything(depth + 1)
        return self.object(rng.choice(self.names), depth + 1)

    def object(self, type_name, depth):
        rng = self.rng
        specs = self.registry.all_attributes(type_name)
        # every required name and some optional ones, once each, in
        # declaration order or shuffled; or any names at all, repeats
        # and an undeclared one included
        chosen = [spec.name for spec in specs
                  if spec.required or depth < 3 and rng.random() < 0.7]
        mode = rng.random()
        if mode < 0.15:
            rng.shuffle(chosen)
        elif mode < 0.3 and specs:
            chosen = rng.choices([spec.name for spec in specs] + ["zz"],
                                 k=rng.randint(0, 6))
        if rng.random() < 0.75 and self.type_ids is not None:
            head = b"O" + _varint(self.type_ids[type_name])
        else:
            head = b"o" + _str(type_name if rng.random() < 0.97 else "nope")
        oid = rng.choice(["", "", "x:1", f"{type_name}:7"])
        body = []
        for name in chosen:
            spec = self.registry.attribute(type_name, name)
            body.append(_str(name) + self.value(
                spec.type_name if spec is not None else "any", depth))
        return head + _str(oid) + _varint(len(body)) + b"".join(body)


def mutate(data, payload):
    """The byte mutations of the marshal property tests."""
    mutated = bytearray(payload)
    for _ in range(data.draw(st.integers(1, 4))):
        if not mutated:
            break
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
    return bytes(mutated)


def receivers(sender, names, learned):
    """A fresh receiving registry: bare, or knowing the first
    ``learned`` of the sender's types already (for ``o`` heads)."""
    registry = standard_registry()
    for name in names[:learned]:
        registry.register(sender.get(name))
    return registry


def draw_case(data):
    """A drawn sender schema and object payload, with the receiving
    side's starting knowledge and resolver."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    sender, names = draw_schema(rng)
    table = TypeTable()
    type_ids = {name: table.intern(sender.get(name))
                for name in ["object"] + names}
    writer = Writer(rng, sender, names, type_ids)
    payload = MAGIC + writer.object(rng.choice(names), 0)
    learned = rng.choice([len(names)] * 6 + [len(names) - 1, 0])
    view = PeerTypeView({tid: table.blob(tid) for tid in range(len(table))})
    resolver = rng.choice([table, view] * 5 + [None])
    return payload, sender, names, learned, resolver


def check_both_agree(payload, sender, names, learned, resolver):
    # twice against the same registries: the second pass decodes through
    # warm readers and accepted descriptors
    expected_registry = receivers(sender, names, learned)
    actual_registry = receivers(sender, names, learned)
    start = next(data_object._oid_counter)
    try:
        for _ in range(2):
            expected = outcome(reference_decode, payload, expected_registry,
                               resolver, start)
            actual = outcome(decode, payload, actual_registry, resolver,
                             start)
            assert actual == expected
            start = next(data_object._oid_counter)
    finally:    # no oid handed out here is handed out again
        data_object._oid_counter = itertools.count(start + 1)


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_drawn_payloads_decode_as_the_generic_walk_does(data):
    check_both_agree(*draw_case(data))


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_mutated_payloads_decode_as_the_generic_walk_does(data):
    payload, *rest = draw_case(data)
    check_both_agree(mutate(data, payload), *rest)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_cut_of_a_payload_decodes_as_the_generic_walk_does(data):
    """Each prefix of a drawn payload: a body cut inside any value,
    name or length, a string's last byte included."""
    payload, *rest = draw_case(data)
    for cut in range(len(MAGIC), len(payload)):
        check_both_agree(payload[:cut], *rest)
