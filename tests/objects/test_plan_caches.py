"""The per-(registry, type) caches are sound.

PR 13 derives supertype chains, merged attribute tables, instance plans,
value checkers, dependency closures and session descriptors once and
reuses them; the decoder adds a reader per object type and the session
descriptors each registry has accepted.  That is only safe because registries are append-only and
descriptors immutable; these tests pin the places where a stale cache
would show: one validation implementation behind three entry points,
types registered *after* a cache was filled, and conflict detection that
must stay per message even though descriptor building no longer is.
"""

import pytest

from repro.core import InformationBus, PeerTypeView, TypeTable
from repro.objects import (AttributeSpec, DataObject, OperationSpec,
                           TypeDescriptor, TypeError_, ValidationError,
                           check_value, data_object, decode, encode,
                           encode_typed, standard_registry, type_closure)
from repro.objects.marshal import MAGIC
from repro.sim import CostModel


# ----------------------------------------------------------------------
# (a) one validator: construction, set() and check_value agree
# ----------------------------------------------------------------------

def probe_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor("base", attributes=[
        AttributeSpec("tag", "string", required=False)]))
    reg.register(TypeDescriptor("derived", supertype="base"))
    reg.register(TypeDescriptor("stranger"))
    return reg


REG = probe_registry()
BASE = DataObject(REG, "base", oid="base:1")
DERIVED = DataObject(REG, "derived", oid="derived:1")
STRANGER = DataObject(REG, "stranger", oid="stranger:1")

#: (attribute type, rejected value, the message ValidationError carries)
REJECTED = [
    ("int", True, "expected int, got True"),            # bool is not int
    ("int", "7", "expected int, got '7'"),
    ("int", 7.0, "expected int, got 7.0"),
    ("int", None, "expected int, got None"),
    ("float", False, "expected float, got False"),
    ("float", "1.5", "expected float, got '1.5'"),
    ("bool", 1, "expected bool, got 1"),
    ("string", b"raw", "expected string, got b'raw'"),
    ("string", 3, "expected string, got 3"),
    ("bytes", "text", "expected bytes, got 'text'"),
    ("list<int>", (1, 2), "expected list, got (1, 2)"),
    ("list<int>", [1, "x"], "expected int, got 'x'"),
    ("list<int>", [True], "expected int, got True"),
    ("list<list<int>>", [[1], ["x"]], "expected int, got 'x'"),
    ("list<list<int>>", [1], "expected list, got 1"),
    ("map<string>", [("k", "v")], "expected map, got [('k', 'v')]"),
    ("map<string>", {1: "v"}, "map keys must be strings, got 1"),
    ("map<string>", {"k": 1}, "expected string, got 1"),
    ("map<list<int>>", {"k": [None]}, "expected int, got None"),
    ("base", "not an object",
     "expected object of type 'base', got 'not an object'"),
    ("base", STRANGER, "expected object of type 'base', got 'stranger'"),
    ("derived", BASE, "expected object of type 'derived', got 'base'"),
    ("list<base>", [DERIVED, STRANGER],
     "expected object of type 'base', got 'stranger'"),
]

ACCEPTED = [
    ("int", 7), ("int", -(2**70)), ("float", 7), ("float", 7.5),
    ("bool", False), ("string", ""), ("bytes", b""),
    ("any", None), ("any", object()), ("any", STRANGER),
    ("list<int>", []), ("list<list<int>>", [[], [1, 2]]),
    ("map<string>", {}), ("map<list<int>>", {"k": [1]}),
    ("base", BASE), ("base", DERIVED),        # subtype instance accepted
    ("list<base>", [BASE, DERIVED]), ("map<base>", {"k": DERIVED}),
]


def holder(type_name):
    """A registry with a type whose one attribute has ``type_name``."""
    reg = probe_registry()
    reg.register(TypeDescriptor("holder", attributes=[
        AttributeSpec("slot", type_name, required=False)]))
    return reg


def rehome(reg, value):
    """``value`` rebuilt against ``reg`` (probe objects carry no state)."""
    if isinstance(value, DataObject):
        return DataObject(reg, value.type_name, oid=value.oid)
    if isinstance(value, list):
        return [rehome(reg, item) for item in value]
    if isinstance(value, dict):
        return {key: rehome(reg, item) for key, item in value.items()}
    return value


@pytest.mark.parametrize("type_name,value,message", REJECTED,
                         ids=[f"{t}<-{m}" for t, _, m in REJECTED])
def test_rejections_are_identical_through_every_entry_point(
        type_name, value, message):
    reg = holder(type_name)
    value = rehome(reg, value)
    seen = []
    with pytest.raises(ValidationError) as direct:
        check_value(reg, type_name, value)
    seen.append(str(direct.value))
    with pytest.raises(ValidationError) as constructed:
        DataObject(reg, "holder", slot=value)
    seen.append(str(constructed.value))
    obj = DataObject(reg, "holder")
    with pytest.raises(ValidationError) as assigned:
        obj.set("slot", value)
    seen.append(str(assigned.value))
    assert not obj.has("slot")              # a rejected set() stores nothing
    assert seen == [message] * 3


@pytest.mark.parametrize("type_name,value", ACCEPTED,
                         ids=[f"{t}<-{v!r}"[:40] for t, v in ACCEPTED])
def test_acceptances_are_identical_through_every_entry_point(type_name, value):
    reg = holder(type_name)
    value = rehome(reg, value)
    check_value(reg, type_name, value)
    assert DataObject(reg, "holder", slot=value).get("slot") is value
    obj = DataObject(reg, "holder")
    obj.set("slot", value)
    assert obj.get("slot") is value


class _Text(str):
    pass


class _Count(int):
    pass


#: one value of every shape the encoder tags, subclasses included
PROBES = [True, False, 0, -1, 1.5, "", b"", None, [], {}, BASE,
          _Text("s"), _Count(3)]
SCALARS = ["int", "float", "bool", "string", "bytes"]


@pytest.mark.parametrize("type_name",
                         SCALARS + ["list<int>", "map<string>", "base", "any"])
def test_the_encoders_tags_and_the_rule_table_agree(type_name):
    """The encoder chooses a value's tag by its own ``isinstance`` chain;
    the validator and the decoder read the tags from the one rule table.
    A scalar type accepts a value exactly when the encoder tags it with
    one of the rule's tags; a container or object type never accepts a
    value tagged otherwise; ``any`` accepts every value."""
    tags = data_object._rule(REG, type_name).tags
    for value in PROBES:
        tagged = encode(value)[len(MAGIC)] in tags
        try:
            check_value(REG, type_name, value)
            accepted = True
        except ValidationError:
            accepted = False
        if type_name == "any":
            assert accepted and not tagged, value
        elif type_name in SCALARS:
            assert accepted == tagged, value
        else:
            assert tagged or not accepted, value


def test_structural_rejections_keep_their_messages():
    reg = probe_registry()
    reg.register(TypeDescriptor("pair", attributes=[
        AttributeSpec("left", "int"), AttributeSpec("right", "int"),
        AttributeSpec("note", "string", required=False)]))
    with pytest.raises(ValidationError,
                       match=r"type 'pair' has no attribute 'middle'"):
        DataObject(reg, "pair", left=1, right=2, middle=3)
    with pytest.raises(
            ValidationError,
            match=r"type 'pair': missing required attributes "
                  r"\['left', 'right'\]"):
        DataObject(reg, "pair", note="x")
    with pytest.raises(ValidationError,
                       match=r"missing required attributes \['right'\]"):
        DataObject(reg, "pair", {"left": 1})
    obj = DataObject(reg, "pair", {"left": 1}, right=2)
    for access in (lambda: obj.get("middle"), lambda: obj.set("middle", 1),
                   lambda: obj.attribute_type("middle")):
        with pytest.raises(ValidationError,
                           match=r"type 'pair' has no attribute 'middle'"):
            access()
    with pytest.raises(TypeError_, match="unknown type: 'nope'"):
        DataObject(reg, "nope")
    with pytest.raises(TypeError_, match="malformed"):
        check_value(reg, "list<", [])
    with pytest.raises(TypeError_, match="malformed"):
        check_value(reg, "list<map<>>", [])     # even for an empty list


def test_the_mop_reads_the_plan_and_hands_out_copies():
    reg = probe_registry()
    obj = DataObject(reg, "derived", tag="t")
    assert obj.descriptor() is reg.get("derived")
    assert obj.attribute_names() == ["tag"]
    assert obj.attribute_specs() == reg.all_attributes("derived")
    # answers are fresh lists: a caller that edits one edits nothing else
    obj.attribute_names().append("junk")
    obj.attribute_specs().clear()
    reg.all_attributes("derived").clear()
    reg.supertype_chain("derived").clear()
    assert obj.attribute_names() == ["tag"]
    assert [a.name for a in obj.attribute_specs()] == ["tag"]
    assert reg.supertype_chain("derived") == ["derived", "base", "object"]
    assert DataObject(reg, "derived", tag="again").get("tag") == "again"


# ----------------------------------------------------------------------
# (b) types registered after a cache was filled
# ----------------------------------------------------------------------

def test_subtype_registered_after_the_parent_was_cached():
    reg = standard_registry()
    reg.register(TypeDescriptor("source", attributes=[
        AttributeSpec("name", "string")]))
    reg.register(TypeDescriptor("story", attributes=[
        AttributeSpec("src", "source"),
        AttributeSpec("all", "list<source>", required=False)]))
    # fill every cache that mentions ``source``: chain, attribute table,
    # plan, the object checker behind ``src``, the closure memo
    plain = DataObject(reg, "source", name="plain")
    first = DataObject(reg, "story", src=plain)
    table = TypeTable()
    encode_typed(first, reg, table)
    assert reg.is_subtype("source", "source")
    assert reg.subtypes_of("source") == []
    assert not reg.has("wire_source")

    reg.register(TypeDescriptor("wire_source", supertype="source",
                                attributes=[AttributeSpec("feed", "int")]))
    assert reg.is_subtype("wire_source", "source")
    assert reg.is_subtype("wire_source", "object")
    assert not reg.is_subtype("source", "wire_source")
    assert reg.subtypes_of("source") == ["wire_source"]
    assert "wire_source" in reg.subtypes_of("object")
    # inherited attributes: validated, required, listed inherited-first
    wire = DataObject(reg, "wire_source", name="w", feed=3)
    assert wire.attribute_names() == ["name", "feed"]
    with pytest.raises(ValidationError, match=r"\['name'\]"):
        DataObject(reg, "wire_source", feed=3)
    # the parent-typed attribute's cached checker accepts the newcomer
    late = DataObject(reg, "story", src=wire, all=[plain, wire])
    first.set("src", wire)
    # and a closure for the new set of instance types is computed fresh
    payload, refs = encode_typed(late, reg, table)
    assert [table.description(t)["name"] for t in refs] == \
        ["object", "source", "story", "wire_source"]
    fresh = standard_registry()
    assert decode(payload, fresh, type_resolver=table) == late
    assert fresh.is_subtype("wire_source", "source")


def test_closure_memo_matches_type_closure_and_intern_order():
    reg = standard_registry()
    reg.register(TypeDescriptor("receipt"))
    reg.register(TypeDescriptor("leaf", attributes=[
        AttributeSpec("peer", "leaf", required=False)]))     # self-reference
    reg.register(TypeDescriptor("branch", supertype="leaf", attributes=[
        AttributeSpec("kids", "map<list<leaf>>", required=False)],
        operations=[OperationSpec("prune", result_type="receipt")]))
    value = [DataObject(reg, "branch"), DataObject(reg, "leaf")]
    expected = type_closure(reg, {"branch", "leaf"})
    assert expected == ["object", "leaf", "receipt", "branch"]
    for _ in range(3):              # first call fills the memo, rest hit it
        table = TypeTable()
        _, refs = encode_typed(value, reg, table)
        assert refs == (0, 1, 2, 3)
        assert [table.description(t)["name"] for t in refs] == expected
    # unknown types are never memoised as a closure
    with pytest.raises(TypeError_):
        type_closure(reg, {"nope"})


def test_a_reader_accepts_a_subtype_registered_after_it_was_built():
    """The decode reader of ``story`` is built on the first message; a
    ``src`` whose type is a subtype of ``source`` registered only later
    is still proven (the reader asks the registry per value) and decodes
    without a constructor check, into an equal object."""
    reg = standard_registry()
    reg.register(TypeDescriptor("source", attributes=[
        AttributeSpec("name", "string")]))
    reg.register(TypeDescriptor("story", attributes=[
        AttributeSpec("src", "source"),
        AttributeSpec("all", "list<source>", required=False)]))
    table = TypeTable()
    receiver = standard_registry()
    plain = DataObject(reg, "source", name="plain")
    first, _ = encode_typed(DataObject(reg, "story", src=plain), reg, table)
    assert decode(first, receiver, type_resolver=table).get("src") == plain
    reader = receiver._readers["story"]

    reg.register(TypeDescriptor("wire_source", supertype="source",
                                attributes=[AttributeSpec("feed", "int")]))
    wire = DataObject(reg, "wire_source", name="w", feed=3)
    late = DataObject(reg, "story", src=wire, all=[plain, wire])
    payload, _ = encode_typed(late, reg, table)
    back = decode(payload, receiver, type_resolver=table)
    assert back == late and back.get("src").type_name == "wire_source"
    assert receiver._readers["story"] is reader      # the same reader
    assert receiver.is_subtype("wire_source", "source")
    # a value of an unrelated type is still refused, by the constructor
    reg.register(TypeDescriptor("stranger", attributes=[
        AttributeSpec("name", "string"), AttributeSpec("feed", "int")]))
    forged = payload.replace(
        bytes([0x4F, table.intern(reg.get("wire_source"))]),
        bytes([0x4F, table.intern(reg.get("stranger"))]), 1)
    with pytest.raises(ValidationError,
                       match="expected object of type 'source', "
                             "got 'stranger'"):
        decode(forged, receiver, type_resolver=table)


# ----------------------------------------------------------------------
# (c) conflict detection stays per message
# ----------------------------------------------------------------------

def story_registry(body_type="string"):
    reg = standard_registry()
    reg.register(TypeDescriptor("story", attributes=[
        AttributeSpec("n", "int"), AttributeSpec("body", body_type)]))
    return reg


@pytest.mark.parametrize("resolver_kind", ["table", "peer_view"])
def test_conflicting_local_shape_raises_on_the_1st_and_1000th_message(
        resolver_kind):
    reg = story_registry()
    table = TypeTable()
    payloads = [encode_typed(DataObject(reg, "story", n=n, body="b"),
                             reg, table)[0] for n in range(1000)]
    resolver = table if resolver_kind == "table" else PeerTypeView(
        {tid: table.blob(tid) for tid in range(len(table))})
    conflicted = story_registry(body_type="bytes")
    for payload in payloads:
        with pytest.raises(TypeError_, match="different interface"):
            decode(payload, conflicted, type_resolver=resolver)
    assert conflicted.get("story").own_attribute("body").type_name == "bytes"
    # the same resolver, warmed by 1000 refusals, still serves a clean
    # receiver, and keeps refusing the conflicted one afterwards
    clean = standard_registry()
    assert decode(payloads[0], clean, type_resolver=resolver).get("n") == 0
    with pytest.raises(TypeError_, match="different interface"):
        decode(payloads[-1], conflicted, type_resolver=resolver)


def test_a_conflicting_descriptor_raises_on_each_of_1000_messages():
    """A receiver whose reader for ``story`` is built and whose first
    session's descriptor is accepted meets a second session defining
    ``story`` with another shape: every one of its 1,000 messages
    raises, none is accepted, and the first session still decodes."""
    receiver = story_registry()
    good_reg = story_registry()
    good_table = TypeTable()
    good, _ = encode_typed(DataObject(good_reg, "story", n=1, body="b"),
                           good_reg, good_table)
    good_view = PeerTypeView({tid: good_table.blob(tid)
                              for tid in range(len(good_table))})
    assert decode(good, receiver, type_resolver=good_view).get("n") == 1
    assert "story" in receiver._readers
    accepted = set(receiver._accepted)
    bad_reg = story_registry(body_type="bytes")
    bad_table = TypeTable()
    bad = [encode_typed(DataObject(bad_reg, "story", n=n, body=b"b"),
                        bad_reg, bad_table)[0] for n in range(1000)]
    bad_view = PeerTypeView({tid: bad_table.blob(tid)
                             for tid in range(len(bad_table))})
    for payload in bad:
        with pytest.raises(TypeError_, match="different interface"):
            decode(payload, receiver, type_resolver=bad_view)
    assert receiver._accepted == accepted
    assert decode(good, receiver, type_resolver=good_view).get("n") == 1


def test_conflict_registered_after_the_session_was_learned():
    """The receiver decodes happily, *then* a conflicting local type
    appears for a name the session references: the very next message
    must fail, cached descriptor or not."""
    reg = standard_registry()
    reg.register(TypeDescriptor("source", attributes=[
        AttributeSpec("name", "string")]))
    table = TypeTable()
    payload, _ = encode_typed(DataObject(reg, "source", name="x"), reg, table)
    view = PeerTypeView({tid: table.blob(tid) for tid in range(len(table))})
    receiver = standard_registry()
    receiver.register(TypeDescriptor("source", attributes=[
        AttributeSpec("name", "string")]))
    for _ in range(10):
        decode(payload, receiver, type_resolver=view)
    other = standard_registry()
    other.register(TypeDescriptor("source", attributes=[
        AttributeSpec("name", "int")]))
    with pytest.raises(TypeError_, match="different interface"):
        decode(payload, other, type_resolver=view)


def test_conflicted_consumer_counts_every_message_on_the_bus():
    bus = InformationBus(seed=3, cost=CostModel.ideal())
    bus.add_hosts(3)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    conflicted = bus.client("node01", "mon",
                            registry=story_registry(body_type="bytes"))
    clean = bus.client("node02", "mon")
    boxes = {"conflicted": [], "clean": []}
    conflicted.subscribe("news.>",
                         lambda s, o, i: boxes["conflicted"].append(o))
    clean.subscribe("news.>",
                    lambda s, o, i: boxes["clean"].append(o.get("n")))
    for n in range(1000):
        pub.publish("news.x", DataObject(reg, "story", n=n, body="b"))
        if n in (0, 999):
            bus.settle()
            assert conflicted.decode_errors == n + 1
    assert boxes["conflicted"] == []
    assert boxes["clean"] == list(range(1000))
    assert clean.decode_errors == 0


# ----------------------------------------------------------------------
# (d) mid-session redefinition: fresh fingerprint, fresh id
# ----------------------------------------------------------------------

@pytest.mark.parametrize("resolver_kind", ["table", "peer_view"])
def test_redefinition_decodes_new_and_old_shapes_by_their_own_ids(
        resolver_kind):
    table = TypeTable()
    old_reg = story_registry()
    old = DataObject(old_reg, "story", n=1, body="text")
    old_payload, old_refs = encode_typed(old, old_reg, table)
    # the publisher restarts its schema: same name, new shape, same session
    new_reg = standard_registry()
    new_reg.register(TypeDescriptor("story", attributes=[
        AttributeSpec("n", "int"), AttributeSpec("body", "list<string>"),
        AttributeSpec("lang", "string")]))
    new = DataObject(new_reg, "story", n=2, body=["t"], lang="en")
    new_payload, new_refs = encode_typed(new, new_reg, table)
    assert set(old_refs) & set(new_refs) == {0}       # only ``object``
    assert len(table) == 3

    def resolver():
        if resolver_kind == "table":
            return table
        return PeerTypeView({t: table.blob(t) for t in range(len(table))})

    shared = resolver()
    for _ in range(2):      # second pass runs on warm descriptor caches
        learner = standard_registry()
        back = decode(new_payload, learner, type_resolver=shared)
        assert back == new and back.get("lang") == "en"
        assert learner.get("story").own_attribute("body").type_name == \
            "list<string>"
        # the old id still means the old shape — to a fresh registry
        veteran = standard_registry()
        back = decode(old_payload, veteran, type_resolver=shared)
        assert back == old
        assert veteran.get("story").own_attribute("lang") is None
        # and each registry refuses the other generation
        with pytest.raises(TypeError_, match="different interface"):
            decode(old_payload, learner, type_resolver=shared)
        with pytest.raises(TypeError_, match="different interface"):
            decode(new_payload, veteran, type_resolver=shared)


def test_peer_view_descriptor_tracks_the_mutating_raw_map():
    """The wire layer keeps adding to the raw map the view wraps; ids
    that arrive later resolve, ids that never arrived do not."""
    reg = story_registry()
    table = TypeTable()
    payload, refs = encode_typed(DataObject(reg, "story", n=1, body="b"),
                                 reg, table)
    raw = {}
    view = PeerTypeView(raw)
    assert view.descriptor(refs[-1]) is None
    raw.update({tid: table.blob(tid) for tid in refs})
    story = view.descriptor(refs[-1])
    assert story.name == "story"
    assert story.fingerprint() == reg.get("story").fingerprint()
    assert view.descriptor(refs[-1]) is story          # built once
    assert view.descriptor(99) is None
    assert table.descriptor(refs[-1]) is reg.get("story")
    assert table.descriptor(99) is None and table.descriptor(-1) is None
