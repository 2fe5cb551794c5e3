"""Golden wire vectors: the marshalled format must stay stable.

A bus deployed "24 by 7" upgrades piecemeal, so new code must decode
what old code encoded.  These vectors freeze the byte-level format; if
one of them changes, that is a wire-compatibility break and needs to be
a deliberate, versioned decision (bump the magic), not an accident.

The second half does the same for whole bus frames (``core/wire.py``):
one vector per packet shape, so the grammar ``docs/PROTOCOLS.md``
prints is pinned by bytes.  Those vectors live in ``golden_wire.json``.
Regenerate them (only for a deliberate wire-format change)::

    PYTHONPATH=src python tests/objects/test_wire_golden.py

or ``make goldens``, which runs it (and the other goldens) under two
hash seeds and fails if the second run changes a file.
"""

import json
import os

import pytest

from repro.core import (Envelope, Packet, PacketKind, QoS, StringTable,
                        decode_packet, encode_packet)
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           decode, encode, standard_registry)

GOLDEN_SCALARS = [
    (None, "4942014e"),
    (True, "49420154"),
    (False, "49420146"),
    (0, "494201690000000000000000"),
    (1, "494201690000000000000001"),
    (-1, "49420169ffffffffffffffff"),
    (2**40, "494201690000010000000000"),
    (1.5, "494201643ff8000000000000"),
    ("", "4942017300"),
    ("hi", "49420173026869"),
    ("é", "4942017302c3a9"),
    (b"", "4942016200"),
    (b"\x00\xff", "494201620200ff"),
    ([], "4942016c00"),
    ([1, "a"], "4942016c02690000000000000001730161"),
    ({}, "4942016d00"),
]


@pytest.mark.parametrize("value,expected_hex", GOLDEN_SCALARS,
                         ids=[repr(v)[:20] for v, _ in GOLDEN_SCALARS])
def test_scalar_golden_vectors(value, expected_hex):
    wire = encode(value).hex()
    if expected_hex.endswith("["):          # documented prefix-only vector
        assert wire.startswith(expected_hex[:-1])
    else:
        assert wire == expected_hex
    assert decode(bytes.fromhex(wire), standard_registry()) == value


def test_object_golden_vector():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "tick", attributes=[AttributeSpec("px", "float"),
                            AttributeSpec("sym", "string")]))
    obj = DataObject(reg, "tick", {"px": 1.0, "sym": "GM"},
                     oid="tick:00000001")
    wire = encode(obj)
    expected = (
        "494201"                    # magic "IB\x01"
        "6f"                        # 'o' object tag
        "047469636b"                # type name "tick"
        "0d7469636b3a3030303030303031"   # oid "tick:00000001"
        "02"                        # two attributes set
        "027078"                    # "px"
        "643ff0000000000000"        # 'd' 1.0
        "0373796d"                  # "sym"
        "7302474d"                  # 's' "GM"
    )
    assert wire.hex() == expected
    assert decode(wire, reg) == obj


def test_magic_version_is_stable():
    assert encode(None)[:3] == b"IB\x01"


def test_inline_metadata_block_tag():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "t", attributes=[AttributeSpec("a", "int", required=False)]))
    obj = DataObject(reg, "t", {})
    wire = encode(obj, reg, inline_types=True)
    assert wire[3:4] == b"M"        # metadata block marker after magic
    # and a schema-naive process can still decode it
    assert decode(wire, standard_registry()).type_name == "t"


# ----------------------------------------------------------------------
# whole frames
# ----------------------------------------------------------------------

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_wire.json")


def frame_envelope(seq, payload=b"\x01\x02\x03", **fields):
    return Envelope(subject="feed.gmc", sender="n0.pub", session="n0#0",
                    seq=seq, payload=payload, publish_time=0.5, **fields)


def golden_packets():
    """``(name, string table, packet)`` per packet shape.  The stat DATA
    frame is encoded without a table, as a daemon sends telemetry: it
    defines every id it cites.  The compressed ones share the session's
    string table, in send order: the DATA frame defines the ids, the
    RETRANS redefines every id it references although the table already
    holds them.  The compressed DATA frame's second envelope sets every
    entry bit a successor may: ledger, magic left out, next seq, same
    sender, same publish time, via hops.  The "RETRANS gone" frame is a
    NACK's answer when retention holds none of the seqs asked for: no
    envelopes, and ``last_seq`` the highest seq no longer retained."""
    table = StringTable()
    ledgered = frame_envelope(2, payload=encode(None), qos=QoS.GUARANTEED,
                              ledger_id="n0/g/1", via=("wan",))
    stat = Envelope(subject="_bus.stat.n0.daemon", sender="n0#0",
                    session="n0#0", seq=0, payload=encode({"n": 1}),
                    publish_time=0.5)
    return [
        ("stat DATA", None,
         Packet(PacketKind.DATA, "n0#0", [stat], session_start=0.25)),
        ("compressed DATA", table,
         Packet(PacketKind.DATA, "n0#0", [frame_envelope(1), ledgered],
                session_start=0.25)),
        ("RETRANS", table,
         Packet(PacketKind.RETRANS, "n0#0", [frame_envelope(1)],
                session_start=0.25)),
        ("RETRANS gone", None,
         Packet(PacketKind.RETRANS, "n0#0", last_seq=40,
                session_start=0.25)),
        ("HEARTBEAT", None,
         Packet(PacketKind.HEARTBEAT, "n0#0", last_seq=300,
                session_start=0.25)),
        ("NACK", None, Packet(PacketKind.NACK, "n0#0", nack_range=(3, 5))),
        ("ACK", None,
         Packet(PacketKind.ACK, "n0#0", ack_ledger_id="n0/g/1",
                ack_consumer="n1.mon")),
    ]


def frame_encodings():
    return {name: encode_packet(packet, table).hex()
            for name, table, packet in golden_packets()}


GOLDEN_FRAMES = {}
if os.path.exists(GOLDEN_PATH):     # absent only while regenerating
    with open(GOLDEN_PATH) as handle:
        GOLDEN_FRAMES = json.load(handle)


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_frame_golden_vectors(name):
    packets = {name_: packet for name_, _, packet in golden_packets()}
    assert frame_encodings()[name] == GOLDEN_FRAMES[name], (
        f"{name} frame bytes moved: a wire-format break; if deliberate, "
        f"regenerate with `make goldens`")
    # every frame is self-contained: a receiver with no tables decodes it
    assert decode_packet(bytes.fromhex(GOLDEN_FRAMES[name])) == \
        packets[name]


def test_golden_covers_every_frame_shape():
    assert sorted(frame_encodings()) == sorted(GOLDEN_FRAMES)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(frame_encodings(), handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
