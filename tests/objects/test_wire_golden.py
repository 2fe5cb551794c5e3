"""Golden wire vectors: the marshalled format must stay stable.

A bus deployed "24 by 7" upgrades piecemeal, so new code must decode
what old code encoded.  These vectors freeze the byte-level format; if
one of them changes, that is a wire-compatibility break and needs to be
a deliberate, versioned decision (bump the magic), not an accident.

The second half does the same for whole bus frames (``core/wire.py``):
one vector per packet shape, spelled field by field, so the grammar
``docs/PROTOCOLS.md`` prints is pinned by bytes.
"""

import pytest

from repro.core import (Envelope, Packet, PacketKind, QoS, StringTable,
                        decode_packet, encode_packet)
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           decode, encode, standard_registry)
from tests.learned import Learned

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

SESSION = "046e302330"                      # "n0#0"
STARTED = "3fd0000000000000"                # session_start 0.25
FEED_GMC = "08666565642e676d63"             # "feed.gmc"
N0_PUB = "066e302e707562"                   # "n0.pub"
PUBLISHED = "3fe0000000000000"              # publish_time 0.5
PAYLOAD = "03010203"


def frame_envelope(seq, **fields):
    return Envelope(subject="feed.gmc", sender="n0.pub", session="n0#0",
                    seq=seq, payload=b"\x01\x02\x03", publish_time=0.5,
                    **fields)


def golden_frames():
    """``(packet, encoded hex, expected hex)`` per packet shape.
    The compressed ones share the session's string table, in send
    order: the DATA frame defines the ids, the RETRANS redefines every
    id it references although the table already holds them."""
    table = StringTable()
    ledgered = frame_envelope(2, qos=QoS.GUARANTEED, ledger_id="n0/g/1",
                              via=("wan",))
    shapes = [
        ("plain DATA", None,
         Packet(PacketKind.DATA, "n0#0", [frame_envelope(1)],
                session_start=0.25),
         "4942" "0000002f"                  # magic, body length 47
         "00" "10"                          # DATA, flags DIGEST
         + SESSION + STARTED + "00"         # last_seq 0
         + "01" "00" + FEED_GMC + "01"      # digest: 1 entry: eflags subject seq
         + N0_PUB + PUBLISHED               # body: sender publish_time
         + PAYLOAD                          # (no ledger id, no via hops)
         + "2c96ad6e"),                     # CRC-32 of the body
        ("compressed DATA", table,
         Packet(PacketKind.DATA, "n0#0", [frame_envelope(1), ledgered],
                session_start=0.25),
         "4942" "0000004b"
         "00" "18"                          # DATA, COMPRESSED | DIGEST
         + SESSION + STARTED + "00"
         + "04"                             # defs: the 4 ids first used here
         + "00" + FEED_GMC + "01" + N0_PUB
         + "02" "066e302f672f31"            # 2 = "n0/g/1"
         + "03" "0377616e"                  # 3 = "wan"
         + "02" "000001"                    # digest: (-, id 0, 1)
         + "710002"                         # (LEDGER | SAME_SENDER |
                                            #  SAME_TIME | VIA, id 0, 2)
         + "01" + PUBLISHED + PAYLOAD       # sender id 1, publish_time
         + "02" "01" "03" + PAYLOAD         # ledger id, 1 via hop: id 3
         + "eac0eec3"),
        ("RETRANS", table,
         Packet(PacketKind.RETRANS, "n0#0", [frame_envelope(1)],
                session_start=0.25),
         "4942" "00000034"
         "01" "18"                          # RETRANS, COMPRESSED | DIGEST
         + SESSION + STARTED + "00"
         + "02" "00" + FEED_GMC + "01" + N0_PUB     # every id it cites
         + "01" "000001"
         + "01" + PUBLISHED + PAYLOAD
         + "35fffc55"),
        ("HEARTBEAT", None,
         Packet(PacketKind.HEARTBEAT, "n0#0", last_seq=300,
                session_start=0.25),
         "4942" "00000011"
         "03" "00" + SESSION + STARTED
         + "ac02"                           # last_seq 300: the frame ends
         + "76b0b08d"),
        ("NACK", None,
         Packet(PacketKind.NACK, "n0#0", nack_range=(3, 5)),
         "4942" "00000012"
         "02" "01"                          # NACK, flags NACK_RANGE
         + SESSION + "0000000000000000" "00"
         + "03" "05"                        # first, last
         + "74198c5b"),
        ("ACK", None,
         Packet(PacketKind.ACK, "n0#0", ack_ledger_id="n0/g/1",
                ack_consumer="n1.mon"),
         "4942" "0000001e"
         "04" "06"                          # ACK, ACK_LEDGER | ACK_CONSUMER
         + SESSION + "0000000000000000" "00"
         + "066e302f672f31"                 # "n0/g/1"
         + "066e312e6d6f6e"                 # "n1.mon"
         + "8835d231"),
    ]
    return [pytest.param(packet, encode_packet(packet, table_).hex(),
                         expected, id=name)
            for name, table_, packet, expected in shapes]


@pytest.mark.parametrize("packet,encoded,expected", golden_frames())
def test_frame_golden_vectors(packet, encoded, expected):
    assert encoded == expected
    assert decode_packet(bytes.fromhex(expected), Learned()) == packet
