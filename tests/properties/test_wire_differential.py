"""Differential decoder fuzz: ``read_digest`` vs ``decode_packet``.

The interest gate acts on what :func:`read_digest` says about a frame
without ever running :func:`decode_packet` on it, so the two must never
disagree about whether a frame is acceptable.  Seeds are real encoder
output in every shape the daemons send (self-contained, typed, RETRANS,
reference-only, control) plus two only a hostile encoder sends
(a digest entry flagged ``0x02``, and a first entry that follows the
seq, or repeats the sender or publish time, of a predecessor it does
not have).  Encoder output sets the other entry bits too: payloads
that start with the marshal magic (``0x04``) and runs of successive
seqs (``0x08``).  Each seed is hit with 0-3 byte mutations
*inside* the frame body and re-framed under a valid CRC — the hostile
encoder the checksum cannot catch.  For every such frame:

(a) neither entry point raises anything but :class:`CorruptFrame`
    (which includes ``UnresolvedStringId`` / ``UnresolvedTypeId``);
(b) whatever ``read_digest`` rejects, ``decode_packet`` rejects;
(c) when both accept, the digest lists exactly as many entries as the
    packet has envelopes — and for unmutated encoder output the entries
    and subjects are the envelopes' own;
(d) flag-vs-kind validity is judged identically: a frame with a flag
    bit its kind does not allow (any bit but TYPED, and TYPED on a
    HEARTBEAT/NACK/ACK frame) is rejected by both;
(e) so is digest-flag validity: both reject the two hostile shapes as
    plain :class:`CorruptFrame` — there is nothing to repair;
(f) one parse serves both, so both earn the same error class for every
    frame — a malformed header, defs section, digest or body included —
    but one whose bodies cite string ids this receiver has not learned,
    which fails only the decode.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Envelope, Packet, PacketKind, QoS, wire
from repro.core.typeplane import TypeTable
from repro.core.wire import (CorruptFrame, StringTable,
                             UnresolvedStringId, decode_packet,
                             encode_packet, read_digest)
from repro.objects import AttributeSpec, TypeDescriptor
from repro.sim.framing import frame, unframe
from tests.core.test_interest_gating import first_entry_at
from tests.learned import Learned

#: kind code -> the flag bits it may carry: TYPED on DATA and RETRANS
ALLOWED_FLAGS = {0: 0x20, 1: 0x20, 2: 0, 3: 0, 4: 0}

SESSION = "node00#0"

# a frame is one session's and qos rides the ledger flag, so the
# envelopes a frame can carry are SESSION's, guaranteed iff ledgered
envelopes = st.builds(
    Envelope,
    subject=st.sampled_from(["feed.a", "feed.b", "feed.é", "_bus.stat.x"]),
    sender=st.sampled_from(["node00.pub", "node00.other", "node00.é"]),
    session=st.just(SESSION),
    seq=st.integers(0, 300),
    payload=st.one_of(st.binary(max_size=24),
                      st.binary(max_size=21).map(b"IB\x01".__add__)),
    ledger_id=st.one_of(st.none(), st.just("node00/g/7")),
    # equal neighbours share one sender / publish time on the wire
    publish_time=st.one_of(st.just(0.5),
                           st.floats(allow_nan=False, allow_infinity=False)),
    via=st.sampled_from([(), ("wan-router",)]),
    type_refs=st.sampled_from([(), (0,), (0, 1)]),
).map(lambda envelope: envelope if envelope.ledger_id is None
      else replace(envelope, qos=QoS.GUARANTEED))



def type_table() -> TypeTable:
    table = TypeTable()
    for name in ("quote", "story"):
        table.intern(TypeDescriptor(
            name, attributes=[AttributeSpec("n", "int")]))
    return table


@st.composite
def seed_frames(draw):
    """One frame of real encoder output, plus the packet it encodes
    (``None`` for the hostile shape: no packet encodes to it)."""
    shape = draw(st.sampled_from(
        ["self-contained", "typed", "retrans", "cold", "control",
         "dflag02", "first"]))
    if shape == "control":
        packet = draw(st.sampled_from([
            Packet(PacketKind.HEARTBEAT, SESSION, last_seq=9,
                   session_start=0.25),
            Packet(PacketKind.NACK, SESSION, nack_range=(3, 200)),
            Packet(PacketKind.ACK, SESSION, ack_ledger_id="node00/g/7",
                   ack_consumer="node01"),
        ]))
        return encode_packet(packet), packet
    kind = PacketKind.RETRANS if shape == "retrans" else PacketKind.DATA
    batch = draw(st.lists(envelopes, min_size=1, max_size=3))
    if draw(st.booleans()):             # a run: each seq follows the last
        batch = [replace(envelope, seq=batch[0].seq + index)
                 for index, envelope in enumerate(batch)]
    packet = Packet(kind, SESSION, batch, session_start=0.25)
    if shape == "self-contained":
        return encode_packet(packet), packet
    if shape in ("dflag02", "first"):
        body = bytearray(unframe(encode_packet(packet)))
        at = first_entry_at(body)
        assert not body[at] & 0x02
        body[at] |= (0x02 if shape == "dflag02"
                     else draw(st.sampled_from([0x08, 0x10, 0x20])))
        return frame(bytes(body)), None
    table = StringTable()
    types = type_table() if shape in ("typed", "retrans") else None
    if shape in ("retrans", "cold"):
        # ids already defined on an earlier frame this receiver missed:
        # RETRANS re-defines them all, a DATA frame only references them
        encode_packet(Packet(PacketKind.DATA, SESSION, packet.envelopes,
                             session_start=0.25), table, type_table=types)
    return encode_packet(packet, table, type_table=types), packet


# positions favour the first bytes (kind, flags, session length) without
# neglecting the rest of the frame
mutations = st.lists(
    st.tuples(st.one_of(st.integers(0, 3), st.integers(0, 4096)),
              st.integers(0, 255)),
    max_size=3)


def attempt(entry_point, data):
    """``(result, error)`` against a cold receiver; anything but a
    CorruptFrame propagates and fails the test — property (a)."""
    try:
        return entry_point(data, peers=Learned()), None
    except CorruptFrame as error:
        return None, error


@given(seed_frames(), mutations, st.booleans())
@settings(max_examples=400, deadline=None)
def test_digest_and_decode_agree(seed, edits, digest_first):
    data, original = seed
    body = bytearray(unframe(data))
    for position, value in edits:
        body[position % len(body)] = value
    mutated = bytes(body) != unframe(data)
    data = frame(bytes(body))

    wire.configure_decode_memo()            # each example starts cold
    if digest_first:                        # the daemon's order ...
        digest, digest_error = attempt(read_digest, data)
        packet, decode_error = attempt(decode_packet, data)
    else:                                   # ... and a digest memo hit
        packet, decode_error = attempt(decode_packet, data)
        digest, digest_error = attempt(read_digest, data)

    if digest_error is not None:                                    # (b)
        assert decode_error is not None
    if body[0] in ALLOWED_FLAGS and body[1] & ~ALLOWED_FLAGS[body[0]]:  # (d)
        assert decode_error is not None and digest_error is not None
    if digest is not None and packet is not None:                   # (c)
        assert len(digest.seqs) == len(packet.envelopes)
    if original is None and not mutated:                            # (e)
        assert type(digest_error) is type(decode_error) is CorruptFrame
    if not isinstance(decode_error, UnresolvedStringId):            # (f)
        assert type(digest_error) is type(decode_error)
    if not mutated and decode_error is None:
        assert packet == original
        if original.envelopes:
            assert [(digest.session, seq) for seq in digest.seqs] == \
                [(e.session, e.seq) for e in original.envelopes]
            assert digest.subjects == tuple(dict.fromkeys(
                e.subject for e in original.envelopes))
        else:
            assert digest is None           # control frames carry none
