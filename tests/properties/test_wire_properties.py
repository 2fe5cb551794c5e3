"""Property-based tests for the wire codec: decode(encode(p)) == p.

The wire format is the bus's contract between hosts — every packet kind,
every envelope field combination (including non-ASCII subjects), must
survive a round trip through bytes, and any bit flip must be caught by
the checksum rather than decoded into garbage.
"""

import random
from dataclasses import replace
from io import BytesIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Envelope, Packet, PacketKind, QoS, wire
from repro.core.wire import (CorruptFrame, StringTable, decode_packet,
                             encode_packet, read_digest)
from repro.sim.framing import (FRAME_OVERHEAD, flip_random_bit, frame,
                               unframe, write_varint)
from tests.learned import Learned

# subjects mix plain ASCII labels with non-ASCII ones (UTF-8 on the wire)
subjects = st.lists(
    st.text(alphabet=st.sampled_from("abcdefgh0123456789é漢字ß"),
            min_size=1, max_size=8),
    min_size=1, max_size=4).map(".".join)

sessions = st.text(min_size=1, max_size=20)


def envelopes_of(session):
    """What a frame of ``session`` can say: its envelopes are that
    session's, and qos rides the ledger flag (guaranteed iff
    ``ledger_id`` is set)."""
    return st.builds(
        Envelope,
        subject=subjects,
        sender=st.text(min_size=1, max_size=20),
        session=st.just(session),
        seq=st.integers(0, 2**40),
        payload=st.binary(max_size=512),
        ledger_id=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
        publish_time=st.floats(allow_nan=False, allow_infinity=False),
        via=st.lists(st.text(min_size=1, max_size=10), max_size=3).map(tuple),
    ).map(lambda envelope: envelope if envelope.ledger_id is None
          else replace(envelope, qos=QoS.GUARANTEED))


envelopes = sessions.flatmap(envelopes_of)

# DATA / RETRANS carry envelope batches (and are the only kinds that
# cite header strings)
data_packets = sessions.flatmap(lambda session: st.builds(
    Packet,
    kind=st.sampled_from([PacketKind.DATA, PacketKind.RETRANS]),
    session=st.just(session),
    envelopes=st.lists(envelopes_of(session), max_size=4),
    session_start=st.floats(0, 1e6)))

packets = st.one_of(
    data_packets,
    # NACK carries a missing-seq range
    st.builds(Packet,
              kind=st.just(PacketKind.NACK),
              session=st.text(min_size=1, max_size=20),
              nack_range=st.tuples(st.integers(0, 2**32),
                                   st.integers(0, 2**32))),
    # HEARTBEAT carries the sender's highest seq
    st.builds(Packet,
              kind=st.just(PacketKind.HEARTBEAT),
              session=st.text(min_size=1, max_size=20),
              last_seq=st.integers(0, 2**40),
              session_start=st.floats(0, 1e6)),
    # ACK confirms a guaranteed ledger entry
    st.builds(Packet,
              kind=st.just(PacketKind.ACK),
              session=st.text(min_size=1, max_size=20),
              ack_ledger_id=st.text(min_size=1, max_size=30),
              ack_consumer=st.text(min_size=1, max_size=20)),
)


@given(packets)
@settings(max_examples=200, deadline=None)
def test_packet_round_trip(packet):
    decoded = decode_packet(encode_packet(packet))
    assert decoded == packet
    # and the codec is deterministic: re-encoding yields identical bytes
    assert encode_packet(decoded) == encode_packet(packet)


def varint_length(value):
    out = BytesIO()
    write_varint(out, value)
    return len(out.getvalue())


@given(envelopes)
@settings(max_examples=200, deadline=None)
def test_envelope_size_is_encoding_length(envelope):
    """The size is the envelope's digest entry plus its standalone body,
    each header string written inline: what it adds to an empty frame of
    its session whose table already holds its strings, with each id
    swapped for the string it stands for."""
    table = StringTable()

    def frame_length(envelopes):
        return len(encode_packet(Packet(PacketKind.DATA, envelope.session,
                                        envelopes), table))
    frame_length([envelope])            # defines its strings
    again = replace(envelope)           # uncached: cites, defines nothing
    swap = 0
    for text in (envelope.subject, envelope.sender) + envelope.via:
        length = len(text.encode())
        swap += length + varint_length(length) - varint_length(
            table.ids[text])
    assert envelope.size == frame_length([again]) - frame_length([]) + swap


@given(data_packets)
@settings(max_examples=200, deadline=None)
def test_compressed_packet_round_trip(packet):
    """A session's first frame is self-contained: every id it uses it
    also defines, so it decodes with zero receiver state — and it is the
    frame encode_packet writes against a one-frame table."""
    table = StringTable()
    compressed = encode_packet(packet, table)
    assert decode_packet(compressed) == packet
    assert encode_packet(packet) == compressed
    # re-encoding against the same table is deterministic
    assert encode_packet(packet, table) == compressed


@given(data_packets, st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_compressed_bit_flip_never_decodes(packet, seed):
    table = StringTable()
    data = encode_packet(packet, table)
    flipped = flip_random_bit(data, random.Random(seed))
    assert flipped != data
    with pytest.raises(CorruptFrame):
        decode_packet(flipped, peers=Learned())


@given(packets, st.integers(0, 2**31))
@settings(max_examples=200, deadline=None)
def test_bit_flip_never_decodes(packet, seed):
    """Any single flipped bit is rejected, never silently mis-decoded.

    A flip in the body or in the CRC trailer makes the two disagree;
    either way the frame must raise, not return.
    """
    data = encode_packet(packet)
    flipped = flip_random_bit(data, random.Random(seed))
    assert flipped != data
    with pytest.raises(CorruptFrame):
        decode_packet(flipped)


@st.composite
def seq_runs(draw):
    """The seqs of one frame's envelopes: runs of successors (entry bit
    0x08) broken by gaps, repeats and returns to 0 (unsequenced
    telemetry), starting on either side of the step from a one-byte to
    a two-byte varint."""
    seqs = [draw(st.sampled_from([0, 1, 126, 127, 128, 2**14 - 1]))]
    for step in draw(st.lists(st.sampled_from(["next", "next", "repeat",
                                               "gap", "zero"]),
                              max_size=8)):
        last = seqs[-1]
        seqs.append({"next": last + 1, "repeat": last, "gap": last + 129,
                     "zero": 0}[step])
    return seqs


# payloads with and without the marshal magic (entry bit 0x04), and
# ones that only start like it
payloads = st.one_of(st.binary(max_size=16),
                     st.binary(max_size=16).map(b"IB\x01".__add__),
                     st.sampled_from([b"IB", b"IB\x01", b"IB\x02N"]))


@given(seq_runs(), st.data())
@settings(max_examples=200, deadline=None)
def test_elided_seqs_and_magic_round_trip(seqs, data):
    """What the digest derives and the reader puts back is what was
    sent: the envelopes decode equal, and the digest the gate reads
    lists their seqs."""
    envelopes = [Envelope(subject="a.b", sender="s", session="h#0",
                          seq=seq, payload=data.draw(payloads),
                          publish_time=0.5)
                 for seq in seqs]
    packet = Packet(PacketKind.DATA, "h#0", envelopes, session_start=0.25)
    frame_bytes = encode_packet(packet)
    wire.configure_decode_memo()        # a fresh walk, then a memo hit
    assert read_digest(frame_bytes).seqs == seqs
    assert decode_packet(frame_bytes).envelopes == envelopes
    wire.configure_decode_memo(0)       # and a decode from scratch
    assert decode_packet(frame_bytes).envelopes == envelopes


@given(st.binary(max_size=256))
@settings(max_examples=100, deadline=None)
def test_frame_round_trip(body):
    framed = frame(body)
    assert len(framed) == len(body) + FRAME_OVERHEAD
    assert unframe(framed) == body


@given(st.binary(max_size=256), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_truncated_frame_rejected(body, cut):
    framed = frame(body)
    with pytest.raises(CorruptFrame):
        unframe(framed[:-min(cut, len(framed))])


def test_encode_once_cache_reuses_bytes():
    """Fan-out and NACK repair reuse one encoding per stamped envelope."""
    e = Envelope(subject="a.b", sender="x", session="h#0", seq=3,
                 payload=b"payload")
    table = StringTable()
    packet = Packet(PacketKind.DATA, "h#0", [e])
    encode_packet(packet, table)
    first = e._wire_cache_z
    encode_packet(packet, table)
    assert e._wire_cache_z is first             # cached, not re-marshalled
    e.seq = 4                                   # re-stamped: cache invalid
    encode_packet(packet, table)
    assert e._wire_cache_z is not first


def test_garbage_is_rejected():
    for junk in (b"", b"IB", b"not a frame at all", b"\x00" * 64):
        with pytest.raises(CorruptFrame):
            decode_packet(junk)
