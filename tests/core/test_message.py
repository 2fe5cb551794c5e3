"""Unit tests for envelopes, packets, and measured size accounting."""

from repro.core import Envelope, Packet, PacketKind, QoS, encode_packet
from repro.sim.framing import FRAME_OVERHEAD


def envelope(subject="a.b", payload=b"x" * 10):
    return Envelope(subject=subject, sender="h.app", session="h#0", seq=1,
                    payload=payload)


def test_envelope_size_is_encoded_length():
    """Its digest entry plus its standalone body, each header string
    written inline: what it adds to an empty self-contained frame, less
    the two id bytes (a reference and a definition) that frame spends on
    each of its two header strings."""
    e = envelope(subject="news.equity.gmc", payload=b"x" * 100)
    empty = Packet(PacketKind.DATA, "h#0", [])
    assert e.size == (len(encode_packet(Packet(PacketKind.DATA, "h#0", [e])))
                      - len(encode_packet(empty)) - 2 * 2)


def test_envelope_size_grows_with_payload_and_subject():
    small = envelope(subject="a.b", payload=b"x" * 10)
    bigger_payload = envelope(subject="a.b", payload=b"x" * 110)
    longer_subject = envelope(subject="a.b.much.longer", payload=b"x" * 10)
    assert bigger_payload.size == small.size + 100
    assert longer_subject.size == small.size + len(".much.longer")


def test_envelope_size_counts_only_what_a_receiver_reads():
    """Digest entry (flags, subject, seq), then the body (sender,
    publish_time, payload).  The frame header carries the session, the
    ledger flag the qos, nothing read an envelope id, and a body without
    via hops has no via count: this envelope was 38 bytes when all four
    rode along (and the flags, subject and seq rode twice, in the
    digest too), and is smaller by exactly those fields."""
    e = envelope()
    assert e.size == 1 + (1 + 3) + 1 + (1 + 5) + 8 + (1 + 10) == 31
    session, qos, envelope_id, via_count = 1 + len(e.session), 1, 1, 1
    assert 38 - e.size == session + qos + envelope_id + via_count


def test_packet_size_is_frame_length():
    envelopes = [envelope(), envelope(subject="c.d", payload=b"y" * 20)]
    packet = Packet(PacketKind.DATA, "h#0", envelopes)
    assert packet.size == len(encode_packet(packet))
    assert packet.size >= sum(e.size for e in envelopes) + FRAME_OVERHEAD


def test_empty_packet_has_framing_only():
    packet = Packet(PacketKind.HEARTBEAT, "h#0", last_seq=7)
    assert packet.size == len(encode_packet(packet))
    assert packet.size < 64   # headers, not payload
    assert packet.last_seq == 7


def test_envelope_defaults():
    e = envelope()
    assert e.qos is QoS.RELIABLE
    assert e.ledger_id is None
    assert e.via == ()


def test_message_info_latency():
    from repro.core import MessageInfo
    info = MessageInfo(subject="a.b", sender="x", session="h#0", seq=1,
                       qos=QoS.RELIABLE, publish_time=1.0,
                       deliver_time=1.25, size=10)
    assert info.latency == 0.25
    assert info.via == ()


def test_message_info_keeps_its_dataclass_surface():
    """``MessageInfo`` is a hand-written ``__slots__`` class (one is
    built per delivery); what callers could do with the dataclass it
    replaced still works."""
    import pytest
    from repro.core import MessageInfo
    positional = MessageInfo("a.b", "x", "h#0", 1, QoS.RELIABLE, 1.0, 1.5,
                             10, True, ("r1",))
    keyword = MessageInfo(subject="a.b", sender="x", session="h#0", seq=1,
                          qos=QoS.RELIABLE, publish_time=1.0,
                          deliver_time=1.5, size=10, retransmitted=True,
                          via=("r1",))
    assert positional == keyword
    assert positional != MessageInfo("a.b", "x", "h#0", 2, QoS.RELIABLE,
                                     1.0, 1.5, 10, True, ("r1",))
    assert positional != "a.b"
    defaults = MessageInfo("a.b", "x", "h#0", 1, QoS.RELIABLE, 1.0, 1.5, 10)
    assert defaults.retransmitted is False and defaults.via == ()
    assert repr(defaults) == (
        "MessageInfo(subject='a.b', sender='x', session='h#0', seq=1, "
        "qos=<QoS.RELIABLE: 'reliable'>, publish_time=1.0, "
        "deliver_time=1.5, size=10, retransmitted=False, via=())")
    with pytest.raises(TypeError):
        hash(defaults)                  # eq without hash, as before
    with pytest.raises(AttributeError):
        defaults.extra = 1              # slots: no per-delivery __dict__
