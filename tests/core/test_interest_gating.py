"""The interest-gated receive path: subject digests and lazy decode.

Tentpole contract: a daemon with no matching subscription pays O(header)
per frame — :func:`repro.core.wire.read_digest` reads the subject digest
region without materializing envelope bodies, the
:class:`~repro.core.subjects.SubjectTrie` answers ``matches_anything``
per subject, and :meth:`ReliableReceiver.try_skip` advances the session
window so the skip is *observably identical* to a full decode (same
stats, same traces, no NACKs).  Guaranteed/ledgered envelopes and
unsequenced telemetry always take the full path, and a mid-stream
subscribe is honoured from the very next frame (the late-interest
boundary documented in docs/PROTOCOLS.md).
"""

import pytest

from repro.core import (BusConfig, CorruptFrame, Envelope, InformationBus,
                        Packet, PacketKind, QoS, StringTable,
                        UnresolvedStringId, decode_packet, encode_packet,
                        read_digest)
from repro.core.router import Router
from repro.core import wire
from repro.core.daemon import DAEMON_PORT, BusDaemon
from repro.core.reliable import ReliableConfig, ReliableReceiver
from repro.core.typeplane import TypeTable
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Simulator
from repro.sim.framing import Cursor, frame, unframe
from tests.core.test_session_lifetime import evil_socket
from tests.integration.test_golden_run import pivot_run
from tests.learned import Learned


# ----------------------------------------------------------------------
# codec level: the digest region
# ----------------------------------------------------------------------

def make_envelope(subject="feed.equity.gmc", seq=1, session="node00#0",
                  **kw):
    return Envelope(subject=subject, sender="node00.pub", session=session,
                    seq=seq, payload=b"payload-bytes", publish_time=0.5,
                    **kw)


def test_digest_roundtrip_plain():
    packet = Packet(PacketKind.DATA, "node00#0",
                    [make_envelope(seq=4), make_envelope("feed.fx.eur", 5)],
                    session_start=0.25)
    digest = read_digest(encode_packet(packet))
    assert digest is not None
    assert digest.session == "node00#0"
    assert digest.subjects == ("feed.equity.gmc", "feed.fx.eur")
    assert digest.seqs == [4, 5]
    assert digest.needs_full is False


def test_digest_roundtrip_compressed():
    table = StringTable()
    first = encode_packet(
        Packet(PacketKind.DATA, "node00#0", [make_envelope(seq=1)],
               session_start=0.0), table=table)
    second = encode_packet(
        Packet(PacketKind.DATA, "node00#0", [make_envelope(seq=2)],
               session_start=0.0), table=table)
    tables = Learned()
    d1 = read_digest(first, peers=tables)
    assert d1.subjects == ("feed.equity.gmc",)
    assert d1.seqs == [1]
    # the second frame is reference-only on the wire; the digest resolves
    # through the table the first frame defined
    d2 = read_digest(second, peers=tables)
    assert d2.subjects == ("feed.equity.gmc",)
    assert d2.seqs == [2]


def test_digest_repeated_subject_listed_once():
    packet = Packet(PacketKind.DATA, "node00#0",
                    [make_envelope(seq=s) for s in (1, 2, 3)],
                    session_start=0.0)
    digest = read_digest(encode_packet(packet))
    assert digest.subjects == ("feed.equity.gmc",)
    assert digest.seqs == [1, 2, 3]


def test_control_frames_have_no_digest():
    heartbeat = Packet(PacketKind.HEARTBEAT, "node00#0", last_seq=9,
                       session_start=0.0)
    assert read_digest(encode_packet(heartbeat)) is None
    nack = Packet(PacketKind.NACK, "node01#0", nack_range=(3, 5))
    assert read_digest(encode_packet(nack)) is None


def test_needs_full_for_ledgered_and_unsequenced():
    ledgered = Packet(PacketKind.DATA, "node00#0",
                      [make_envelope(seq=1, qos=QoS.GUARANTEED,
                                     ledger_id="node00.pub:1")],
                      session_start=0.0)
    assert read_digest(encode_packet(ledgered)).needs_full is True
    # an unsequenced (seq 0) frame is telemetry: read with no receiver
    # (the stat port) it is an ordinary digest, and a receiver's data
    # port refuses it outright
    stat = encode_packet(Packet(PacketKind.DATA, "node00#0",
                                [make_envelope("_bus.stat.node00", seq=0)],
                                session_start=0.0))
    assert read_digest(stat).needs_full is False
    with pytest.raises(CorruptFrame, match="seq 0"):
        read_digest(stat, peers=Learned())
    mixed = Packet(PacketKind.DATA, "node00#0",
                   [make_envelope(seq=1),
                    make_envelope(seq=2, qos=QoS.GUARANTEED,
                                  ledger_id="node00.pub:2")],
                   session_start=0.0)
    assert read_digest(encode_packet(mixed)).needs_full is True


def test_unresolved_digest_matches_full_decode_failure():
    """A receiver that missed the defining frame fails identically via
    the digest path and the full path: same exception type, same session,
    same seq span — so gated and ungated daemons arm the same repair."""
    table = StringTable()
    encode_packet(Packet(PacketKind.DATA, "node00#0",
                         [make_envelope(seq=1)], session_start=0.0),
                  table=table)
    reference_only = encode_packet(
        Packet(PacketKind.DATA, "node00#0", [make_envelope(seq=2)],
               session_start=0.0), table=table)
    with pytest.raises(UnresolvedStringId) as via_digest:
        read_digest(reference_only, peers=Learned())
    with pytest.raises(UnresolvedStringId) as via_decode:
        decode_packet(reference_only, peers=Learned())
    assert via_digest.value.session == via_decode.value.session
    assert via_digest.value.first_seq == via_decode.value.first_seq
    assert via_digest.value.last_seq == via_decode.value.last_seq
    assert via_digest.value.missing <= via_decode.value.missing


def test_every_corrupted_copy_raises_from_read_digest():
    """The CRC guards the digest region too: any bit flip anywhere in
    the frame raises before the gate can act on a damaged digest."""
    data = encode_packet(Packet(PacketKind.DATA, "node00#0",
                                [make_envelope(seq=1)], session_start=0.0))
    read_digest(data)                 # prime the digest memo
    for bit in range(0, 8 * len(data), 7):
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(CorruptFrame):
            read_digest(bytes(corrupted))
    assert read_digest(data).seqs == [1]


def first_entry_at(body):
    """Offset of the first digest entry (its flags byte) in the body of
    a DATA/RETRANS frame without a typedef region: past the header, the
    defs and the entry count."""
    cur = Cursor(body)
    cur.u8(), cur.u8(), cur.str_(), cur.f64(), cur.varint()
    for _ in range(cur.varint()):
        cur.varint(), cur.str_()
    cur.varint()
    return cur.pos


def with_digest_flag(flag, subject="zq.unique.subject", session="node00#0"):
    """A CRC-valid one-envelope DATA frame (seq 1) whose digest entry
    has ``flag`` set — what only a hostile encoder writes."""
    data = encode_packet(Packet(PacketKind.DATA, session,
                                [make_envelope(subject, 1, session)],
                                session_start=0.0))
    body = bytearray(unframe(data))
    at = first_entry_at(body)
    assert body[at] == 0              # its dflags byte
    body[at] = flag
    return frame(bytes(body))


def test_semantically_bad_digest_is_corrupt_on_both_paths():
    """A digest entry with unknown flag bits (valid CRC) is rejected by
    read_digest AND by decode_packet — the frame drops whole either way,
    so gated and ungated receivers stay in lockstep.  0x02 once meant
    "this envelope is another session's"; a frame is one session's, so
    it is as undefined as 0x80."""
    for flag in (0x02, 0x80):
        tampered = with_digest_flag(flag)
        for entry_point in (read_digest, decode_packet):
            with pytest.raises(CorruptFrame) as caught:
                entry_point(tampered)
            assert type(caught.value) is CorruptFrame  # nothing to repair


@pytest.mark.parametrize("flag", [0x08, 0x10, 0x20],
                         ids=["compressed", "digest", "typed"])
@pytest.mark.parametrize("packet", [
    Packet(PacketKind.HEARTBEAT, "node00#0", last_seq=9, session_start=0.5),
    Packet(PacketKind.NACK, "node00#0", nack_range=(1, 4)),
    Packet(PacketKind.ACK, "node00#0", ack_ledger_id="x/1",
           ack_consumer="node01"),
], ids=lambda packet: packet.kind.value)
def test_region_flag_on_control_frame_is_corrupt_on_both_paths(packet, flag):
    """HEARTBEAT/NACK/ACK never carry defs, typedefs or a digest.  A
    CRC-valid control frame with the TYPED bit, or with 0x08 / 0x10
    (which once marked the defs and the digest, and are retired), is
    rejected by read_digest as it is by decode_packet — the gate must
    never hand try_skip a "digest" read out of a heartbeat's trailing
    bytes."""
    body = bytearray(unframe(encode_packet(packet)))
    body[1] |= flag                   # byte 0 is the kind, byte 1 the flags
    tampered = frame(bytes(body))
    with pytest.raises(CorruptFrame):
        decode_packet(tampered)
    with pytest.raises(CorruptFrame):
        read_digest(tampered)


# ----------------------------------------------------------------------
# the grammar fails closed: each shape is a plain CorruptFrame on both
# entry points, and one counted corrupt drop at every daemon
# ----------------------------------------------------------------------

def assert_fails_closed(tampered):
    for entry_point in (read_digest, decode_packet):
        with pytest.raises(CorruptFrame) as caught:
            entry_point(tampered, peers=Learned())
        assert type(caught.value) is CorruptFrame  # nothing to repair
    bus = make_bus()
    bus.client("node01", "mon").subscribe("zq.>", lambda *a: None)
    evil_socket(bus).broadcast(tampered, DAEMON_PORT)
    bus.run_for(1.0)
    for daemon in bus.daemons.values():
        assert daemon.corrupt_dropped == 1
        assert not daemon.peers and daemon.skipped_frames == 0


#: one frame of each kind, as a hostile host would send it
EVIL_PACKETS = [
    Packet(PacketKind.DATA, "evil#0", [make_envelope("zq.a", 1, "evil#0")],
           session_start=0.0),
    Packet(PacketKind.RETRANS, "evil#0",
           [make_envelope("zq.a", 1, "evil#0")], session_start=0.0),
    Packet(PacketKind.HEARTBEAT, "evil#0", last_seq=9, session_start=0.5),
    Packet(PacketKind.NACK, "evil#0", nack_range=(1, 4)),
    Packet(PacketKind.ACK, "evil#0", ack_ledger_id="x/1",
           ack_consumer="node01"),
]


@pytest.mark.parametrize("packet, bit", [
    (packet, bit) for packet in EVIL_PACKETS for bit in
    (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80)
    if not (bit == 0x20 and packet.kind in (PacketKind.DATA,
                                            PacketKind.RETRANS))],
    ids=lambda value: value.kind.value if isinstance(value, Packet)
    else f"{value:#04x}")
def test_a_flag_bit_its_kind_does_not_allow_fails_closed(packet, bit):
    """The kind fixes a frame's fields, and the flags byte holds one
    bit, TYPED, which only DATA/RETRANS may set: any other (kind, bit)
    pair — bits no writer sets included — is a plain CorruptFrame on
    both entry points, counted once at every daemon."""
    body = bytearray(unframe(encode_packet(packet)))
    assert body[1] == 0
    body[1] = bit
    assert_fails_closed(frame(bytes(body)))


@pytest.mark.parametrize("kind", [PacketKind.DATA, PacketKind.RETRANS],
                         ids=lambda kind: kind.value)
def test_envelope_frame_without_a_digest_fails_closed(kind):
    """Every DATA/RETRANS frame carries the digest after its defs: its
    entries are the only place subjects and seqs are written, so a
    frame that ends after its defs is truncated."""
    packet = Packet(kind, "evil#0", [make_envelope("zq.a", 1, "evil#0")],
                    session_start=0.0)
    body = unframe(encode_packet(packet))
    assert_fails_closed(frame(body[:first_entry_at(body) - 1]))


@pytest.mark.parametrize("packet", [
    Packet(PacketKind.HEARTBEAT, "evil#0", last_seq=9, session_start=0.5),
    Packet(PacketKind.NACK, "evil#0", nack_range=(1, 4)),
    Packet(PacketKind.ACK, "evil#0", ack_ledger_id="x/1",
           ack_consumer="node01"),
], ids=lambda packet: packet.kind.value)
def test_control_frame_with_bytes_after_its_header_fails_closed(packet):
    """A control frame ends after its header: a trailing byte is never
    read as envelopes (or skipped as nothing)."""
    body = unframe(encode_packet(packet))
    assert decode_packet(frame(body)) == packet
    assert_fails_closed(frame(body + b"\x00"))


@pytest.mark.parametrize("flag", [0x08, 0x10, 0x20],
                         ids=["next-seq", "same-sender", "same-time"])
def test_first_entry_repeating_a_predecessor_fails_closed(flag):
    """The first entry has no previous entry whose seq it could follow,
    nor a previous envelope whose sender or publish time its body could
    leave out."""
    assert_fails_closed(with_digest_flag(flag, "zq.a", session="evil#0"))


@pytest.mark.parametrize("flag", [0x02, 0x80])
def test_undefined_entry_bit_fails_closed(flag):
    """0x02 is retired and 0x80 was never defined."""
    assert_fails_closed(with_digest_flag(flag, "zq.a", session="evil#0"))


def test_via_flag_with_no_hops_fails_closed():
    """Entry bit 0x40 promises at least one ``via`` hop: a CRC-valid
    frame whose body writes a hop count of 0 is refused by both entry
    points (one parse serves both), counted once at every daemon that
    hears it, interested or not, and the bus carries on."""
    hostile = make_envelope("zq.a", 1, "evil#0", via=("hopzz",))
    body = unframe(encode_packet(Packet(PacketKind.DATA, "evil#0",
                                        [hostile], session_start=0.0)))
    hops = b"\x01\x02\rpayload-bytes"  # 1 hop, its id, then the payload
    assert body.count(hops) == 1
    tampered = frame(body.replace(hops, b"\x00\rpayload-bytes"))
    for entry_point in (read_digest, decode_packet):
        with pytest.raises(CorruptFrame,
                           match="via flag with no hops") as caught:
            entry_point(tampered, peers=Learned())
        assert type(caught.value) is CorruptFrame  # nothing to repair
    bus = make_bus()
    got = []
    bus.client("node01", "mon").subscribe(
        "zq.>", lambda subject, obj, info: got.append((subject, obj)))
    evil_socket(bus).broadcast(tampered, DAEMON_PORT)
    bus.run_for(1.0)
    assert got == []
    assert [d.corrupt_dropped for d in bus.daemons.values()] == [1] * 4
    bus.client("node00", "pub").publish("zq.b", {"n": 1})
    bus.run_for(1.0)
    assert got == [("zq.b", {"n": 1})]
    assert [d.corrupt_dropped for d in bus.daemons.values()] == [1] * 4


def test_magic_bit_restores_the_payload_a_marshaller_wrote():
    """Entry bit 0x04: a payload that starts with the marshal magic goes
    on the wire without it, and comes back byte-identical; any other
    payload is sent whole, without the bit."""
    marshalled = Envelope(subject="zq.a", sender="node00.pub",
                          session="node00#0", seq=1, payload=b"IB\x01N",
                          publish_time=0.5)
    raw = make_envelope("zq.a", 2)
    for table in (None, StringTable()):
        data = encode_packet(Packet(PacketKind.DATA, "node00#0",
                                    [marshalled, raw], session_start=0.0),
                             table)
        assert data.count(b"IB\x01") == 0
        assert decode_packet(data).envelopes == [marshalled, raw]
    # the size the batcher cuts on counts the one byte left after it
    assert marshalled.size == raw.size - len(b"payload-bytes") + 1


def test_flagged_payload_that_does_not_unmarshal_is_a_decode_error():
    """A hostile frame may set 0x04 on any payload: the receiver puts
    the magic back, the client's unmarshal refuses the bytes, and the
    refusal is counted — nothing raises, nothing is delivered."""
    bus = make_bus()
    got = []
    mon = bus.client("node01", "mon")
    mon.subscribe("zq.>", lambda subject, obj, info: got.append(obj))
    evil_socket(bus).broadcast(
        with_digest_flag(0x04, "zq.a", session="evil#0"), DAEMON_PORT)
    bus.run_for(1.0)
    assert got == [] and mon.decode_errors == 1
    assert all(daemon.corrupt_dropped == 0
               for daemon in bus.daemons.values())


def test_digest_memo_shares_parses():
    wire.configure_decode_memo()
    data = encode_packet(Packet(PacketKind.DATA, "node00#0",
                                [make_envelope(seq=1)], session_start=0.0))
    read_digest(data)
    read_digest(data)
    decode_packet(data)
    stats = wire.decode_memo_stats()
    assert (stats["misses"], stats["hits"]) == (1, 2)


# ----------------------------------------------------------------------
# one envelope class
# ----------------------------------------------------------------------

def test_decoded_envelopes_are_plain_envelopes():
    """A typed packet round-trips to exactly an ``Envelope`` equal to
    the original: ``type_refs`` is send-side only, never on the wire,
    so equality ignores it."""
    types = TypeTable()
    assert types.intern(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string")])) == 0
    original = make_envelope(seq=1, type_refs=(0,))
    data = encode_packet(Packet(PacketKind.DATA, "node00#0", [original],
                                session_start=0.0), type_table=types)
    envelope = decode_packet(data).envelopes[0]
    assert type(envelope) is Envelope
    assert type(envelope.payload) is bytes
    assert envelope.type_refs == ()
    assert envelope == original
    assert make_envelope(seq=1) == make_envelope(seq=1, type_refs=(0, 1))


def test_envelope_view_equals_eager_envelope():
    data = encode_packet(Packet(PacketKind.DATA, "node00#0",
                                [make_envelope(seq=3)], session_start=0.0))
    view = decode_packet(data).envelopes[0]
    eager = make_envelope(seq=3)
    assert view == eager
    assert eager == view              # reflected comparison too
    assert view != make_envelope(seq=4)


# ----------------------------------------------------------------------
# try_skip: the window-advance contract
# ----------------------------------------------------------------------

def make_receiver():
    sim = Simulator(seed=1)
    delivered, nacks = [], []
    receiver = ReliableReceiver(
        sim, ReliableConfig(),
        deliver=lambda e, r: delivered.append(e.seq),
        send_nack=lambda s, f, l: nacks.append((s, f, l)),
        own_session="me#0")
    return sim, receiver, delivered, nacks


def prime(receiver, upto=3, session="node00#0"):
    for seq in range(1, upto + 1):
        receiver.handle_envelope(make_envelope(seq=seq, session=session),
                                 session_start=0.0)


def test_try_skip_contiguous_advances_window():
    sim, receiver, delivered, nacks = make_receiver()
    prime(receiver)
    before = receiver.sessions["node00#0"].stats.delivered.value
    assert receiver.try_skip("node00#0", [4, 5])
    stats = receiver.sessions["node00#0"].stats
    assert stats.delivered.value == before + 2
    assert nacks == []
    # the next decoded envelope slots straight in: no phantom gap
    receiver.handle_envelope(make_envelope(seq=6), session_start=0.0)
    assert delivered == [1, 2, 3, 6]


def test_try_skip_counts_duplicates():
    sim, receiver, delivered, nacks = make_receiver()
    prime(receiver)
    assert receiver.try_skip("node00#0", [2])   # a retransmitted dup
    assert receiver.sessions["node00#0"].stats.duplicates.value == 1
    assert receiver.sessions["node00#0"].stats.delivered.value == 3


def test_try_skip_refuses_unknown_session():
    sim, receiver, delivered, nacks = make_receiver()
    assert not receiver.try_skip("stranger#0", [1])


def test_try_skip_refuses_gap():
    sim, receiver, delivered, nacks = make_receiver()
    prime(receiver)
    assert not receiver.try_skip("node00#0", [6])   # would open a gap
    assert receiver.sessions["node00#0"].stats.delivered.value == 3  # untouched


def test_try_skip_refuses_while_buffered():
    sim, receiver, delivered, nacks = make_receiver()
    prime(receiver)
    receiver.handle_envelope(make_envelope(seq=6), session_start=0.0)
    assert not receiver.try_skip("node00#0", [4])   # full path must run


def test_try_skip_all_or_nothing():
    """One bad entry rejects the whole frame with no partial commit."""
    sim, receiver, delivered, nacks = make_receiver()
    prime(receiver)
    assert not receiver.try_skip("node00#0", [4, 9])
    assert receiver.sessions["node00#0"].stats.delivered.value == 3
    receiver.handle_envelope(make_envelope(seq=4), session_start=0.0)
    assert delivered == [1, 2, 3, 4]


def test_heartbeat_after_skip_sees_no_gap():
    """A skip must leave ``known_last`` consistent, or the next
    heartbeat would NACK data the daemon chose not to decode."""
    sim, receiver, delivered, nacks = make_receiver()
    prime(receiver)
    assert receiver.try_skip("node00#0", [4])
    receiver.handle_heartbeat("node00#0", last_seq=4, session_start=0.0)
    sim.run_until(sim.now + 10.0)
    assert nacks == []


# ----------------------------------------------------------------------
# end to end: the gated daemon
# ----------------------------------------------------------------------

def make_bus(seed=3, hosts=4, **cfg):
    bus = InformationBus(seed=seed, cost=CostModel.ideal(),
                         config=BusConfig(**cfg))
    bus.add_hosts(hosts)
    return bus


def test_uninterested_daemon_skips_frames():
    # no router, so no adverts: the only digest-bearing frames are the
    # feed itself
    bus = make_bus()
    got = []
    bus.client("node01", "mon").subscribe(
        "feed.>", lambda s, p, i: got.append(p["n"]))
    bus.client("node02", "mon").subscribe("quiet.>", lambda *a: None)
    publisher = bus.client("node00", "pub")
    for n in range(120):
        publisher.publish("feed.tick", {"n": n})
    bus.run_for(10.0)
    assert got == list(range(120))
    quiet = bus.daemons["node02"]
    snapshot = quiet.metrics.snapshot()
    skipped_envelopes = snapshot[
        "daemon.node02.wire.skipped_envelopes"]["value"]
    assert quiet.skipped_frames > 0
    assert skipped_envelopes >= quiet.skipped_frames
    assert bus.daemons["node01"].skipped_frames == 0   # interested: full path
    # the skip is invisible to the reliable layer: both daemons tracked
    # the publisher session identically and neither ever NACKed
    session = bus.daemons["node00"].session
    interested = bus.daemons["node01"].peers[session].stats
    gated = quiet.peers[session].stats
    assert gated.delivered.value == interested.delivered.value
    assert gated.nacks_sent.value == interested.nacks_sent.value == 0
    assert snapshot["daemon.node02.wire.skipped_frames"]["value"] == \
        quiet.skipped_frames


@pytest.mark.parametrize("typed", [False, True], ids=["dict", "typed"])
def test_gate_is_invisible_beside_the_full_decode(monkeypatch, typed):
    """The gate's reference is its own fall-through: the golden-run
    scenario (corruption, repair, mid-stream subscribe/unsubscribe, one
    daemon with no interest) twice on one seed, once as is and once with
    every frame sent down the full decode.  Deliveries, trace, drop
    counters, wire bytes and every receiver's reliable stats must be
    identical; only the skip counter may tell the runs apart."""
    gated = pivot_run(typed)
    monkeypatch.setattr(BusDaemon, "_gate_datagram",
                        lambda self, data: False)
    wire.configure_decode_memo()
    ungated = pivot_run(typed)
    assert gated.pop("skipped_frames") > 0
    assert ungated.pop("skipped_frames") == 0
    assert gated == ungated


def test_receiver_that_gave_up_keeps_up_without_futile_repair():
    """The corner after a gap is given up (docs/PROTOCOLS.md).  An
    uninterested daemon misses frames that defined a new subject id and
    a new sender id, the sender's retention moves past them, and its
    first NACK is answered that they are gone, so the receiver skips
    them as unrecoverable.  Afterwards an id only the bodies cite (the
    sender) is never needed — those frames skip from the digest with no
    repair traffic — and an id the digest cites (the subject) costs
    exactly one drop and one NACK: the self-contained RETRANS re-defines
    it and the stream skips again."""
    bus = make_bus(seed=5, hosts=2,
                   reliable=ReliableConfig(retention=4, nack_max=3))
    got = []
    bus.client("node01", "mon").subscribe("quiet.>",
                                          lambda s, p, i: got.append(s))
    pub = bus.client("node00", "pub")
    other = bus.client("node00", "other")
    for n in range(5):
        pub.publish("feed.a", {"n": n})
    bus.run_for(1.0)
    bus.partition({"node00"}, {"node01"})
    for n in range(10):                    # both new ids are defined here
        pub.publish("feed.b", {"n": n})
        other.publish("feed.a", {"n": n})
    for n in range(4):                     # all that retention still holds
        pub.publish("feed.a", {"n": n})
    bus.run_for(1.0)
    bus.heal()
    bus.run_for(10.0)
    daemon = bus.daemons["node01"]
    stats = daemon.peers[bus.daemons["node00"].session].stats
    assert (stats.unrecoverable.value, stats.messages_lost.value) == (20, 0)
    assert stats.nacks_sent.value == 1           # answered: gone

    skipped = daemon.skipped_frames
    for n in range(10):                    # lost id cited by bodies only
        bus.sim.schedule(0.05 * n, other.publish, "feed.a", {"n": n})
    bus.run_for(5.0)
    assert daemon.skipped_frames == skipped + 10
    assert (stats.nacks_sent.value, daemon.unresolved_dropped) == (1, 0)

    for n in range(10):                    # lost id cited by the digest
        bus.sim.schedule(0.05 * n, pub.publish, "feed.b", {"n": n})
    bus.run_for(5.0)
    assert (stats.nacks_sent.value, daemon.unresolved_dropped) == (2, 1)
    assert daemon.skipped_frames == skipped + 19
    assert (stats.unrecoverable.value, stats.messages_lost.value) == (20, 0)
    assert stats.gaps_skipped.value == 0
    assert stats.delivered.value == 49 - 20      # in step with the sender again
    assert got == []


def test_late_interest_subscribe_mid_stream():
    """Satellite: the late-interest boundary (docs/PROTOCOLS.md).  While
    uninterested, a daemon *consumes* the stream — window advanced,
    bodies dropped.  A mid-stream subscribe is honoured from the very
    next frame; the skipped prefix is gone for good and is NOT repaired
    (it was delivered-by-choice, not lost), so no NACK ever fires."""
    bus = make_bus(seed=7, hosts=2)
    late_box = []
    client = bus.client("node01", "mon")
    client.subscribe("quiet.>", lambda *a: None)   # daemon up, no interest
    publisher = bus.client("node00", "pub")
    for n in range(30):
        bus.sim.schedule(0.01 + n * 0.02, publisher.publish,
                         "feed.tick", {"n": n})
    join_at = 0.35
    bus.sim.schedule(join_at, client.subscribe, "feed.>",
                     lambda s, p, i: late_box.append(p["n"]))
    bus.run_for(30.0)
    daemon = bus.daemons["node01"]
    assert daemon.skipped_frames > 0               # the prefix was gated
    assert late_box, "late subscriber heard nothing"
    assert late_box == list(range(late_box[0], 30))  # contiguous suffix
    assert late_box[0] > 0                          # prefix really skipped
    session = bus.daemons["node00"].session
    assert daemon.peers[session].stats.nacks_sent.value == 0
    assert daemon.peers[session].stats.delivered.value == 30


def test_exactly_once_under_corruption_with_gating():
    """Satellite: a corrupted frame (digest region included) drops whole
    and arms repair exactly as before gating existed — interested daemons
    recover exactly-once, uninterested daemons still skip clean frames."""
    bus = make_bus(seed=11, hosts=5)
    bus.lan.corrupt_rate = 0.15
    inboxes = {}
    for i in (1, 2, 3):
        box = []
        inboxes[f"node{i:02d}"] = box
        bus.client(f"node{i:02d}", "mon").subscribe(
            "feed.>", lambda s, p, i, box=box: box.append(p["n"]))
    bus.client("node04", "mon").subscribe("quiet.>", lambda *a: None)
    publisher = bus.client("node00", "pub")
    for n in range(80):
        publisher.publish("feed.tick", {"n": n})
    bus.run_for(60.0)
    assert bus.lan.frames_corrupted > 0
    assert sum(d.corrupt_dropped for d in bus.daemons.values()) > 0
    for address, box in inboxes.items():
        assert box == list(range(80)), f"{address} saw {len(box)}"
    assert bus.daemons["node04"].skipped_frames > 0


def test_a_digest_naming_another_session_is_a_counted_corrupt_drop():
    """Digest flag 0x02 through real sockets: every daemon that hears
    the frame — interested in its subject or not — drops it as corrupt,
    once, learns nothing of the session, and hears its next frame."""
    bus = make_bus()
    bus.client("node01", "mon").subscribe("zq.>", lambda *a: None)
    socket = evil_socket(bus)
    socket.broadcast(with_digest_flag(0x02, session="evil#0"), DAEMON_PORT)
    bus.run_for(1.0)
    for daemon in bus.daemons.values():
        assert daemon.corrupt_dropped == 1
        assert not daemon.peers and daemon.skipped_frames == 0
    socket.broadcast(with_digest_flag(0, session="evil#0"), DAEMON_PORT)
    bus.run_for(1.0)
    for daemon in bus.daemons.values():
        assert daemon.corrupt_dropped == 1
        assert daemon.peers["evil#0"].stats.delivered.value == 1


def test_guaranteed_frames_take_full_path():
    """Ledgered envelopes run the ack+dedupe protocol on every daemon,
    subscriber or not — the gate must never skip them."""
    bus = make_bus(seed=5)
    got = []
    bus.client("node02", "ledger").subscribe(
        "g.>", lambda s, p, i: got.append(p["n"]), durable=True)
    publisher = bus.client("node00", "pub")
    for n in range(15):
        publisher.publish("g.event", {"n": n}, qos=QoS.GUARANTEED)
    bus.run_for(30.0)
    assert sorted(got) == list(range(15))
    assert bus.daemons["node00"].guaranteed_pending() == []
    # node03 subscribes to nothing, yet decoded every ledgered frame
    assert bus.daemons["node03"].skipped_frames == 0


def test_router_forwarding_interest_rides_the_gate():
    """A router leg's forwarding patterns live in its host daemon's
    subscription trie, so the digest gate consults the forwarding table
    for free: non-forwarded subjects are skipped on the router's bus,
    forwarded ones are decoded and cross."""
    sim = Simulator(seed=1)
    config = BusConfig()
    config.advert_interval = 0.5
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=config)
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=config)
    east.add_hosts(3, prefix="e")
    west.add_hosts(2, prefix="w")
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string")]))
    received = []
    west.client("w00", "monitor").subscribe(
        "news.>", lambda s, o, i: received.append(s))
    sim.run_until(2.0)                 # advert propagates; leg subscribes
    pub = east.client("e00", "feed", registry=reg)
    story = DataObject(reg, "story", headline="X")
    for _ in range(25):
        pub.publish("sports.scores", story)    # nobody anywhere wants it
    sim.run_until(4.0)
    gated = [east.daemons[h].skipped_frames for h in ("e01", "e02")]
    assert all(count > 0 for count in gated), gated
    assert all(leg.messages_forwarded == 0 for leg in router.legs.values())
    pub.publish("news.equity.gmc", story)      # forwarded: full path
    sim.run_until(6.0)
    assert received == ["news.equity.gmc"]
