"""Wire header compression at the codec level: string tables, the
self-contained frame rule, and per-receiver decode-memo honesty.

A publishing daemon's :class:`StringTable` assigns dense ids to repeated
header strings; receivers learn ``id -> string`` per session from the
inline definition sections.  The invariants under test:

* a DATA frame defines every id *first used* in it — so the first frame
  of a session decodes with zero prior state;
* later frames reference without redefining — smaller, but unresolvable
  to a receiver that missed the defining frame (a typed, repairable
  failure, never a crash);
* RETRANS frames define **all** ids they reference — repairs always
  decode;
* the definitions of a CRC-valid frame are learned even when the frame
  itself fails to resolve;
* the shared decode memo replays those table effects per receiver, so a
  memo hit and a fresh parse are indistinguishable.
"""

import random

import pytest

from repro.core import Envelope, Packet, PacketKind, QoS
from repro.core import wire
from repro.core.typeplane import TypeTable
from repro.core.wire import (CorruptFrame, StringTable, UnresolvedStringId,
                             decode_packet, encode_packet, read_digest)
from repro.objects import AttributeSpec, TypeDescriptor
from repro.sim.framing import flip_random_bit
from tests.learned import Learned, record


def make_envelope(seq, subject="news.equity.gmc", session="node00#0",
                  **kw):
    return Envelope(subject=subject, sender="node00.pub", session=session,
                    seq=seq, payload=b"payload", publish_time=0.25, **kw)


def data_frame(table, seqs, subject="news.equity.gmc", session="node00#0"):
    envelopes = [make_envelope(seq, subject, session) for seq in seqs]
    return encode_packet(Packet(PacketKind.DATA, session, envelopes,
                                session_start=0.0), table)


class TestStringTable:
    def test_ids_are_dense_and_stable(self):
        table = StringTable()
        assert table.intern("alpha") == (0, True)
        assert table.intern("beta") == (1, True)
        assert table.intern("alpha") == (0, False)
        assert len(table) == 2
        assert table.strings == ["alpha", "beta"]

    def test_compressed_round_trip_equals_plain(self):
        """A session's first frame and the frame encoded with no table
        (a one-frame table) are the same self-contained bytes."""
        table = StringTable()
        envelope = make_envelope(1, qos=QoS.GUARANTEED,
                                 ledger_id="node00/g/1")
        envelope.via = ("wan-router",)
        packet = Packet(PacketKind.DATA, "node00#0", [envelope],
                        session_start=0.5)
        data = encode_packet(packet, table)
        assert data == encode_packet(packet)
        assert decode_packet(data) == packet
        # the ledger id is a plain string: only the header strings are ids
        assert table.strings == ["news.equity.gmc", "node00.pub",
                                 "wan-router"]

    def test_steady_state_frames_are_smaller(self):
        table = StringTable()
        first = data_frame(table, [1])
        second = data_frame(table, [2])
        # the first frame pays for its definitions; from then on every
        # repeated header string costs one or two bytes
        assert len(second) < len(first)

    def test_encoding_is_deterministic(self):
        t1, t2 = StringTable(), StringTable()
        assert data_frame(t1, [1]) == data_frame(t2, [1])


class TestSelfContainedFrames:
    def test_first_frame_decodes_with_zero_state(self):
        table = StringTable()
        packet = decode_packet(data_frame(table, [1]))
        assert packet.envelopes[0].subject == "news.equity.gmc"
        assert packet.envelopes[0].session == "node00#0"

    def test_later_frame_alone_is_unresolvable(self):
        table = StringTable()
        data_frame(table, [1])                    # defines the ids
        second = data_frame(table, [2, 3])        # references only
        with pytest.raises(UnresolvedStringId) as exc:
            decode_packet(second)
        err = exc.value
        assert err.session == "node00#0"
        assert (err.first_seq, err.last_seq) == (2, 3)
        assert err.session_start == 0.0
        assert err.missing                       # the ids it lacked
        assert isinstance(err, CorruptFrame)     # drop-and-repair family

    def test_receiver_table_makes_later_frames_resolvable(self):
        table = StringTable()
        first = data_frame(table, [1])
        second = data_frame(table, [2])
        tables = Learned()
        decode_packet(first, peers=tables)
        packet = decode_packet(second, peers=tables)
        assert packet.envelopes[0].seq == 2
        assert packet.envelopes[0].subject == "news.equity.gmc"

    def test_definitions_survive_a_failed_resolution(self):
        """A CRC-valid frame teaches its defs even when it can't be
        resolved — that is what makes the eventual repair decodable."""
        table = StringTable()
        data_frame(table, [1])                               # lost frame
        second = data_frame(table, [2], subject="news.bond.t30")
        tables = Learned()
        with pytest.raises(UnresolvedStringId):
            decode_packet(second, peers=tables)             # new subject
        learned = set(tables["node00#0"].strings.values())
        assert "news.bond.t30" in learned                    # def learned
        assert "news.equity.gmc" not in learned              # still unknown

    def test_retrans_defines_everything_it_references(self):
        """A NACK repair must decode at a receiver with zero state."""
        table = StringTable()
        data_frame(table, [1])                    # the defining DATA frame
        envelope = make_envelope(1)
        repair = encode_packet(Packet(PacketKind.RETRANS, "node00#0",
                                      [envelope], session_start=0.0), table)
        packet = decode_packet(repair)            # no tables at all
        assert packet.kind is PacketKind.RETRANS
        assert packet.envelopes[0].subject == "news.equity.gmc"

    def test_control_packets_are_never_compressed(self):
        """HEARTBEAT, NACK and ACK cite no header strings: a table
        changes nothing about them."""
        table = StringTable()
        for packet in (
                Packet(PacketKind.HEARTBEAT, "node00#0", last_seq=9),
                Packet(PacketKind.NACK, "node00#0", nack_range=(1, 4)),
                Packet(PacketKind.ACK, "node00#0", ack_ledger_id="x/1",
                       ack_consumer="node01")):
            assert encode_packet(packet, table) == encode_packet(packet)
        assert len(table) == 0                    # nothing interned

    def test_corrupted_compressed_frame_still_crc_fails(self):
        table = StringTable()
        data = data_frame(table, [1])
        for seed in range(64):
            flipped = flip_random_bit(data, random.Random(seed))
            with pytest.raises(CorruptFrame):
                decode_packet(flipped, peers=Learned())


class TestEncodeCache:
    def test_compressed_encoding_computed_once(self):
        table = StringTable()
        envelope = make_envelope(1)
        packet = Packet(PacketKind.DATA, "node00#0", [envelope],
                        session_start=0.0)
        first = encode_packet(packet, table)
        assert encode_packet(packet, table) == first
        cached = envelope._wire_cache_z
        encode_packet(packet, table)
        assert envelope._wire_cache_z is cached   # no re-marshal

    def test_cache_is_table_scoped(self):
        """A router republishes under its own daemon's table: the cached
        compressed body from another table must never be reused."""
        envelope = make_envelope(1)
        t1, t2 = StringTable(), StringTable()
        p = Packet(PacketKind.DATA, "node00#0", [envelope],
                   session_start=0.0)
        encode_packet(p, t1)
        t2.intern("unrelated-string-shifting-ids")
        frame2 = encode_packet(p, t2)
        decoded = decode_packet(frame2)
        assert decoded.envelopes[0].subject == "news.equity.gmc"

    def test_restamped_envelope_invalidates_cache(self):
        table = StringTable()
        envelope = make_envelope(1)
        p = Packet(PacketKind.DATA, "node00#0", [envelope],
                   session_start=0.0)
        tables = Learned()
        decode_packet(encode_packet(p, table), peers=tables)
        envelope.seq = 2          # re-stamped: the cached body is stale
        assert decode_packet(encode_packet(p, table),
                             peers=tables).envelopes[0].seq == 2


class TestDecodeMemoHonesty:
    def test_memo_hit_replays_defs_into_receiver_table(self):
        table = StringTable()
        first = data_frame(table, [1])
        a, b = Learned(), Learned()
        decode_packet(first, peers=a)            # fresh parse
        decode_packet(first, peers=b)            # memo hit
        assert wire.decode_memo_stats()["hits"] == 1
        assert b == a and b["node00#0"].strings   # B learned the same defs

    def test_memo_hit_still_unresolvable_for_cold_receiver(self):
        """Receiver A heard the defining frame; receiver B did not.  The
        shared memo must not leak A's resolution to B."""
        table = StringTable()
        first = data_frame(table, [1])
        second = data_frame(table, [2])
        a, b = Learned(), Learned()
        decode_packet(first, peers=a)
        decode_packet(second, peers=a)           # A resolves; memo primed
        with pytest.raises(UnresolvedStringId) as exc:
            decode_packet(second, peers=b)       # memo hit, B still cold
        assert (exc.value.first_seq, exc.value.last_seq) == (2, 2)
        # after hearing the defining frame (e.g. via repair), B resolves
        decode_packet(first, peers=b)
        packet = decode_packet(second, peers=b)
        assert packet.envelopes[0].subject == "news.equity.gmc"

    def test_conflicting_table_bypasses_memo(self):
        """Two simulations can produce byte-identical frames from
        sessions with colliding names but different tables; a value
        mismatch must bypass the memo and parse fresh against the
        receiver's own table, not serve the first parser's strings."""
        table = StringTable()
        data_frame(table, [1])
        second = data_frame(table, [2])
        a = Learned()
        decode_packet(data_frame(StringTable(), [1]), peers=a)  # same bytes
        served = decode_packet(second, peers=a)  # primes memo with needs
        # a receiver whose table maps the same ids to different strings
        conflicting = Learned({"node00#0": record(
            {i: f"other-{i}" for i in range(8)})})
        packet = decode_packet(second, peers=conflicting)
        assert packet is not served               # not memo-served
        # resolved against the receiver's own table, not A's
        assert packet.envelopes[0].subject != served.envelopes[0].subject
        assert packet.envelopes[0].subject.startswith("other-")
        # and A itself still gets its correct resolution from the memo
        assert decode_packet(second, peers=a) is served

    def test_memo_disabled_still_resolves(self):
        wire.configure_decode_memo(0)
        table = StringTable()
        first, second = data_frame(table, [1]), data_frame(table, [2])
        tables = Learned()
        decode_packet(first, peers=tables)
        assert decode_packet(second,
                             peers=tables).envelopes[0].seq == 2


class TestInterning:
    def test_header_strings_are_interned(self):
        """Subject-match memo and per-app lanes key on identical
        objects: two decodes of the same header yield the same str."""
        table = StringTable()
        first = data_frame(table, [1])
        wire.configure_decode_memo(0)             # force two real parses
        p1 = decode_packet(first, peers=Learned())
        p2 = decode_packet(first, peers=Learned())
        assert p1.envelopes[0].subject is p2.envelopes[0].subject
        assert p1.session is p2.session

    def test_table_resolution_returns_interned_string(self):
        table = StringTable()
        wire.configure_decode_memo(0)
        first, second = data_frame(table, [1]), data_frame(table, [2])
        tables = Learned()
        p1 = decode_packet(first, peers=tables)
        p2 = decode_packet(second, peers=tables)
        assert p1.envelopes[0].subject is p2.envelopes[0].subject


class TestStagedMemoHonesty:
    """One memo entry per frame holds its whole parse, and both entry
    points read it.  Whatever mix of receivers and entry points touches
    an entry, every receiver sees exactly what a memo-less parse would
    have shown it."""

    @staticmethod
    def typed_frames():
        """Two typed+compressed DATA frames; the second only references
        what the first defined."""
        strings, types = StringTable(), TypeTable()
        types.intern(TypeDescriptor(
            "quote", attributes=[AttributeSpec("n", "int")]))
        frames = []
        for seq in (1, 2):
            envelope = make_envelope(seq, type_refs=(0,))
            frames.append(encode_packet(
                Packet(PacketKind.DATA, "node00#0", [envelope],
                       session_start=0.0), strings, type_table=types))
        return strings, frames

    @staticmethod
    def play(script, receivers):
        """Run ``(entry point, frame, receiver)`` steps; per step the
        result (or the exception class) — comparable across memo modes."""
        outcomes = []
        for entry_point, data, name in script:
            try:
                result = entry_point(data, peers=receivers[name])
            except CorruptFrame as error:
                outcomes.append(type(error))
                continue
            if isinstance(result, Packet):
                outcomes.append(result)
            else:
                outcomes.append((result.session, result.subjects,
                                 result.seqs, result.needs_full))
        return outcomes

    def assert_memo_invisible(self, script, make_receivers):
        """Same outcomes and same learned tables, memo on vs off."""
        wire.configure_decode_memo()
        with_memo = make_receivers()
        seen = self.play(script, with_memo)
        wire.configure_decode_memo(0)
        without = make_receivers()
        assert self.play(script, without) == seen
        assert without == with_memo
        return seen

    def test_warm_receiver_digest_then_decode(self):
        _, (first, second) = self.typed_frames()
        script = [(read_digest, first, "a"), (decode_packet, first, "a"),
                  (read_digest, second, "a"), (decode_packet, second, "a")]
        seen = self.assert_memo_invisible(
            script, lambda: {"a": Learned()})
        assert seen[3].envelopes[0].seq == 2

    def test_second_receiver_completes_a_digest_stage_entry(self):
        _, (first, second) = self.typed_frames()
        script = [(read_digest, first, "a"), (read_digest, second, "a"),
                  # b wants what a skipped
                  (read_digest, first, "b"), (decode_packet, first, "b"),
                  (read_digest, second, "b"), (decode_packet, second, "b"),
                  (decode_packet, first, "c"), (decode_packet, second, "c")]
        seen = self.assert_memo_invisible(
            script, lambda: {n: Learned() for n in "abc"})
        assert seen[5] == seen[7]

    def test_completed_packet_is_shared(self):
        strings = StringTable()
        first = data_frame(strings, [1])
        read_digest(first, peers=Learned())
        assert decode_packet(first, peers=Learned()) is \
            decode_packet(first, peers=Learned())

    def test_digest_hit_ignores_ids_only_the_bodies_cite(self):
        """Receiver b knows the digest's id (the subject) but not the
        sender id the bodies use: the digest read serves it, the
        decode fails it — from the memo exactly as from a fresh parse."""
        strings = StringTable()
        first, second = data_frame(strings, [1]), data_frame(strings, [2])
        digest_ids = {strings.ids[text]: text
                      for text in ("news.equity.gmc",)}

        def receivers():
            a = Learned()
            decode_packet(first, peers=a)
            return {"a": a,
                    "b": Learned({"node00#0": record(digest_ids)})}

        for prime in ([(read_digest, second, "a")],
                      [(read_digest, second, "a"),
                       (decode_packet, second, "a")],
                      [(read_digest, second, "b")]):   # b walks it first
            script = prime + [(read_digest, second, "b"),
                              (decode_packet, second, "b"),
                              (decode_packet, second, "a")]
            seen = self.assert_memo_invisible(script, receivers)
            assert seen[-3] == ("node00#0", ("news.equity.gmc",), [2],
                                False)
            assert seen[-2] is UnresolvedStringId
            assert seen[-1].envelopes[0].seq == 2

    def test_failed_completion_is_not_cached(self):
        strings = StringTable()
        data_frame(strings, [1])                    # lost: defines the ids
        second = data_frame(strings, [2])
        warm = Learned({"node00#0": record(enumerate(strings.strings))})
        digest_only = Learned({"node00#0": record({
            strings.ids[text]: text
            for text in ("news.equity.gmc",)})})
        # a walk that did not resolve for its receiver keeps nothing,
        # even where the digest read it served succeeded
        read_digest(second, peers=digest_only)
        for _ in range(3):
            with pytest.raises(UnresolvedStringId):
                decode_packet(second, peers=digest_only)
        stats = wire.decode_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 4, 0)
        read_digest(second, peers=warm)            # a real parse, kept
        with pytest.raises(UnresolvedStringId):    # served, still cold
            decode_packet(second, peers=digest_only)
        stats = wire.decode_memo_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 5, 1)
        # and a frame no stage accepts leaves nothing behind
        wire.configure_decode_memo()
        corrupt = flip_random_bit(second, random.Random(7))
        for entry_point in (read_digest, decode_packet):
            with pytest.raises(CorruptFrame):
                entry_point(corrupt, peers=warm)
        assert wire.decode_memo_stats()["size"] == 0

    def test_conflicting_table_bypasses_either_stage(self):
        strings = StringTable()
        first, second = data_frame(strings, [1]), data_frame(strings, [2])
        a = Learned()
        decode_packet(first, peers=a)
        read_digest(second, peers=a)
        conflicting = Learned({"node00#0": record(
            {i: f"other-{i}" for i in range(8)})})
        assert read_digest(second, peers=conflicting).subjects[0] \
            .startswith("other-")
        packet = decode_packet(second, peers=conflicting)
        assert packet.envelopes[0].subject.startswith("other-")
        # each bypass is a miss, and neither replaced a's entry
        assert wire.decode_memo_stats()["misses"] == 4
        served = decode_packet(second, peers=a)
        assert served.envelopes[0].subject == "news.equity.gmc"
        assert wire.decode_memo_stats()["hits"] == 1
        assert decode_packet(second, peers=a) is served
        assert decode_packet(second, peers=conflicting) is not served

    def test_lru_bound_holds_with_mixed_stage_entries(self):
        wire.configure_decode_memo(capacity=8)
        frames = [data_frame(StringTable(), [seq]) for seq in range(1, 21)]
        for index, data in enumerate(frames):
            read_digest(data)
            if index % 2:
                decode_packet(data)
        assert wire.decode_memo_stats()["size"] == 8
        hits = wire.wire_metrics().counter("wire.decode_memo.hits")
        assert hits.value == 10                     # each decode
        read_digest(frames[-1])                     # newest: retained
        assert hits.value == 11
        read_digest(frames[0])                      # oldest: evicted
        assert hits.value == 11
        assert wire.decode_memo_stats()["size"] == 8

    def test_control_frames_are_crc_checked_once(self, monkeypatch):
        """read_digest on a HEARTBEAT returns None but leaves its parse
        behind: the decode that must follow does not unframe again."""
        calls = []
        real = wire.unframe_view
        monkeypatch.setattr(
            wire, "unframe_view",
            lambda data: calls.append(1) or real(data))
        heartbeat = encode_packet(Packet(PacketKind.HEARTBEAT, "node00#0",
                                         last_seq=9, session_start=0.5))
        assert read_digest(heartbeat) is None
        assert decode_packet(heartbeat).last_seq == 9
        assert len(calls) == 1
        # a frame without a digest counts like any other
        assert read_digest(heartbeat) is None
        stats = wire.decode_memo_stats()
        assert (stats["misses"], stats["hits"]) == (1, 2)
