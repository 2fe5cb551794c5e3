"""The bus wire codec: every packet the daemons exchange, as real bytes.

The paper's implementation sends marshalled messages as "UDP packets in
combination with a retransmission protocol" (Section 3.1).  This module
is that marshalling for the daemon-to-daemon protocol: it encodes every
:class:`~repro.core.message.Packet` kind (DATA, RETRANS, NACK, HEARTBEAT,
ACK) and the :class:`~repro.core.message.Envelope`\\ s inside it to a
length-prefixed, checksummed frame (:mod:`repro.sim.framing`), and
decodes frames back at the receiving socket boundary — so no object ever
crosses hosts by reference, sizes on the wire are the sizes of the bytes
actually sent, and corruption is detectable.

Envelope encodings are cached on the envelope (keyed by its stamped
``(session, seq)`` identity), so the broadcast path encodes each
published message exactly once no matter how many consumers hear it, and
NACK repairs re-send the retained bytes instead of re-marshalling.

Wire header compression
-----------------------

Small payloads are dwarfed by their headers: ``subject``, ``sender``,
``ledger_id``, and ``via`` hops repeat on every envelope a session
publishes.  A publishing daemon may therefore hold a
:class:`StringTable` that assigns dense varint ids to header strings in
first-use order (HPACK-style; ids are never reassigned for the life of
the session), and encode DATA/RETRANS frames with ids in place of
strings.  Each frame stays *self-contained*:

* a DATA frame carries inline ``(id, string)`` definitions for every id
  *first used* in that frame;
* a RETRANS frame carries definitions for **all** ids it references, so
  NACK repairs and late joiners decode without having seen the original
  defining DATA frame.

Receivers learn ``id -> string`` mappings per sender session (the
session name rides every frame in the clear) from those definition
sections.  A frame that references an id the receiver has not learned is
a *decodable-but-unresolvable* condition — structurally parseable (ids
never change field widths), but semantically incomplete.  The decoder
applies the frame's definitions (the frame passed its CRC, so they are
intact), then raises :class:`UnresolvedStringId` carrying the envelope
seq range; the daemon treats it exactly like a gap: drop the frame and
NACK, never crash.  HEARTBEAT/NACK/ACK packets are never compressed —
they are rare, small, and must be readable with zero session state.

Decoding is one staged walk with one memo.  A frame is parsed by a
single private walker in five stages — (1) header, (2) string defs,
(3) typedefs, (4) subject digest, (5) envelope bodies —
:func:`read_digest` is that walk stopped after stage 4 and
:func:`decode_packet` is all five, so flag validity, table effects and
unresolved-id rules are judged once, identically, for both.  A
broadcast is the *same* byte buffer at every receiving daemon, so the
walker keeps a small LRU keyed by the exact frame bytes whose entry
records *how far that frame has been parsed*: each unique buffer is
CRC-checked and its prefix parsed once per fan-out instead of once per
receiver, and a full decode that finds a digest-stage entry resumes at
the bodies.  This is safe because parsing is a pure function of the
bytes *and the receiver's session tables*: an entry records which ids
the frame defined (``defines``) and which it relied on (``needs`` — the
digest's apart from the bodies', so a digest hit never fails a receiver
for an id only the bodies cite), and every hit replays the definitions
into the receiver's table and validates every needed id *by value*
against it — a receiver that has not learned an id gets
:class:`UnresolvedStringId` from the memo exactly as it would from a
fresh walk, and a (contrived) byte-identical frame meeting a
conflicting table bypasses the memo entirely.  It is fault-honest
because a receiver-side bit flip (``corrupt_rate``) produces a
*different* buffer that misses the memo and fails its own CRC check —
every afflicted receiver still rejects its own corrupted copy.
Failures are never cached.  :func:`configure_decode_memo` resizes or
disables the memo (capacity 0 is the reference the differential
decoder fuzz compares against).

The session type plane
----------------------

Type metadata gets the same treatment one layer up (see
:mod:`repro.core.typeplane`): a publishing daemon may hold a
:class:`~repro.core.typeplane.TypeTable` assigning dense varint ids to
type-descriptor fingerprints, and payloads marshalled with
:func:`repro.objects.marshal.encode_typed` reference those ids instead
of carrying the full description closure per message.  The matching
definitions ride in a **typedef region** on the frames (flag ``0x20``),
under exactly the string-table rules: a DATA frame defines ids on their
first wire appearance, a RETRANS frame re-defines *all* ids its
envelopes reference, and the region additionally lists the frame's full
reference set so :func:`read_digest` validates resolvability in
O(header) — gated and ungated receivers fail identically.  Definitions
are opaque byte strings (marshalled ``describe()`` dicts) the wire
layer never parses; receivers accumulate them in the session's
record (``PeerSession.types``).  A frame referencing an unlearned type
id raises :class:`UnresolvedTypeId` — same drop + NACK arming as
:class:`UnresolvedStringId` (which takes precedence when both are
missing, keeping the two decode paths deterministic).  The typedef
region is independent of header compression and absent when no envelope
in the frame carries typed payloads, so untyped traffic pays nothing.

Subject digests and the interest gate
-------------------------------------

On a broadcast bus most daemons are uninterested in most frames, yet
every daemon hears every DATA frame.  So DATA and RETRANS frames lead
with a **subject digest**: one tiny entry per envelope — subject,
seq, and a guaranteed-delivery marker — placed *before* the envelope
bodies.  :func:`read_digest` parses just the frame header,
the defs section, and the digest in O(header) time, letting a receiving
daemon ask "does anything here match my subscriptions?" without ever
materializing the bodies.  When nothing matches, the daemon advances
its reliable session window straight from the digest's seq spans
(:meth:`repro.core.reliable.ReliableReceiver.try_skip`) and drops the
frame unparsed — O(header) instead of O(frame) per uninteresting frame.
Crucially a skipped frame still replays the table definitions it
carries (the defs section precedes the digest), so skipping never
starves the receiver's string table.  A digest read leaves its parse
in the frame memo at stage 4; whichever receiver does want the frame
picks it up there and only walks the bodies.

Frame body layout (all integers varint unless noted)::

    packet     := kind:u8 flags:u8 session:str session_start:f64
                  last_seq [first last] [ack_ledger_id:str]
                  [ack_consumer:str] [defs] [tdefs] [digest] count envelope*
    defs       := def_count (id string:str)*          # iff flags COMPRESSED
    tdefs      := tdef_count (tid desc:bytes)*
                  tref_count tid*                     # iff flags TYPED
    digest     := entry_count entry*                  # iff flags DIGEST
    entry      := dflags:u8 subject seq
    envelope   := flags:u8 subject:str sender:str seq publish_time:f64
                  [ledger_id:str] via_count via:str* payload:bytes
    envelope'  := flags:u8 subject_id sender_id seq publish_time:f64
                  [ledger_id_id] via_count via_id* payload:bytes
                                                      # iff flags COMPRESSED

One frame, one session: every envelope and digest entry in a frame
belongs to the session its header names (a daemon only ever sends its
own), so the session is written once per frame and a frame mixing
sessions cannot be written down.  QoS rides the ledger flag: envelope
flag ``0x01`` says a ``ledger_id`` follows, which is exactly what makes
an envelope guaranteed, so no separate qos field is sent.

``flags`` marks which optional fields follow (packet bit ``0x08`` =
COMPRESSED, ``0x10`` = DIGEST, set on every DATA/RETRANS frame,
``0x20`` = TYPED, set when any envelope references session type ids).
``tdefs`` carries ``(type id, definition bytes)`` pairs followed by the
frame's full type-reference list (``tref_count tid*``) — definitions
are applied, references validated, on both decode paths.
A digest ``subject`` is a table id iff the frame is COMPRESSED, else an
inline string.  ``dflags`` bit ``0x01`` marks a guaranteed (ledgered)
envelope — those always take the full decode path; any other bit is a
:class:`CorruptFrame`.  ``entry_count``
must equal the body ``count``; a digest lists exactly the envelopes
behind it, and the encoder derives it from the same envelope objects,
so a CRC-valid frame's digest can only disagree with its bodies if the
*encoder* was hostile (the CRC protects both regions against channel
corruption).  Strings are UTF-8 with a varint length prefix; ``f64`` is
a big-endian IEEE double.  Decoded header strings are ``sys.intern``\\ ed
so the subject-match memo and per-app lanes key on identical objects,
and the parse itself runs on a single :class:`~repro.sim.framing.Cursor`
over a zero-copy view of the frame — in the compressed steady state a
header string is a table lookup, not an allocation.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from io import BytesIO
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..sim.framing import (CorruptFrame, Cursor, frame, unframe_view,
                           write_bytes, write_f64, write_str, write_varint)
from .message import Envelope, Packet, PacketKind, QoS
from .metrics import MetricsRegistry

__all__ = ["CorruptFrame", "DEFAULT_DECODE_MEMO_CAPACITY",
           "FrameDigest", "StringTable",
           "UnresolvedStringId", "UnresolvedTypeId",
           "configure_decode_memo",
           "decode_memo_stats", "decode_packet", "encode_envelope",
           "read_digest", "wire_metrics",
           "encode_envelope_compressed", "encode_packet",
           "envelope_wire_size", "packet_wire_size"]

_KIND_TO_CODE = {
    PacketKind.DATA: 0,
    PacketKind.RETRANS: 1,
    PacketKind.NACK: 2,
    PacketKind.HEARTBEAT: 3,
    PacketKind.ACK: 4,
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

# packet flag bits
_P_NACK_RANGE = 0x01
_P_ACK_LEDGER = 0x02
_P_ACK_CONSUMER = 0x04
_P_COMPRESSED = 0x08
_P_DIGEST = 0x10
_P_TYPED = 0x20

#: region flags: valid only on the kinds that carry envelopes
_P_REGIONS = _P_COMPRESSED | _P_DIGEST | _P_TYPED
_ENVELOPE_KINDS = (PacketKind.DATA, PacketKind.RETRANS)

# envelope flag bits
_E_LEDGER = 0x01

# digest entry flag bits
_D_LEDGER = 0x01     # guaranteed envelope: receivers must decode fully

_intern = sys.intern


class UnresolvedIds(CorruptFrame):
    """A CRC-valid frame referenced session ids this receiver lacks.

    Raised after the frame's own definitions have been applied to the
    receiver's table.  Carries enough metadata for the reliability layer
    to treat the drop like a gap and arm a NACK
    (:meth:`~repro.core.reliable.ReliableReceiver.note_undecodable`).
    """

    _what = "ids"

    def __init__(self, session: str, missing: Iterable[int],
                 first_seq: int, last_seq: int, session_start: float):
        self.session = session
        self.missing = frozenset(missing)
        self.first_seq = first_seq
        self.last_seq = last_seq
        self.session_start = session_start
        super().__init__(
            f"unresolved {self._what} {sorted(self.missing)} in frame "
            f"from {session!r} (seqs {first_seq}..{last_seq})")


class UnresolvedStringId(UnresolvedIds):
    """A compressed frame referenced string ids this receiver has not
    learned (see "Wire header compression" above)."""

    _what = "string ids"


class UnresolvedTypeId(UnresolvedIds):
    """A typed frame referenced session type ids this receiver has not
    learned (see "The session type plane" above).  When a frame is
    missing both string and type ids, :class:`UnresolvedStringId` wins —
    both decode paths check strings first."""

    _what = "type ids"


class StringTable:
    """Sender-side header-string table for one daemon session.

    Ids are assigned densely from 0 in first-use order and never
    reassigned; the table lives and dies with the session (a restarted
    daemon gets a new session name *and* a new table, so receivers never
    mix mappings across incarnations).
    """

    __slots__ = ("ids", "strings")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def __len__(self) -> int:
        return len(self.strings)

    def intern(self, text: str) -> Tuple[int, bool]:
        """Id for ``text``, assigning the next id on first use.

        Returns ``(id, is_new)``; ``is_new`` tells the packet encoder the
        frame being built must carry the inline definition.
        """
        idx = self.ids.get(text)
        if idx is not None:
            return idx, False
        idx = len(self.strings)
        self.ids[text] = idx
        self.strings.append(_intern(text))
        return idx, True


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------

def _write_header_str(out: BytesIO, text: str,
                      table: Optional[StringTable],
                      refs: Optional[List[int]],
                      own_defs: Optional[List[Tuple[int, str]]]) -> None:
    """One header string: inline, or (``table`` given: a compressed
    frame) its session string-table id, noted in ``refs`` — and in
    ``own_defs`` when this call assigned it."""
    if table is None:
        write_str(out, text)
        return
    idx, is_new = table.intern(text)
    if is_new:
        own_defs.append((idx, table.strings[idx]))
    refs.append(idx)
    write_varint(out, idx)


def _write_envelope_body(envelope: Envelope,
                         table: Optional[StringTable] = None,
                         refs: Optional[List[int]] = None,
                         own_defs: Optional[List[Tuple[int, str]]] = None
                         ) -> bytes:
    """The one envelope body writer; header strings go out through
    :func:`_write_header_str`."""
    out = BytesIO()
    flags = _E_LEDGER if envelope.ledger_id is not None else 0
    out.write(bytes((flags,)))
    _write_header_str(out, envelope.subject, table, refs, own_defs)
    _write_header_str(out, envelope.sender, table, refs, own_defs)
    write_varint(out, envelope.seq)
    write_f64(out, envelope.publish_time)
    if envelope.ledger_id is not None:
        _write_header_str(out, envelope.ledger_id, table, refs, own_defs)
    write_varint(out, len(envelope.via))
    for hop in envelope.via:
        _write_header_str(out, hop, table, refs, own_defs)
    write_bytes(out, envelope.payload)
    return out.getvalue()


def encode_envelope(envelope: Envelope) -> bytes:
    """Encoded body bytes for one envelope (cached on the envelope).

    The cache key is the stamped ``(session, seq)`` identity: stamping by
    the reliable sender changes both, invalidating any pre-stamp entry,
    and after stamping envelopes are immutable on the send path — so the
    broadcast fan-out and every NACK repair reuse one encoding.
    """
    cached = getattr(envelope, "_wire_cache", None)
    key = (envelope.session, envelope.seq)
    if cached is not None and cached[0] == key:
        return cached[1]
    body = _write_envelope_body(envelope)
    envelope._wire_cache = (key, body)
    return body


def encode_envelope_compressed(
        envelope: Envelope, table: StringTable,
        new_defs: List[Tuple[int, str]]) -> Tuple[bytes, Tuple[int, ...]]:
    """Compressed body + referenced ids for one envelope.

    Header strings are replaced by ids from ``table``; any id assigned
    during this call is appended to ``new_defs`` so the enclosing DATA
    frame can carry its definition.  Cached on the envelope alongside the
    plain encoding, keyed by ``(session, seq)`` *and* the table identity.
    The defs this envelope introduced are cached too and replayed on a
    hit — so encoding the same packet twice yields identical bytes, and
    the frame that carries an envelope always carries the definitions it
    was responsible for (redundant re-definitions are idempotent at the
    receiver).
    """
    cached = getattr(envelope, "_wire_cache_z", None)
    key = (envelope.session, envelope.seq)
    if cached is not None and cached[0] == key and cached[1] is table:
        new_defs.extend(cached[4])
        return cached[2], cached[3]
    refs: List[int] = []
    own_defs: List[Tuple[int, str]] = []
    body = _write_envelope_body(envelope, table, refs, own_defs)
    new_defs.extend(own_defs)
    envelope._wire_cache_z = (key, table, body, tuple(refs),
                              tuple(own_defs))
    return body, tuple(refs)


def envelope_wire_size(envelope: Envelope) -> int:
    """Bytes this envelope contributes to an *uncompressed* packet body.

    Deliberately mode-independent: batching thresholds and tests measure
    against the canonical encoding, so turning compression on or off
    never changes batching decisions.
    """
    return len(encode_envelope(envelope))


# ----------------------------------------------------------------------
# packets
# ----------------------------------------------------------------------

def _write_digest(out: BytesIO, packet: Packet,
                  table: Optional[StringTable]) -> None:
    """Write the subject-digest region: one entry per envelope body.

    With ``table`` (compressed frames) subjects are written as table
    ids; every id is already interned — the envelope bodies were encoded
    first (their defs precede the digest on the wire), and a body always
    references its subject.
    """
    ids = None if table is None else table.ids
    write_varint(out, len(packet.envelopes))
    for envelope in packet.envelopes:
        out.write(bytes((_D_LEDGER if envelope.ledger_id is not None
                         else 0,)))
        if ids is None:
            write_str(out, envelope.subject)
        else:
            write_varint(out, ids[envelope.subject])
        write_varint(out, envelope.seq)


def _write_typedefs(out: BytesIO, packet: Packet, type_table,
                    trefs: Set[int]) -> None:
    """Write the typedef region: definitions, then the full ref list.

    DATA frames define ids on their first wire appearance (tracked by
    the table's ``wire_defined`` set — consulted here, at encode time,
    so an envelope shed before reaching the wire never consumes a
    definition); RETRANS frames re-define every id they reference, so
    repairs and late joiners resolve with zero receiver state.
    """
    refs_sorted = sorted(trefs)
    if packet.kind is PacketKind.RETRANS:
        def_ids = refs_sorted
    else:
        def_ids = type_table.pending_defs(refs_sorted)
    write_varint(out, len(def_ids))
    for tid in def_ids:
        write_varint(out, tid)
        write_bytes(out, type_table.blob(tid))
    write_varint(out, len(refs_sorted))
    for tid in refs_sorted:
        write_varint(out, tid)
    _typedef_defined.value += len(def_ids)


def encode_packet(packet: Packet, table: Optional[StringTable] = None,
                  type_table=None) -> bytes:
    """Encode ``packet`` to one checksummed wire frame.

    With ``table`` (the sending daemon's :class:`StringTable`), DATA and
    RETRANS frames are header-compressed: DATA defines ids first used in
    this frame, RETRANS defines every id it references (self-contained
    repair).  Other kinds — and any packet when ``table`` is ``None`` —
    use the plain encoding.  With ``type_table`` (the daemon's
    :class:`~repro.core.typeplane.TypeTable`), frames whose envelopes
    carry ``type_refs`` get a typedef region under the same
    define-on-DATA / redefine-all-on-RETRANS rules.  DATA and RETRANS
    frames always carry a subject digest ahead of the envelope bodies
    (see the module docstring) so receivers can interest-gate without
    decoding them.
    """
    digest = packet.kind in _ENVELOPE_KINDS
    compress = table is not None and digest
    trefs: Set[int] = set()
    if type_table is not None and digest:
        for envelope in packet.envelopes:
            trefs.update(getattr(envelope, "type_refs", ()))
    out = BytesIO()
    try:
        out.write(bytes((_KIND_TO_CODE[packet.kind],)))
    except KeyError:
        raise ValueError(f"unknown packet kind {packet.kind!r}") from None
    flags = 0
    if packet.nack_range is not None:
        flags |= _P_NACK_RANGE
    if packet.ack_ledger_id is not None:
        flags |= _P_ACK_LEDGER
    if packet.ack_consumer is not None:
        flags |= _P_ACK_CONSUMER
    if compress:
        flags |= _P_COMPRESSED
    if digest:
        flags |= _P_DIGEST
    if trefs:
        flags |= _P_TYPED
    out.write(bytes((flags,)))
    write_str(out, packet.session)
    write_f64(out, packet.session_start)
    write_varint(out, packet.last_seq)
    if packet.nack_range is not None:
        write_varint(out, packet.nack_range[0])
        write_varint(out, packet.nack_range[1])
    if packet.ack_ledger_id is not None:
        write_str(out, packet.ack_ledger_id)
    if packet.ack_consumer is not None:
        write_str(out, packet.ack_consumer)
    if compress:
        new_defs: List[Tuple[int, str]] = []
        bodies: List[bytes] = []
        all_refs: Set[int] = set()
        for envelope in packet.envelopes:
            body, refs = encode_envelope_compressed(envelope, table, new_defs)
            bodies.append(body)
            all_refs.update(refs)
        if packet.kind is PacketKind.RETRANS:
            def_pairs = [(idx, table.strings[idx]) for idx in sorted(all_refs)]
        else:
            def_pairs = new_defs
        write_varint(out, len(def_pairs))
        for idx, text in def_pairs:
            write_varint(out, idx)
            write_str(out, text)
    else:
        bodies = [encode_envelope(envelope) for envelope in packet.envelopes]
    if trefs:
        _write_typedefs(out, packet, type_table, trefs)
    if digest:
        _write_digest(out, packet, table if compress else None)
    write_varint(out, len(bodies))
    for body in bodies:
        out.write(body)
    return frame(out.getvalue())


#: Default bound on memoized frame parses.  Sized for the fan-out
#: window: a frame only repeats while N daemons hear one broadcast, so a
#: few hundred entries cover even deep outbound queues.
DEFAULT_DECODE_MEMO_CAPACITY = 256

# frame bytes -> how far that frame has been parsed (a _Parse).  The
# memo is process-global (deliberately: the N receivers of one broadcast
# share a single parse), so its counters live in a module-level registry
# rather than any one daemon's — and are therefore NOT part of
# per-daemon ``_bus.stat.*`` snapshots, where self-referential stat
# frames hitting the shared memo would make publishing perturb the very
# counters being published.
_memo: "OrderedDict[bytes, _Parse]" = OrderedDict()
_memo_capacity = DEFAULT_DECODE_MEMO_CAPACITY

_wire_metrics = MetricsRegistry()
_decode_memo_hits = _wire_metrics.counter("wire.decode_memo.hits")
_decode_memo_misses = _wire_metrics.counter("wire.decode_memo.misses")
_wire_metrics.gauge("wire.decode_memo.capacity",
                    source=lambda: _memo_capacity)
_wire_metrics.gauge("wire.decode_memo.size", source=lambda: len(_memo))
_digest_memo_hits = _wire_metrics.counter("wire.digest_memo.hits")
_digest_memo_misses = _wire_metrics.counter("wire.digest_memo.misses")
_wire_metrics.gauge("wire.digest_memo.size", source=lambda: len(_memo))
#: typedef-region accounting: definitions written by encoders vs
#: definitions learned by fresh (non-memoized) walks of a typedef region
_typedef_defined = _wire_metrics.counter("wire.typedef.defined")
_typedef_learned = _wire_metrics.counter("wire.typedef.learned")


def wire_metrics() -> MetricsRegistry:
    """The module-level registry holding the decode-memo, digest-memo
    and typedef (``wire.typedef.*``) instruments."""
    return _wire_metrics


def configure_decode_memo(capacity: int = DEFAULT_DECODE_MEMO_CAPACITY
                          ) -> None:
    """Resize the frame memo (0 disables it); clears entries and every
    module-level wire counter (memo hit/miss, ``wire.typedef.*``) so
    runs start cold."""
    global _memo_capacity
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0 (got {capacity})")
    _memo_capacity = capacity
    _memo.clear()
    for counter in (_decode_memo_hits, _decode_memo_misses,
                    _digest_memo_hits, _digest_memo_misses,
                    _typedef_defined, _typedef_learned):
        counter.reset()


def decode_memo_stats() -> Dict[str, int]:
    """Hit/miss/size counters for benches and cache-honesty tests (a
    dict view over the :func:`wire_metrics` registry instruments)."""
    return {"capacity": _memo_capacity, "size": len(_memo),
            "hits": _decode_memo_hits.value,
            "misses": _decode_memo_misses.value}


class FrameDigest:
    """What :func:`read_digest` learns about a frame without decoding it.

    ``seqs`` is one sequence number per envelope body, in frame order
    (all of ``session``: a frame is one session's); ``subjects`` the
    distinct subjects in first-seen order
    (what the interest gate matches); ``needs_full`` is True when any
    envelope must take the full decode path regardless of local interest
    (guaranteed/ledgered envelopes, whose ack+dedupe protocol runs even
    with no subscriber, and unsequenced ``seq == 0`` telemetry frames).
    """

    __slots__ = ("session", "subjects", "seqs", "needs_full")

    def __init__(self, session: str, subjects: Tuple[str, ...],
                 seqs: List[int], needs_full: bool):
        self.session = session
        self.subjects = subjects
        self.seqs = seqs
        self.needs_full = needs_full


class _Parse:
    """One frame's parse, as far as it has got — what the memo holds.

    Stages 1-4 (header, string defs, typedefs, digest) fill everything
    but the bodies: ``packet`` has its header fields and no envelopes,
    ``digest`` is the :class:`FrameDigest` (``None`` for a frame without
    one), ``rest`` is the unparsed remainder of the frame body — the
    envelope region.  Stage 5 fills ``packet.envelopes`` and clears
    ``rest``: a parse with nothing left is complete.

    ``defines`` / ``tdefines`` are the frame's in-frame string / type
    definitions (``None`` when it lacks the region).  ``needs`` maps
    every other string id the *digest* cites to its value at parse time,
    ``body_needs`` every other id the digest *or the bodies* cite — kept
    apart so a digest hit never fails a receiver for an id only the
    bodies use; ``tneeds`` is the same for the typedef reference list,
    which both stages share.
    """

    __slots__ = ("packet", "digest", "rest", "defines", "needs",
                 "body_needs", "tdefines", "tneeds")

    def __init__(self, packet: Packet) -> None:
        self.packet = packet
        self.digest: Optional[FrameDigest] = None
        self.rest: Optional[memoryview] = None
        self.defines = self.needs = self.body_needs = None
        self.tdefines = self.tneeds = None


def _learned(peers, session: str) -> Tuple[Dict[int, str], Dict[int, bytes]]:
    """One receiver's learned string ids and typedef blobs for
    ``session``: the tables of its record in ``peers.sessions``
    (``peers.hear`` makes, or refuses, a missing one); throwaways when
    there is no receiver."""
    if peers is None:
        return {}, {}
    peer = peers.sessions.get(session)
    if peer is None:
        peer = peers.hear(session)
    return peer.strings, peer.types


def _replay(table: Dict[int, object], defines: Dict[int, object],
            needs: Dict[int, object]) -> Optional[Tuple[int, ...]]:
    """Apply a memoized parse's table effects for one receiver.

    The one routine both planes (string ids, type ids) and both entry
    points use: replay the frame's ``defines`` into the receiver's
    session ``table``, then check every id in ``needs`` *by value*.
    Returns the ids this receiver has not learned — or ``None`` when an
    id maps to a different value: colliding table state, so the memoized
    parse is not this receiver's and the caller must walk the frame
    fresh.
    """
    if defines:
        table.update(defines)
    missing = ()
    for idx, value in needs.items():
        have = table.get(idx)
        if have is None:
            missing += (idx,)
        elif have != value:
            return None
    return missing


def _needs(table: Dict[int, object], refs: Iterable[int],
           defines: Dict[int, object]) -> Dict[int, object]:
    """The ``needs`` a fresh walk records: every id in ``refs`` the
    frame did not define itself, mapped to this receiver's value for it
    (``None`` = not learned)."""
    return {idx: table.get(idx) for idx in refs if idx not in defines}


def _read_header_str(cur: Cursor, table: Optional[Dict[int, str]],
                     refs: Set[int]) -> str:
    """One header string: inline, or (``table`` given: a compressed
    frame) a session-table id, noted in ``refs``.  An unlearned id reads
    as ``""``; the walk reports it once the stage is structurally done."""
    if table is None:
        return _intern(cur.str_())
    idx = cur.varint()
    refs.add(idx)
    return table.get(idx, "")


def _walk(data: bytes, peers, bodies: bool) -> _Parse:
    """The one frame parser: header → string defs → typedefs → digest
    [→ bodies], for one receiver, through the memo.

    :func:`read_digest` stops after stage 4 (``bodies`` false);
    :func:`decode_packet` runs all five.  A memoized parse is replayed
    for this receiver (:func:`_replay`) and picked up where it stopped,
    so a decode after a digest read resumes at the bodies.  Structural
    errors raise :class:`CorruptFrame` where they are met; unlearned ids
    raise only once the last requested stage is structurally sound
    (string ids before type ids), so both entry points — memoized or
    not — agree on which error a frame earns.  Failures are never
    stored.
    """
    key = parse = table = None
    hit = False
    missing = tmissing = ()     # string / type ids this receiver lacks
    if _memo_capacity:
        key = bytes(data)
        parse = _memo.get(key)
    if parse is not None:
        # replay for this receiver; on colliding table state the parse
        # is not ours: walk fresh and leave the memo alone
        session = parse.packet.session
        complete = parse.rest is None
        if parse.defines is not None or parse.tdefines is not None:
            strings, types = _learned(peers, session)
            if parse.defines is not None:
                table = strings
                missing = _replay(
                    table, parse.defines,
                    parse.body_needs if bodies and complete else parse.needs)
            if missing is not None and parse.tdefines is not None:
                tmissing = _replay(types, parse.tdefines, parse.tneeds)
        if missing is None or tmissing is None:
            key = parse = table = None
            missing = tmissing = ()
        else:
            _memo.move_to_end(key)
            hit = complete or not bodies
    if parse is None:
        # -- stage 1: header; the one place flags are judged against kind
        cur = Cursor(unframe_view(data))
        kind = _CODE_TO_KIND.get(cur.u8())
        if kind is None:
            raise CorruptFrame("unknown packet kind code")
        flags = cur.u8()
        if flags & _P_REGIONS and kind not in _ENVELOPE_KINDS:
            raise CorruptFrame(
                f"region flags {flags & _P_REGIONS:#x} on {kind.value} packet")
        session = _intern(cur.str_())
        session_start = cur.f64()
        last_seq = cur.varint()
        nack_range = ack_ledger_id = ack_consumer = None
        if flags & _P_NACK_RANGE:
            first = cur.varint()
            nack_range = (first, cur.varint())
        if flags & _P_ACK_LEDGER:
            ack_ledger_id = _intern(cur.str_())
        if flags & _P_ACK_CONSUMER:
            ack_consumer = _intern(cur.str_())
        parse = _Parse(Packet(kind, session, [], nack_range, last_seq,
                              session_start, ack_ledger_id, ack_consumer))
        # -- stage 2: string defs.  The frame passed its CRC, so they
        # are intact: apply them even if resolution fails below or the
        # caller goes on to skip the frame — later frames reference them
        # without redefining, and they make a later repair decodable.
        if flags & (_P_COMPRESSED | _P_TYPED):
            strings, ttable = _learned(peers, session)
        if flags & _P_COMPRESSED:
            table = strings
            defines = parse.defines = {}
            for _ in range(cur.varint()):
                idx = cur.varint()
                table[idx] = defines[idx] = _intern(cur.str_())
        # -- stage 3: typedefs (applied for the same reason), then the
        # frame's full type-reference list
        if flags & _P_TYPED:
            tdefines = parse.tdefines = {}
            for _ in range(cur.varint()):
                tid = cur.varint()
                ttable[tid] = tdefines[tid] = cur.bytes_()
            _typedef_learned.value += len(tdefines)
            trefs = [cur.varint() for _ in range(cur.varint())]
            parse.tneeds = _needs(ttable, trefs, tdefines)
            tmissing = [t for t, blob in parse.tneeds.items() if blob is None]
        # -- stage 4: digest
        refs: Set[int] = set()
        if flags & _P_DIGEST:
            seqs: List[int] = []
            subjects: Dict[str, None] = {}      # distinct, first-seen order
            needs_full = False
            for _ in range(cur.varint()):
                dflags = cur.u8()
                if dflags & ~_D_LEDGER:
                    raise CorruptFrame(f"unknown digest flags {dflags:#x}")
                subjects[_read_header_str(cur, table, refs)] = None
                seq = cur.varint()
                if dflags & _D_LEDGER or seq == 0:
                    needs_full = True
                seqs.append(seq)
            parse.digest = FrameDigest(session, tuple(subjects), seqs,
                                       needs_full)
        if table is not None:
            parse.needs = _needs(table, refs, parse.defines)
            missing = [i for i, text in parse.needs.items() if text is None]
        parse.rest = cur.buf[cur.pos:]
    envelopes = body_needs = None
    if bodies and parse.rest is not None:
        # -- stage 5: bodies.  They are authoritative; the digest only
        # has to list as many envelopes as follow it.
        cur = Cursor(parse.rest)
        count = cur.varint()
        digest = parse.digest
        if digest is not None and len(digest.seqs) != count:
            raise CorruptFrame(f"digest lists {len(digest.seqs)} "
                               f"envelopes, body carries {count}")
        refs = set()
        envelopes = [_read_envelope(cur, table, refs, session)
                     for _ in range(count)]
        if not cur.exhausted:
            raise CorruptFrame(
                f"{cur.remaining()} trailing bytes after packet")
        if table is not None:
            body_needs = _needs(table, refs, parse.defines)
            missing = set(missing).union(
                i for i, text in body_needs.items() if text is None)
            body_needs.update(parse.needs)
    # a frame without a digest gives read_digest nothing to act on — it
    # returns None, the caller decodes fully, and any error surfaces
    # there — so it neither counts in the digest memo nor raises here
    acts = bodies or parse.digest is not None
    if hit and acts:
        (_decode_memo_hits if bodies else _digest_memo_hits).value += 1
    if missing or tmissing:
        if not acts:
            return parse
        packet = parse.packet
        if bodies:
            seqs = [e.seq for e in envelopes or packet.envelopes]
        else:
            seqs = parse.digest.seqs
        # a well-formed frame citing ids has envelopes (the refs come
        # from them), but a hostile encoder's might not: default the span
        seqs = seqs or [0]
        error = UnresolvedStringId if missing else UnresolvedTypeId
        raise error(packet.session, missing or tmissing, min(seqs),
                    max(seqs), packet.session_start)
    if envelopes is not None:
        parse.packet.envelopes = envelopes
        parse.body_needs = body_needs
        parse.rest = None
    if not hit and key is not None:
        if acts:
            (_decode_memo_misses if bodies
             else _digest_memo_misses).value += 1
        # every receiver of this broadcast gets this one Packet and its
        # Envelopes: nothing on the receive path assigns to a decoded
        # envelope, so sharing them is safe
        _memo[key] = parse
        while len(_memo) > _memo_capacity:
            _memo.popitem(last=False)
    return parse


def _read_envelope(cur: Cursor, table: Optional[Dict[int, str]],
                   refs: Set[int], session: str) -> Envelope:
    """One envelope body of a frame from ``session`` (the frame header's:
    the body does not repeat it); qos is read off the ledger flag."""
    flags = cur.u8()
    subject = _read_header_str(cur, table, refs)
    sender = _read_header_str(cur, table, refs)
    seq = cur.varint()
    publish_time = cur.f64()
    qos, ledger_id = QoS.RELIABLE, None
    if flags & _E_LEDGER:
        qos, ledger_id = QoS.GUARANTEED, _read_header_str(cur, table, refs)
    via = tuple([_read_header_str(cur, table, refs)
                 for _ in range(cur.varint())])
    return Envelope(subject, sender, session, seq, cur.bytes_(), qos,
                    ledger_id, publish_time, via)


def decode_packet(data: bytes, peers=None) -> Packet:
    """Decode one wire frame back to a :class:`Packet`.

    ``peers`` is the receiving plane's
    :class:`~repro.core.reliable.ReliableReceiver`, owner of its one
    mapping ``sessions`` (``session ->``
    :class:`~repro.core.reliable.PeerSession`): compressed frames read
    and update a record's ``strings`` (``{id: string}``), typed frames
    its ``types`` (``{type id: definition bytes}``), and a session not
    in the mapping gets its record from ``peers.hear(session)``.
    Without ``peers`` throwaway tables are used, so only fully
    self-contained frames resolve.

    Raises :class:`CorruptFrame` on any framing, checksum, or field
    validation failure, and its subclasses :class:`UnresolvedStringId` /
    :class:`UnresolvedTypeId` when a frame references ids this receiver
    has not learned — the caller drops the frame and lets the
    NACK/heartbeat machinery repair the gap (what ``peers.hear`` raises
    for a session it refuses passes through).  Successful decodes are
    memoized by the exact frame bytes (see the module docstring), so the
    N receivers of one broadcast share a single parse; the memo replays
    each frame's table effects per receiver, keeping per-receiver
    outcomes identical to a fresh parse.
    """
    return _walk(data, peers, True).packet


def read_digest(data: bytes, peers=None) -> Optional[FrameDigest]:
    """Parse just the header, defs, and subject digest of one frame.

    The interest gate's entry point — :func:`decode_packet` stopped
    after stage 4: O(header) work (the CRC check is still O(frame), but
    at C speed), never touching envelope bodies.  Returns ``None`` for
    frames without a digest (HEARTBEAT/NACK/ACK, or pre-digest
    encodings) — the caller must decode fully.  Like
    :func:`decode_packet` it applies the frame's table and typedef
    definitions to the session's record in ``peers`` *even when the
    caller goes on to skip the frame* — a skipped frame must still
    replay what it carries — and raises :class:`UnresolvedStringId` /
    :class:`UnresolvedTypeId` when the digest or the typedef reference
    list cites ids this receiver has not learned (the bodies reference
    at least those same ids, so the full path would fail identically).
    Successful reads are memoized in the same per-frame entry a full
    decode completes, with the same per-receiver ``defines`` replay and
    by-value ``needs`` check.
    """
    return _walk(data, peers, False).digest


def packet_wire_size(packet: Packet) -> int:
    """Bytes ``packet`` occupies on the wire uncompressed, framing included."""
    return len(encode_packet(packet))
