"""The bus wire codec: every packet the daemons exchange, as real bytes.

The paper's implementation sends marshalled messages as "UDP packets in
combination with a retransmission protocol" (Section 3.1).  This module
is that marshalling for the daemon-to-daemon protocol: it encodes every
:class:`~repro.core.message.Packet` kind (DATA, RETRANS, NACK, HEARTBEAT,
ACK) and the :class:`~repro.core.message.Envelope`\\ s inside it to a
checksummed frame (:mod:`repro.sim.framing`: the body, then its
CRC-32), and decodes frames back at the receiving socket boundary — so
no object ever crosses hosts by reference, sizes on the wire are the
sizes of the bytes actually sent, and corruption is detectable.

Envelope encodings are cached on the envelope (keyed by its stamped
``(session, seq)`` identity and the string table), so the broadcast path
encodes each published message exactly once no matter how many
consumers hear it, and NACK repairs re-send the retained bytes instead
of re-marshalling.

Header strings are session-table ids
------------------------------------

Small payloads are dwarfed by their headers: ``subject``, ``sender`` and
``via`` hops repeat on every envelope a session publishes.  So every
header string on the wire is a varint id into the sending session's
:class:`StringTable`, which assigns dense ids in first-use order
(HPACK-style; ids are never reassigned for the life of the session).
Each frame stays *self-contained*:

* a DATA frame carries inline ``(id, string)`` definitions for every id
  *first used* in that frame;
* a RETRANS frame carries definitions for **all** ids it references, so
  NACK repairs and late joiners decode without having seen the original
  defining DATA frame.

A frame encoded with no table (telemetry) gets a fresh one-frame table,
so it too defines every id it cites.

Receivers learn ``id -> string`` mappings per sender session (the
session name rides every frame in the clear) from those definitions.  A
frame citing an id the receiver has not learned still parses (ids never
change field widths): the decoder applies the frame's definitions (it
passed its CRC), then raises :class:`UnresolvedStringId` carrying the
envelope seq range, which the daemon treats like a gap: drop the frame
and NACK.  HEARTBEAT, NACK and ACK packets cite no header strings.

Decoding is one parse per frame with one memo.  A frame is parsed
whole — header, string defs, typedefs, subject digest, envelope bodies
— by a single private walker; :func:`read_digest` and
:func:`decode_packet` are two views of that one parse, so flag
validity, table effects and unresolved-id rules are judged once,
identically, for both.  A broadcast is the *same* byte buffer at every
receiving daemon, so the walker keeps a small LRU keyed by the exact
frame bytes whose entry is that frame's whole parse: each unique buffer
is CRC-checked and parsed once per fan-out instead of once per
receiver, whichever entry point meets it first.  This is safe because
parsing is a pure function of the
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
Failures are never cached, nor is a parse that did not resolve for the
receiver that walked it.  :func:`configure_decode_memo` resizes or
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
reference set so :func:`read_digest` validates resolvability without
the bodies — gated and ungated receivers fail identically.  Definitions
are opaque byte strings (marshalled ``describe()`` dicts) the wire
layer never parses; receivers accumulate them in the session's
record (``PeerSession.types``).  A frame referencing an unlearned type
id raises :class:`UnresolvedTypeId` — same drop + NACK arming as
:class:`UnresolvedStringId` (which takes precedence when both are
missing, keeping the two decode paths deterministic).  The typedef
region is absent when no envelope in the frame carries typed payloads,
so untyped traffic pays nothing.

Subject digests and the interest gate
-------------------------------------

On a broadcast bus most daemons are uninterested in most frames, yet
every daemon hears every DATA frame.  So DATA and RETRANS frames lead
with a **subject digest**: one tiny entry per envelope — its flags,
subject and seq — placed *before* the envelope bodies, and the only
place a frame writes those three.  :func:`read_digest` hands a
receiving daemon just that digest, letting it ask "does anything here
match my subscriptions?" without touching the envelopes.  When nothing
matches, the daemon advances its reliable session window straight from
the digest's seq spans
(:meth:`repro.core.reliable.ReliableReceiver.try_skip`) and drops the
frame.  The frame memo makes that O(header) for every receiver of a
broadcast but the first, which parses it whole: a frame no receiver
wants is walked once, bodies included (a few percent of the ledger's
frames).  Crucially a skipped frame still replays the table
definitions it carries, so skipping never starves the receiver's
string table.

Frame body layout (all integers varint unless noted)::

    packet   := kind:u8 flags:u8 session:str session_start:f64 last_seq
                ( first last                          # NACK
                | ack_ledger_id:str ack_consumer:str  # ACK
                | defs [tdefs] digest body*           # DATA, RETRANS
                | )                                   # HEARTBEAT
    defs     := def_count (id string:str)*
    tdefs    := tdef_count (tid desc:bytes)*
                tref_count tid*                       # iff flags TYPED
    digest   := entry_count entry*
    entry    := eflags:u8 subject:hstr [seq]
    body     := [sender:hstr] [publish_time:f64] [ledger_id:str]
                [via_count via:hstr*] payload:bytes   # one per entry
    hstr     := id                                    # in the session table

The kind decides which fields follow; ``flags`` holds one bit, ``0x20``
TYPED (a DATA/RETRANS frame whose envelopes cite session type ids).  Any
other bit, or TYPED on another kind, makes the frame a
:class:`CorruptFrame`.

Each field is written once per frame, and none the frame already gives.
An entry's ``eflags`` say which fields follow: ``0x01`` a ``ledger_id``
(a guaranteed envelope — receivers must decode it fully; written as a
plain string, since each is used once and would only grow the session
table), ``0x40`` one or more ``via`` hops; ``0x04`` says the payload
starts with the marshal magic ``IB\\x01``, which the body leaves out and
the reader puts back (a payload without it is sent whole, without the
bit); ``0x08`` omits the seq, which is then the previous entry's seq +
1, ``0x10`` the sender and ``0x20`` the publish time, which are then the
previous envelope's in the frame (a burst published in one instant by
one client pays for them once).  The first entry has no predecessor, so
``0x08``/``0x10``/``0x20`` on it — or any bit not named here (``0x02``,
retired, and ``0x80``) — make the frame a :class:`CorruptFrame`; so
does ``0x40`` with no hop.
There is one envelope count, ``entry_count``: bodies follow the digest
one per entry and must end the frame exactly.  HEARTBEAT, NACK and ACK
frames end after their header.  ``last_seq`` is a HEARTBEAT's highest
seq published, and on a RETRANS the highest seq the sender no longer
retains when the NACK it answers reached below its retention (else 0).

One frame, one session: every envelope in a frame is the session's its
header names, so the session is written once.  QoS rides the ledger
flag, so no qos field is sent.  Strings are UTF-8 with a varint length
prefix; ``f64`` is a big-endian IEEE double.  Decoded header strings are
``sys.intern``\\ ed so the subject-match memo and per-app lanes key on
identical objects, and the parse runs on one
:class:`~repro.sim.framing.Cursor` over a zero-copy view of the frame —
in the steady state a header string is a table lookup.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from io import BytesIO
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..objects.marshal import MAGIC as _PAYLOAD_MAGIC
from ..sim.framing import (CorruptFrame, Cursor, frame, unframe_view,
                           write_bytes, write_f64, write_str, write_varint)
from .message import Envelope, Packet, PacketKind, QoS
from .metrics import MetricsRegistry

__all__ = ["CorruptFrame", "DEFAULT_DECODE_MEMO_CAPACITY",
           "FrameDigest", "StringTable",
           "UnresolvedStringId", "UnresolvedTypeId",
           "configure_decode_memo",
           "decode_memo_stats", "decode_packet", "read_digest",
           "wire_metrics", "encode_packet", "envelope_wire_size",
           "packet_wire_size"]

_KIND_TO_CODE = {
    PacketKind.DATA: 0,
    PacketKind.RETRANS: 1,
    PacketKind.NACK: 2,
    PacketKind.HEARTBEAT: 3,
    PacketKind.ACK: 4,
}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

#: the one packet flag bit: a DATA/RETRANS frame carries a typedef region
_P_TYPED = 0x20
_ENVELOPE_KINDS = (PacketKind.DATA, PacketKind.RETRANS)
#: kind code -> the flag bits that kind may carry; the kind fixes every
#: other field
_P_ALLOWED = {code: _P_TYPED if kind in _ENVELOPE_KINDS else 0
              for kind, code in _KIND_TO_CODE.items()}

# digest entry flag bits: what the envelope's body carries
_E_LEDGER = 0x01        # a ledger id: guaranteed, receivers decode fully
_E_MAGIC = 0x04         # the payload's marshal magic is left out
_E_NEXT_SEQ = 0x08      # no seq: the previous entry's seq + 1
_E_SAME_SENDER = 0x10   # no sender: the previous envelope's
_E_SAME_TIME = 0x20     # no publish time: the previous envelope's
_E_VIA = 0x40           # via hops
_E_DEFINED = (_E_LEDGER | _E_MAGIC | _E_NEXT_SEQ | _E_SAME_SENDER
              | _E_SAME_TIME | _E_VIA)
#: the bits a frame's first entry may carry: it has no predecessor
_E_FIRST = _E_DEFINED & ~(_E_NEXT_SEQ | _E_SAME_SENDER | _E_SAME_TIME)

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
    """A frame referenced string ids this receiver has not learned (see
    "Header strings are session-table ids" above)."""

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

def _write_header_str(out: BytesIO, text: str, table: StringTable,
                      refs: List[int],
                      own_defs: List[Tuple[int, str]]) -> None:
    """One header string: its session string-table id, noted in
    ``refs`` — and in ``own_defs`` when this call assigned it."""
    idx, is_new = table.intern(text)
    if is_new:
        own_defs.append((idx, table.strings[idx]))
    refs.append(idx)
    write_varint(out, idx)


def _encoded(envelope: Envelope, table: StringTable) -> tuple:
    """The envelope's standalone encoding against ``table``, cached on
    the envelope.

    Returns ``(key, table, eflags, subject, seq, body, sender_len, refs,
    own_defs)``: ``subject`` and ``seq`` are its digest entry after the
    flags byte, ``eflags`` the entry bits the envelope decides on its
    own (ledger, magic, via), ``body`` its body with every field but the
    marshal magic, and ``sender_len`` the length of its leading sender
    field, so a frame that elides the sender and the publish time slices
    them off (:func:`_write_envelopes`).  ``refs`` are the ids it cites
    and ``own_defs`` the definitions this encoding assigned — replayed
    on a hit, so the frame that carries an envelope carries them, and
    encoding a packet twice gives identical bytes.

    The cache key is the stamped ``(session, seq)`` identity and the
    table: stamping changes both, and after it envelopes are immutable
    on the send path, so the fan-out and every NACK repair reuse one
    encoding.  The first table a stamped envelope meets keeps the entry:
    a one-frame table never displaces the session table's encoding.
    """
    key = (envelope.session, envelope.seq)
    cached = getattr(envelope, "_wire_cache_z", None)
    keep = cached is None or cached[0] != key
    if not keep and cached[1] is table:
        return cached
    refs: List[int] = []
    own_defs: List[Tuple[int, str]] = []
    out = BytesIO()
    _write_header_str(out, envelope.subject, table, refs, own_defs)
    subject = out.getvalue()
    out = BytesIO()
    write_varint(out, envelope.seq)
    seq = out.getvalue()
    out = BytesIO()
    _write_header_str(out, envelope.sender, table, refs, own_defs)
    sender_len = out.tell()
    write_f64(out, envelope.publish_time)
    eflags = 0
    if envelope.ledger_id is not None:
        eflags = _E_LEDGER
        write_str(out, envelope.ledger_id)
    if envelope.via:
        eflags |= _E_VIA
        write_varint(out, len(envelope.via))
        for hop in envelope.via:
            _write_header_str(out, hop, table, refs, own_defs)
    payload = envelope.payload
    if payload.startswith(_PAYLOAD_MAGIC):
        eflags |= _E_MAGIC
        payload = payload[len(_PAYLOAD_MAGIC):]
    write_bytes(out, payload)
    encoded = (key, table, eflags, subject, seq, out.getvalue(), sender_len,
               tuple(refs), tuple(own_defs))
    if keep:
        envelope._wire_cache_z = encoded
    return encoded


def _varint_size(value: int) -> int:
    return (value.bit_length() + 6) // 7 or 1


def _str_size(text: str) -> int:
    """Bytes ``text`` takes written inline (``write_str``)."""
    length = len(text.encode())
    return length + _varint_size(length)


def envelope_wire_size(envelope: Envelope) -> int:
    """The most bytes this envelope adds to a frame once the session
    table holds its strings: its digest entry and standalone body, each
    header string counted inline (cached on the envelope under the same
    ``(session, seq)`` key as its encoding).  What the batcher cuts a
    group on: an id is no longer than its string, and an elided seq,
    sender or publish time only shortens the frame, which exceeds the
    group's total by at most two ids per string it defines.
    """
    cached = getattr(envelope, "_wire_size", None)
    key = (envelope.session, envelope.seq)
    if cached is not None and cached[0] == key:
        return cached[1]
    payload = len(envelope.payload)
    if envelope.payload.startswith(_PAYLOAD_MAGIC):
        payload -= len(_PAYLOAD_MAGIC)
    # eflags, the publish time, the seq, then length-prefixed fields
    size = (9 + _varint_size(envelope.seq) + payload + _varint_size(payload)
            + _str_size(envelope.subject) + _str_size(envelope.sender))
    if envelope.ledger_id is not None:
        size += _str_size(envelope.ledger_id)
    if envelope.via:
        size += _varint_size(len(envelope.via))
        for hop in envelope.via:
            size += _str_size(hop)
    envelope._wire_size = (key, size)
    return size


# ----------------------------------------------------------------------
# packets
# ----------------------------------------------------------------------

def _write_envelopes(out: BytesIO, envelopes: List[Envelope],
                     encoded: List[tuple]) -> None:
    """Write the digest, then the bodies: each field once per frame.

    An entry carries the envelope's flags, subject and seq, and drops
    the seq when it follows the previous entry's (entry bit ``0x08``);
    its body drops the sender and the publish time when they equal the
    previous envelope's (``0x10`` / ``0x20``), sliced off the cached
    standalone body.  Every id is already interned: :func:`_encoded`
    ran for every envelope first, and the defs it assigned precede the
    digest on the wire.
    """
    write_varint(out, len(envelopes))
    digest = bytearray()
    bodies = bytearray()
    sender = publish_time = next_seq = None
    for envelope, cached in zip(envelopes, encoded):
        _, _, eflags, subject, seq, body, sender_len, _, _ = cached
        if envelope.seq == next_seq:
            eflags |= _E_NEXT_SEQ
            seq = b""
        next_seq = envelope.seq + 1
        if envelope.sender == sender:
            eflags |= _E_SAME_SENDER
            body = body[sender_len:]
            sender_len = 0
        if envelope.publish_time == publish_time:
            eflags |= _E_SAME_TIME
            body = body[:sender_len] + body[sender_len + 8:]
        sender, publish_time = envelope.sender, envelope.publish_time
        digest.append(eflags)
        digest += subject
        digest += seq
        bodies += body
    out.write(digest)
    out.write(bodies)


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

    DATA and RETRANS frames write every header string as an id into
    ``table``, the sending daemon's :class:`StringTable`: DATA defines
    the ids first used in this frame, RETRANS every id it references
    (self-contained repair).  Without ``table`` the frame is encoded
    against a fresh one-frame table, so it defines every id it cites (a
    telemetry frame).  With ``type_table`` (the daemon's
    :class:`~repro.core.typeplane.TypeTable`), frames whose envelopes
    carry ``type_refs`` get a typedef region under the same rules.
    HEARTBEAT, NACK and ACK frames end after their header; a NACK
    without its range or an ACK missing a field raises
    :class:`ValueError`, since the kind requires them.
    """
    kind = packet.kind
    try:
        code = _KIND_TO_CODE[kind]
    except KeyError:
        raise ValueError(f"unknown packet kind {kind!r}") from None
    envelopes = packet.envelopes if kind in _ENVELOPE_KINDS else None
    trefs: Set[int] = set()
    if envelopes is not None and type_table is not None:
        for envelope in envelopes:
            trefs.update(envelope.type_refs)
    out = BytesIO()
    out.write(bytes((code, _P_TYPED if trefs else 0)))
    write_str(out, packet.session)
    write_f64(out, packet.session_start)
    write_varint(out, packet.last_seq)
    if kind is PacketKind.NACK:
        if packet.nack_range is None:
            raise ValueError("a NACK packet needs its nack_range")
        write_varint(out, packet.nack_range[0])
        write_varint(out, packet.nack_range[1])
    elif kind is PacketKind.ACK:
        if packet.ack_ledger_id is None or packet.ack_consumer is None:
            raise ValueError(
                "an ACK packet needs its ack_ledger_id and ack_consumer")
        write_str(out, packet.ack_ledger_id)
        write_str(out, packet.ack_consumer)
    if envelopes is None:
        return frame(out.getvalue())
    if table is None:
        table = StringTable()   # one frame's: it defines every id it cites
    encoded = [_encoded(envelope, table) for envelope in envelopes]
    if kind is PacketKind.RETRANS:
        refs: Set[int] = set()
        for cached in encoded:
            refs.update(cached[7])
        def_pairs = [(idx, table.strings[idx]) for idx in sorted(refs)]
    else:
        def_pairs = [pair for cached in encoded for pair in cached[8]]
    write_varint(out, len(def_pairs))
    for idx, text in def_pairs:
        write_varint(out, idx)
        write_str(out, text)
    if trefs:
        _write_typedefs(out, packet, type_table, trefs)
    _write_envelopes(out, envelopes, encoded)
    return frame(out.getvalue())


#: Default bound on memoized frame parses.  Sized for the fan-out
#: window: a frame only repeats while N daemons hear one broadcast, so a
#: few hundred entries cover even deep outbound queues.
DEFAULT_DECODE_MEMO_CAPACITY = 256

# frame bytes -> that frame's whole parse (a _Parse).  The
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
#: typedef-region accounting: definitions written by encoders vs
#: definitions learned by fresh (non-memoized) walks of a typedef region
_typedef_defined = _wire_metrics.counter("wire.typedef.defined")
_typedef_learned = _wire_metrics.counter("wire.typedef.learned")


def wire_metrics() -> MetricsRegistry:
    """The module-level registry holding the frame-memo
    (``wire.decode_memo.*``) and typedef (``wire.typedef.*``)
    instruments."""
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
                    _typedef_defined, _typedef_learned):
        counter.reset()


def decode_memo_stats() -> Dict[str, int]:
    """Hit/miss/size counters for benches and cache-honesty tests (a
    dict view over the :func:`wire_metrics` registry instruments).  One
    lookup per :func:`read_digest` or :func:`decode_packet` call while
    the memo is on: a hit when a stored parse served this receiver, a
    miss otherwise."""
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
    with no subscriber), and for a RETRANS frame that says seqs are gone
    (``last_seq > 0``).
    """

    __slots__ = ("session", "subjects", "seqs", "needs_full")

    def __init__(self, session: str, subjects: Tuple[str, ...],
                 seqs: List[int], needs_full: bool):
        self.session = session
        self.subjects = subjects
        self.seqs = seqs
        self.needs_full = needs_full


class _Parse:
    """One frame's whole parse — what the memo holds.

    ``packet`` is the decoded :class:`Packet`, envelopes and all, and
    ``digest`` its :class:`FrameDigest` (``None`` for a control frame);
    ``unsequenced`` says the digest names seq 0 (telemetry).
    ``defines`` / ``tdefines`` are the frame's in-frame string / type
    definitions (``None`` on a control frame / a frame without a typedef
    region).  ``needs`` maps every other string id the *digest* cites to
    its value at parse time, ``body_needs`` every other id the digest
    *or the bodies* cite — kept apart so a digest read never fails a
    receiver for an id only the bodies use; ``tneeds`` is the same for
    the typedef reference list, which both entry points check.
    """

    __slots__ = ("packet", "digest", "unsequenced", "defines", "needs",
                 "body_needs", "tdefines", "tneeds")

    def __init__(self, packet: Packet) -> None:
        self.packet = packet
        self.digest: Optional[FrameDigest] = None
        self.unsequenced = False
        self.defines = self.needs = self.body_needs = None
        self.tdefines = self.tneeds = None


def _learned(peers, parse: _Parse) -> Tuple[Dict[int, str], Dict[int, bytes]]:
    """One receiver's learned string ids and typedef blobs for the
    session of ``parse``: the tables of its record in ``peers.sessions``
    (``peers.hear`` makes, or refuses, a missing one); throwaways when
    there is no receiver.  Walks and memo hits both pass here, so here
    a receiver refuses seq 0, the telemetry mark no data port carries."""
    if peers is None:
        return {}, {}
    if parse.unsequenced:
        raise CorruptFrame("seq 0 on the data plane")
    session = parse.packet.session
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


def _read_header_str(cur: Cursor, table: Dict[int, str],
                     refs: Set[int]) -> str:
    """One header string: a session-table id, noted in ``refs``.  An
    unlearned id reads as ``""``; the walk reports it once the frame is
    structurally done."""
    idx = cur.varint()
    refs.add(idx)
    return table.get(idx, "")


def _walk(data: bytes, peers, bodies: bool) -> _Parse:
    """The one frame parser: header → string defs → typedefs → digest →
    bodies, for one receiver, through the memo.

    A memoized parse is replayed for this receiver (:func:`_replay`);
    otherwise the frame is walked whole, and kept only when it resolved
    for this receiver, so every entry serves both entry points.
    :func:`read_digest` (``bodies`` false) checks the ids the digest
    cites, :func:`decode_packet` the bodies' as well.  Structural errors
    raise :class:`CorruptFrame` where they are met; unlearned ids raise
    only once the frame is structurally sound (string ids before type
    ids), so both entry points — memoized or not — earn the same error
    for every frame but one whose only unlearned ids are the bodies'.
    Failures are never stored.
    """
    key = None
    if _memo_capacity:
        key = bytes(data)
        parse = _memo.get(key)
        if parse is not None:
            missing = tmissing = ()     # string / type ids this receiver lacks
            if parse.digest is not None:
                table, types = _learned(peers, parse)
                missing = _replay(table, parse.defines,
                                  parse.body_needs if bodies else parse.needs)
                if missing is not None and parse.tdefines is not None:
                    tmissing = _replay(types, parse.tdefines, parse.tneeds)
            if missing is not None and tmissing is not None:
                _memo.move_to_end(key)
                _decode_memo_hits.value += 1
                if missing or tmissing:
                    raise _unresolved(parse, missing, tmissing)
                return parse
            # colliding table state: the parse is not this receiver's,
            # so walk fresh and leave the memo alone
            key = None
        _decode_memo_misses.value += 1
    # -- header; the one place flags are judged, against what the kind
    # allows.  The kind fixes the fields that follow: a control frame
    # ends here, a DATA/RETRANS frame goes on to its defs and digest.
    cur = Cursor(unframe_view(data))
    code = cur.u8()
    kind = _CODE_TO_KIND.get(code)
    if kind is None:
        raise CorruptFrame("unknown packet kind code")
    flags = cur.u8()
    if flags & ~_P_ALLOWED[code]:
        raise CorruptFrame(f"flags {flags:#x} on {kind.value} packet")
    session = _intern(cur.str_())
    session_start = cur.f64()
    last_seq = cur.varint()
    nack_range = ack_ledger_id = ack_consumer = None
    if kind is PacketKind.NACK:
        first = cur.varint()
        nack_range = (first, cur.varint())
    elif kind is PacketKind.ACK:
        ack_ledger_id = _intern(cur.str_())
        ack_consumer = _intern(cur.str_())
    envelopes: List[Envelope] = []
    parse = _Parse(Packet(kind, session, envelopes, nack_range, last_seq,
                          session_start, ack_ledger_id, ack_consumer))
    missing = tmissing = ()
    if kind not in _ENVELOPE_KINDS:
        if not cur.exhausted:
            raise CorruptFrame(f"{cur.remaining()} trailing bytes "
                               f"after {kind.value} header")
    else:
        # -- string defs, then typedefs and the frame's full
        # type-reference list
        defines = parse.defines = {}
        for _ in range(cur.varint()):
            idx = cur.varint()
            defines[idx] = _intern(cur.str_())
        if flags & _P_TYPED:
            tdefines = parse.tdefines = {}
            for _ in range(cur.varint()):
                tid = cur.varint()
                tdefines[tid] = cur.bytes_()
            trefs = [cur.varint() for _ in range(cur.varint())]
        # -- digest, the one place subject, seq and flags are written.
        # Bits no writer sets, and an elision on the first entry (it has
        # no predecessor), are a hostile encoder's.  A successor's seq
        # is derived here, so the gate and the bodies see every seq.
        cited = []
        allowed = _E_FIRST
        seq = None
        for _ in range(cur.varint()):
            eflags = cur.u8()
            if eflags & ~allowed:
                raise CorruptFrame(f"bad digest entry flags {eflags:#x}"
                                   f" (entry {len(cited)})")
            allowed = _E_DEFINED
            idx = cur.varint()
            seq = seq + 1 if eflags & _E_NEXT_SEQ else cur.varint()
            if not seq:
                parse.unsequenced = True
            cited.append((eflags, idx, seq))
        # The prefix is sound, so only now does the frame reach the
        # receiver's session record (a frame that fails above makes
        # none).  It passed its CRC, so its definitions are intact:
        # apply them even if the bodies or resolution fail below, or the
        # caller goes on to skip the frame — later frames reference them
        # without redefining, and they make a later repair decodable.
        table, ttable = _learned(peers, parse)
        for idx in defines:     # not update(): no call on the hot path
            table[idx] = defines[idx]
        if flags & _P_TYPED:
            ttable.update(tdefines)
            _typedef_learned.value += len(tdefines)
            parse.tneeds = _needs(ttable, trefs, tdefines)
            tmissing = [t for t, blob in parse.tneeds.items()
                        if blob is None]
        # -- bodies, one per digest entry, read against it
        refs: Set[int] = set()
        body_refs: Set[int] = set()
        seqs: List[int] = []
        subjects: Dict[str, None] = {}      # distinct, first-seen order
        # a repair that says seqs are gone acts on the reliable window
        needs_full = kind is PacketKind.RETRANS and last_seq > 0
        envelope = None
        for eflags, idx, seq in cited:
            refs.add(idx)
            subject = table.get(idx, "")    # unlearned: reported below
            subjects[subject] = None
            if eflags & _E_LEDGER:
                needs_full = True
            seqs.append(seq)
            envelope = _read_envelope(cur, table, body_refs, session,
                                      eflags, subject, seq, envelope)
            envelopes.append(envelope)
        if not cur.exhausted:
            raise CorruptFrame(
                f"{cur.remaining()} trailing bytes after packet")
        parse.digest = FrameDigest(session, tuple(subjects), seqs,
                                   needs_full)
        needs = parse.needs = _needs(table, refs, defines)
        body_needs = parse.body_needs = _needs(table, body_refs, defines)
        body_needs.update(needs)
        missing = [i for i, text in body_needs.items() if text is None]
        if missing or tmissing:
            key = None          # it cannot serve a decode: not stored
            if not bodies:
                missing = [i for i, text in needs.items() if text is None]
            if missing or tmissing:
                raise _unresolved(parse, missing, tmissing)
    if key is not None:
        # every receiver of this broadcast gets this one Packet and its
        # Envelopes: nothing on the receive path assigns to a decoded
        # envelope, so sharing them is safe
        _memo[key] = parse
        while len(_memo) > _memo_capacity:
            _memo.popitem(last=False)
    return parse


def _unresolved(parse: _Parse, missing: Iterable[int],
                tmissing: Iterable[int]) -> UnresolvedIds:
    """The error a parse citing unlearned ids earns: string ids first."""
    packet = parse.packet
    # a frame citing ids is a DATA/RETRANS frame, so it has a digest; a
    # well-formed one has envelopes (the refs come from them), but a
    # hostile encoder's might not: default the span
    seqs = parse.digest.seqs or [0]
    error = UnresolvedStringId if missing else UnresolvedTypeId
    return error(packet.session, missing or tmissing, min(seqs), max(seqs),
                 packet.session_start)


def _read_envelope(cur: Cursor, table: Dict[int, str],
                   refs: Set[int], session: str, eflags: int, subject: str,
                   seq: int, prev: Optional[Envelope]) -> Envelope:
    """One envelope body of a frame from ``session`` (the frame header's:
    the body does not repeat it), read against its digest entry — which
    gives its subject and seq, and whose ``eflags`` say which body fields
    follow — and the frame's ``prev`` envelope, whose sender and publish
    time an elided field repeats.  Qos is read off the ledger flag."""
    sender = (prev.sender if eflags & _E_SAME_SENDER
              else _read_header_str(cur, table, refs))
    publish_time = (prev.publish_time if eflags & _E_SAME_TIME
                    else cur.f64())
    qos, ledger_id = QoS.RELIABLE, None
    if eflags & _E_LEDGER:
        qos, ledger_id = QoS.GUARANTEED, cur.str_()
    via = ()
    if eflags & _E_VIA:
        hops = cur.varint()
        if not hops:
            raise CorruptFrame("via flag with no hops")
        via = tuple([_read_header_str(cur, table, refs)
                     for _ in range(hops)])
    payload = cur.bytes_()
    if eflags & _E_MAGIC:
        payload = _PAYLOAD_MAGIC + payload
    return Envelope(subject, sender, session, seq, payload, qos,
                    ledger_id, publish_time, via)


def decode_packet(data: bytes, peers=None) -> Packet:
    """Decode one wire frame back to a :class:`Packet`.

    ``peers`` is the receiving plane's
    :class:`~repro.core.reliable.ReliableReceiver`, owner of its one
    mapping ``sessions`` (``session ->``
    :class:`~repro.core.reliable.PeerSession`): DATA/RETRANS frames read
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
    """The subject digest of one frame: the interest gate's view of
    the parse :func:`decode_packet` returns.

    O(header) on a memo hit — the definitions replayed and the digest's
    ids checked for this receiver (the memo key's ``bytes`` copy is
    still O(frame), at C speed); a miss parses the frame whole, so a
    frame whose bodies are malformed raises the :class:`CorruptFrame`
    :func:`decode_packet` would.  Returns ``None`` for HEARTBEAT/NACK/ACK
    frames, which have no digest — the caller must decode fully.  Like
    :func:`decode_packet` it applies the frame's table and typedef
    definitions to the session's record in ``peers`` *even when the
    caller goes on to skip the frame* — a skipped frame must still
    replay what it carries — and raises :class:`UnresolvedStringId` /
    :class:`UnresolvedTypeId` when the digest or the typedef reference
    list cites ids this receiver has not learned; ids only the bodies
    cite fail :func:`decode_packet` alone.
    """
    return _walk(data, peers, False).digest


def packet_wire_size(packet: Packet) -> int:
    """Bytes ``packet`` occupies on the wire as a self-contained frame
    (encoded against a one-frame string table), framing included."""
    return len(encode_packet(packet))
