"""Message envelopes and quality-of-service levels.

Two QoS levels, straight from Section 3.1:

* :data:`QoS.RELIABLE` — exactly-once, FIFO per sender under normal
  operation; at-most-once if the sender or receiver crashes or the
  network partitions for longer than the repair window.
* :data:`QoS.GUARANTEED` — the message is logged to non-volatile storage
  before it is sent and retransmitted "at appropriate times until a reply
  is received": at-least-once regardless of failures, exactly-once when
  there are none.

An :class:`Envelope` is what daemons exchange; the application payload is
already-marshalled bytes (see :mod:`repro.objects.marshal`), and the
``size`` properties report the length of the actual wire encoding
(:mod:`repro.core.wire`) — measured, not accounted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["Envelope", "MessageInfo", "Packet", "PacketKind", "QoS"]

# The wire codec imports this module, so it cannot be imported at module
# load; resolve it once on the first ``size`` access instead of paying a
# ``from . import wire`` (an attribute lookup plus an import-lock check)
# on every property read.
_wire = None


def _wire_codec():
    global _wire
    if _wire is None:
        from . import wire
        _wire = wire
    return _wire


class QoS(enum.Enum):
    """Delivery quality of service."""

    RELIABLE = "reliable"
    GUARANTEED = "guaranteed"


class PacketKind(enum.Enum):
    """Daemon-to-daemon packet types on the bus port."""

    DATA = "data"             # a batch of envelopes (broadcast)
    RETRANS = "retrans"       # NACK repair (unicast to the requester)
    NACK = "nack"             # gap report (unicast to the sender)
    HEARTBEAT = "heartbeat"   # idle sender's highest seq (broadcast)
    ACK = "ack"               # guaranteed-delivery confirmation (unicast)


@dataclass
class Envelope:
    """One published message as it travels between daemons.

    Invariant on everything a daemon sends: ``qos is QoS.GUARANTEED``
    iff ``ledger_id`` is set.  The wire carries only the ledger flag and
    a decoder reads ``qos`` back off it (:mod:`repro.core.wire`), as it
    fills ``session`` from the frame header; ``encode`` does not check
    the invariant, and nothing in ``src/`` can violate it.
    """

    subject: str
    sender: str               # client id, e.g. "node3.news_adapter"
    session: str              # sender daemon's session, e.g. "node3#0"
    seq: int                  # per-session sequence number
    payload: bytes            # marshalled object
    qos: QoS = QoS.RELIABLE
    ledger_id: Optional[str] = None   # set for guaranteed messages
    publish_time: float = 0.0         # simulated time of the publish call
    #: names of information routers this message has traversed; routers
    #: refuse to forward a message already stamped with their own name,
    #: which keeps arbitrary router topologies (chains, meshes, cycles)
    #: loop-free while allowing multi-hop forwarding.
    via: Tuple[str, ...] = ()
    #: session type-table ids the payload references when it was
    #: marshalled with :func:`repro.objects.marshal.encode_typed`; the
    #: wire layer rides the matching typedef definitions in-band
    #: (:mod:`repro.core.typeplane`).  Send-side only — never encoded
    #: into the envelope body, so decoded envelopes leave it empty and
    #: equality ignores it: ``decode(encode(p)) == p``.
    type_refs: Tuple[int, ...] = field(default=(), compare=False)

    @property
    def size(self) -> int:
        """The most bytes this envelope adds to a wire frame whose
        session table holds its strings: its digest entry plus its
        standalone body, each header string counted inline — what the
        batcher cuts a group on (see
        :func:`repro.core.wire.envelope_wire_size`).  Inside a frame it
        may follow the seq, and share the sender and publish time, of
        the envelope before it, and the frame writes ids, so its actual
        share is at most this."""
        return _wire_codec().envelope_wire_size(self)


@dataclass
class Packet:
    """One datagram on the daemon port."""

    kind: PacketKind
    session: str                       # originating daemon session
    envelopes: List[Envelope] = field(default_factory=list)
    #: NACK: the (first, last) missing seq range being requested.
    nack_range: Optional[Tuple[int, int]] = None
    #: HEARTBEAT: highest seq published in this session.  RETRANS: every
    #: seq up to this has left the sender's retention (0: none has).
    last_seq: int = 0
    #: DATA/RETRANS/HEARTBEAT: simulated time this session began.  Lets
    #: a receiver distinguish "I joined late" (baseline at what it
    #: hears) from "the first messages were lost" (recover from seq 1).
    session_start: float = 0.0
    #: ACK: the guaranteed ledger id being confirmed, and who confirms.
    ack_ledger_id: Optional[str] = None
    ack_consumer: Optional[str] = None

    @property
    def size(self) -> int:
        """Bytes this packet occupies on the wire as a self-contained
        frame (no session table: it defines every string id it cites),
        framing included (see :func:`repro.core.wire.packet_wire_size`)."""
        return _wire_codec().packet_wire_size(self)


class MessageInfo:
    """Delivery metadata handed to subscriber callbacks.

    One is built per delivery, so this is a hand-written ``__slots__``
    class that :meth:`BusClient._deliver` constructs positionally
    (``dataclass(slots=True)`` needs Python 3.10; ``requires-python`` is
    3.9).  Keyword construction, the two defaults, ``repr`` and ``==``
    behave as the dataclass they replace.
    """

    __slots__ = ("subject", "sender", "session", "seq", "qos",
                 "publish_time", "deliver_time", "size", "retransmitted",
                 "via")

    def __init__(self, subject: str, sender: str, session: str, seq: int,
                 qos: QoS, publish_time: float, deliver_time: float,
                 size: int, retransmitted: bool = False,
                 via: Tuple[str, ...] = ()):
        self.subject = subject
        self.sender = sender
        self.session = session
        self.seq = seq
        self.qos = qos
        self.publish_time = publish_time   # simulated time of the publish
        self.deliver_time = deliver_time   # simulated time the callback ran
        self.size = size                   # payload bytes on the wire
        self.retransmitted = retransmitted
        self.via = via                     # routers this message traversed

    @property
    def latency(self) -> float:
        return self.deliver_time - self.publish_time

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (tuple(getattr(self, name) for name in self.__slots__)
                == tuple(getattr(other, name) for name in self.__slots__))

    def __repr__(self) -> str:
        return "MessageInfo(%s)" % ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__)
