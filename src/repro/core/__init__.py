"""The Information Bus core: subject-based pub/sub with reliable and
guaranteed delivery.

This package exports the bus and nothing above it, so a bus process
loads only the bus.  The layers built on it are imported from their
modules: :mod:`repro.core.discovery` (``Inquiry``, ``Responder``),
:mod:`repro.core.rmi` (``RmiClient``, ``RmiServer``,
``ExactlyOnceRmiClient``) and :mod:`repro.core.router` (``Router``,
``WanLink``).
"""

from .subjects import (BadSubjectError, SubjectTrie, is_valid_pattern,
                       split_subject, subject_matches, validate_pattern,
                       validate_subject)
from .message import Envelope, MessageInfo, Packet, PacketKind, QoS
from .wire import (CorruptFrame, FrameDigest, StringTable,
                   UnresolvedStringId, UnresolvedTypeId,
                   decode_packet, encode_packet,
                   envelope_wire_size, packet_wire_size, read_digest)
from .typeplane import PeerTypeView, TypeTable
from .flow import (Admission, BoundedBuffer, BoundedQueue, FlowConfig,
                   OVERFLOW_POLICIES, POLICY_BLOCK, POLICY_DROP_NEWEST,
                   POLICY_DROP_OLDEST, PublishReceipt)
from .reliable import (PeerSession, RefusedSession, ReliableConfig,
                       ReliableReceiver, ReliableSender, SessionStats)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      MetricsScope, sum_counters)
from .batching import BatchConfig, Batcher
from .guaranteed import GuaranteedConsumer, GuaranteedPublisher, LedgerEntry
from .daemon import (ADVERT_SUBJECT, DAEMON_PORT, STAT_PORT,
                     STAT_SUBJECT_PREFIX, BusConfig, BusDaemon,
                     BusDownError)
from .sharding import ShardMap
from .client import BusClient, Subscription
from .bus import InformationBus

__all__ = [
    "ADVERT_SUBJECT", "Admission", "BadSubjectError", "BatchConfig",
    "Batcher", "BoundedBuffer", "BoundedQueue", "BusClient", "BusConfig",
    "BusDaemon", "BusDownError", "CorruptFrame", "Counter", "DAEMON_PORT",
    "Envelope", "FlowConfig", "FrameDigest", "Gauge", "GuaranteedConsumer",
    "GuaranteedPublisher", "Histogram", "InformationBus", "LedgerEntry",
    "MessageInfo", "MetricsRegistry", "MetricsScope", "OVERFLOW_POLICIES",
    "POLICY_BLOCK", "POLICY_DROP_NEWEST", "POLICY_DROP_OLDEST", "Packet",
    "PacketKind", "PeerSession", "PeerTypeView", "PublishReceipt", "QoS",
    "RefusedSession", "ReliableConfig", "ReliableReceiver", "ReliableSender",
    "STAT_PORT", "STAT_SUBJECT_PREFIX", "SessionStats", "ShardMap",
    "StringTable", "SubjectTrie", "Subscription", "TypeTable",
    "UnresolvedStringId", "UnresolvedTypeId", "decode_packet",
    "encode_packet", "envelope_wire_size", "is_valid_pattern",
    "packet_wire_size", "read_digest", "split_subject", "subject_matches",
    "sum_counters", "validate_pattern", "validate_subject",
]
