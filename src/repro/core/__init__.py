"""The Information Bus core: subject-based pub/sub, QoS, discovery, RMI,
and WAN routers."""

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
from .discovery import DiscoveredService, Inquiry, Responder, inquiry_subject
from .rmi import (ExactlyOnceRmiClient, RmiClient, RmiServer,
                  ServerGroup)
from .router import Router, RouterLeg, WanLink

__all__ = [
    "ADVERT_SUBJECT", "Admission", "BadSubjectError", "BatchConfig",
    "Batcher", "BoundedBuffer", "BoundedQueue",
    "BusClient", "BusConfig", "BusDaemon", "BusDownError", "CorruptFrame",
    "Counter", "DAEMON_PORT", "DiscoveredService", "Envelope",
    "FrameDigest", "read_digest", "Gauge",
    "Histogram", "MetricsRegistry", "MetricsScope",
    "STAT_PORT", "STAT_SUBJECT_PREFIX", "sum_counters",
    "FlowConfig", "OVERFLOW_POLICIES", "POLICY_BLOCK",
    "POLICY_DROP_NEWEST", "POLICY_DROP_OLDEST", "PublishReceipt",
    "GuaranteedConsumer", "GuaranteedPublisher", "InformationBus",
    "Inquiry", "LedgerEntry", "MessageInfo", "Packet",
    "ExactlyOnceRmiClient",
    "PacketKind", "PeerSession", "QoS", "RefusedSession", "ReliableConfig",
    "ReliableReceiver", "decode_packet", "encode_packet", "envelope_wire_size", "packet_wire_size",
    "ReliableSender", "Responder", "RmiClient", "RmiServer",
    "PeerTypeView", "Router", "RouterLeg", "ServerGroup", "SessionStats",
    "ShardMap",
    "StringTable", "SubjectTrie", "Subscription", "TypeTable",
    "UnresolvedStringId", "UnresolvedTypeId", "WanLink",
    "inquiry_subject", "is_valid_pattern", "split_subject",
    "subject_matches", "validate_pattern", "validate_subject",
]
