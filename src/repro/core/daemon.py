"""The per-host Information Bus daemon.

Section 3.1: "In our implementation of subject-based addressing, we use a
daemon on every host.  Each application registers with its local daemon,
and tells the daemon to which subjects it has subscribed.  The daemon
forwards each message to each application that has subscribed.  It uses
the subject contained in the message to decide which application receives
which message."

One :class:`BusDaemon` per :class:`~repro.sim.node.Host`:

* outbound — one queue: publishes pass *admission* at the bounded
  outbound queue (:mod:`repro.core.flow`), are stamped by the reliable
  protocol, and wait in that queue until the batching stage releases
  them, one datagram each time the CPU send lane is free (with the
  batch parameter on, a group's first envelope also waits
  ``batch_delay``); each datagram is broadcast on the daemon port;
* inbound — every daemon hears every broadcast (it is an Ethernet), runs
  the reliable receive protocol, matches the subject against its local
  subscription trie, and forwards to subscribed local applications
  through bounded per-application delivery lanes (a slow app backlogs
  and sheds per policy without stalling its co-hosted siblings);
* guaranteed delivery — stable ledger + acks (see
  :mod:`repro.core.guaranteed`); guaranteed traffic is never shed by the
  flow-control layer — full queues defer it back to the ledger's
  retransmission timer;
* fail-stop lifecycle — a crash destroys all volatile daemon state; on
  recovery the daemon restarts with a fresh session and (by default)
  re-attaches its applications' subscriptions, modeling apps restarted
  by init.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, TYPE_CHECKING, Union

from ..sim.kernel import Event, PeriodicTimer, Simulator
from ..sim.node import Host
from ..sim.trace import NULL_TRACER, Tracer
from ..objects import TypeError_, decode, encode
from ..sim.transport import DatagramSocket, Endpoint
from .batching import BatchConfig, Batcher
from .contracts import admits
from .flow import (Admission, BoundedQueue, FlowConfig, POLICY_DROP_OLDEST,
                   PublishReceipt)
from .guaranteed import GuaranteedConsumer, GuaranteedPublisher, LedgerEntry
from .message import Envelope, Packet, PacketKind, QoS
from .metrics import MetricsPublisher, MetricsRegistry
from .reliable import (PeerSession, RefusedSession, ReliableConfig,
                       ReliableReceiver, ReliableSender)
from .subjects import BadSubjectError, SubjectTrie, validate_subject
from .typeplane import PeerTypeView, TypeTable
from .wire import (CorruptFrame, StringTable, UnresolvedIds,
                   UnresolvedTypeId, decode_packet, encode_packet,
                   read_digest)

if TYPE_CHECKING:  # pragma: no cover
    from .client import BusClient, Subscription

__all__ = ["ADVERT_SUBJECT", "BusConfig", "BusDaemon", "BusDownError",
           "DAEMON_PORT", "SHARD_PORT_STRIDE", "SOLICIT_SUBJECT_PREFIX",
           "STAT_PORT", "STAT_SUBJECT_PREFIX", "advert_digest",
           "shard_data_port", "shard_stat_port"]

#: The well-known UDP port every daemon binds.
DAEMON_PORT = 7

#: The well-known UDP port the telemetry plane broadcasts on.  Stat
#: frames ride a *separate* socket so their transport counters never
#: perturb the data plane's — the first half of the no-echo guarantee.
STAT_PORT = 8

#: Port stride between shard planes.  Shard 0 keeps the well-known
#: ports above; shard ``k`` binds ``DAEMON_PORT + 16k`` / ``STAT_PORT +
#: 16k``, clear of the noise port (9) and far below the RMI ephemeral
#: range (20000+).  Because every host derives the same ports from the
#: same shard id, shard planes are disjoint broadcast domains on the
#: shared segment — a frame on shard 2's port is only ever decoded by
#: shard-2 daemons.
SHARD_PORT_STRIDE = 16


def shard_data_port(shard: int) -> int:
    """The data-plane port of shard plane ``shard``."""
    return DAEMON_PORT + SHARD_PORT_STRIDE * shard


def shard_stat_port(shard: int) -> int:
    """The telemetry port of shard plane ``shard``."""
    return STAT_PORT + SHARD_PORT_STRIDE * shard

#: Reserved subject on which daemons advertise their subscription tables
#: (consumed by information routers; see repro.core.router).
ADVERT_SUBJECT = "_sub.advert"

#: Reserved subject prefix on which a router asks one host for its
#: planes' whole tables: ``_sub.solicit.<host>``, heard by that host's
#: plane 0 alone (reserved subjects travel on shard 0).
SOLICIT_SUBJECT_PREFIX = "_sub.solicit"


def advert_digest(patterns: Iterable[str]) -> bytes:
    """The 8-byte digest a ``summary`` advert carries: a hash of the
    sorted patterns, the same in every process whatever
    ``PYTHONHASHSEED`` (a daemon summarizes its table with it, a router
    checks its view of that table with it)."""
    return hashlib.blake2b("\n".join(sorted(patterns)).encode("utf-8"),
                           digest_size=8).digest()


#: Reserved subject space for telemetry snapshots: a daemon publishes
#: its registry on ``_bus.stat.<host>.daemon``, a router on
#: ``_bus.stat.<router>.router``.  Reserved (``_``-prefixed) subjects
#: are invisible to ``>`` wildcards — subscribe ``_bus.stat.>``
#: explicitly (see :class:`repro.apps.bus_browser.BusBrowser`).
STAT_SUBJECT_PREFIX = "_bus.stat"

_by_seq = attrgetter("seq")   # subscription order


class BusDownError(RuntimeError):
    """An operation was attempted while the local daemon's host is down."""


@dataclass
class BusConfig:
    """All bus tunables in one place."""

    reliable: ReliableConfig = field(default_factory=ReliableConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    #: Flow control: queue bounds and overflow policies.  The defaults
    #: never shed (see :class:`~repro.core.flow.FlowConfig`).
    flow: FlowConfig = field(default_factory=FlowConfig)
    #: Distinct consumers that must ack a guaranteed message.
    ack_quorum: int = 1
    #: Broadcast subscription-table changes on ADVERT_SUBJECT so routers
    #: can forward across WANs only what somebody actually wants.
    advertise_subscriptions: bool = True
    #: Period of each plane's table advert: a digest of its public
    #: subscription table, or the table itself when that encodes
    #: smaller; a router whose view disagrees solicits the table.
    advert_interval: float = 2.0
    #: Most guaranteed-delivery ledger ids remembered for deduping
    #: deliveries to non-durable subscribers; oldest are evicted past
    #: this, so a long-running daemon's memory stays bounded.
    seen_ledger_cap: int = 4096
    #: Seconds between telemetry snapshots published on
    #: ``_bus.stat.<host>.daemon``.  0 (the default) disables the
    #: publisher entirely; with sends that cost no time, runs with it
    #: on are bit-identical to runs with it off (a tested invariant —
    #: see docs/OBSERVABILITY.md); otherwise a snapshot holds the send
    #: lane like any frame.
    stat_interval: float = 0.0
    #: Partition the subject space into this many hash-sharded planes,
    #: each owned by its own daemon instance on its own CPU lane and
    #: port pair (see :mod:`repro.core.sharding` and "Subject-space
    #: sharding" in docs/PROTOCOLS.md).  A host is always a plane set:
    #: :class:`~repro.core.bus.InformationBus` builds this many
    #: :class:`BusDaemon` planes per host, and the default 1 is the
    #: paper's one daemon per host.  Each plane is a sender of its own,
    #: so above 1 a client's FIFO holds per (client, plane): a message
    #: may overtake an earlier one the client published on a subject
    #: another plane carries.
    subject_shards: int = 1


class _DeliveryLane:
    """One application's bounded delivery queue on its daemon."""

    __slots__ = ("queue", "service_time", "drain_event")

    def __init__(self, queue: BoundedQueue, service_time: float = 0.0):
        self.queue = queue
        #: simulated seconds the application takes to consume one
        #: message; 0 keeps the historical synchronous fast path
        self.service_time = service_time
        self.drain_event: Optional[Event] = None


class _SolicitListener:
    """Plane 0's own registration on ``_sub.solicit.<host>``: both the
    subscription its match yields and the client that one feeds (no
    delivery lane, so it is called synchronously, and counted in the
    plane's ``delivered`` like any delivery).  A router whose view of
    one of this host's planes disagrees with that plane's summary asks
    here, and every plane answers with its whole table."""

    __slots__ = ("client", "daemon", "seq", "durable")

    #: what the daemon looks up a delivery lane by: no client has this
    name = None

    def __init__(self, daemon: "BusDaemon"):
        self.client = self
        self.daemon = daemon
        self.seq = 0           # ahead of every application's, if both match
        self.durable = False

    def _deliver(self, envelope: Envelope, retransmitted: bool,
                 resolver, subscriptions) -> None:
        daemon = self.daemon
        try:
            payload = decode(envelope.payload, None)
        except TypeError_:
            payload = None     # refused below like any other misfit
        if (admits(payload, "sub_solicit", daemon._scope)
                and payload["host"] == daemon.host.address):
            for plane in daemon.planes:
                plane._answer_solicit()


class BusDaemon:
    """The bus agent on one host.

    ``shard``/``shard_count`` place this daemon on one shard plane: it
    binds that plane's port pair, serializes its CPU work on lane
    ``shard``, and (for shard > 0) marks its session string so peers
    and telemetry can tell the planes apart.  The defaults (0, 1) are
    the paper's one daemon per host; :meth:`~repro.core.bus.
    InformationBus.add_host` builds one instance per plane.
    """

    def __init__(self, sim: Simulator, host: Host,
                 config: Optional[BusConfig] = None,
                 tracer: Optional[Tracer] = None,
                 shard: int = 0, shard_count: int = 1):
        self.sim = sim
        self.host = host
        self.config = config or BusConfig()
        if not 0 <= shard < max(shard_count, 1):
            raise ValueError(f"shard {shard} out of range for "
                             f"{shard_count} shard(s)")
        self.shard = shard
        self.shard_count = max(shard_count, 1)
        #: every daemon plane on this host in shard order, this one
        #: included (one list, shared: ``add_host`` hands it to each)
        self.planes: List["BusDaemon"] = [self]
        self._port = shard_data_port(shard)
        self._stat_port = shard_stat_port(shard)
        # NULL_TRACER fallback, not `or`: a disabled Tracer is falsy, and
        # callers may hand one in intending to flip it on mid-run
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.clients: Dict[str, "BusClient"] = {}
        #: per-application delivery lanes (outlive crashes like clients
        #: do; their queues are volatile and cleared on crash)
        self._lanes: Dict[str, _DeliveryLane] = {}
        #: every counter/gauge/histogram this daemon owns, one registry
        #: (the object that gets snapshotted onto ``_bus.stat.*``).  The
        #: registry itself survives restarts; per-incarnation instrument
        #: families are dropped by :meth:`_start`.
        self.metrics = MetricsRegistry()
        # daemon-lifetime counters (survive restarts; they describe the
        # daemon object) — int views exposed as properties below
        scope = self._scope = self.metrics.scope(f"daemon.{host.address}")
        self._published = scope.counter("published")
        self._delivered = scope.counter("delivered")
        self._acks_sent = scope.counter("acks_sent")
        #: guaranteed deliveries pushed back to the ledger because a
        #: delivery lane was full (never shed — redelivered later)
        self._guaranteed_deferred = scope.counter("guaranteed_deferred")
        #: datagrams dropped because their frame failed wire validation
        self._corrupt_dropped = scope.counter("wire.corrupt_dropped")
        #: CRC-valid compressed frames dropped because they referenced
        #: string-table ids this daemon never learned (repaired via NACK)
        self._unresolved_dropped = scope.counter("wire.unresolved_dropped")
        #: CRC-valid typed frames dropped because they referenced
        #: session type ids this daemon never learned (repaired via NACK;
        #: the RETRANS re-defines every type it references)
        self._typedef_unresolved = scope.counter(
            "wire.typedef.unresolved_dropped")
        #: frames the interest gate skipped whole: no digest subject
        #: matched a local subscription, and the reliable window
        #: advanced straight from the digest (bodies never decoded)
        self._skipped_frames = scope.counter("wire.skipped_frames")
        #: envelopes inside those skipped frames (seq accounting done,
        #: bodies never materialized)
        self._skipped_envelopes = scope.counter("wire.skipped_envelopes")
        #: receive-path subject lookups (the gate's, per digest subject;
        #: dispatch's, per envelope body) that met an ill-formed subject
        #: in a CRC-valid frame and treated it as matching nothing
        self._bad_subjects = scope.counter("wire.bad_subjects")
        #: CRC-valid frames refused at first hearing of their session:
        #: ill-shaped name / epoch a newer one has superseded (a ghost)
        self._bad_sessions = scope.counter("wire.bad_sessions")
        self._stale_sessions = scope.counter("wire.stale_sessions")
        # lazily read wire/topology gauges (cost is paid at snapshot)
        scope.gauge("clients", source=lambda: len(self.clients))
        # (pattern, subscription) registrations on this plane
        scope.gauge("subscriptions", source=self.subscription_count)
        scope.gauge("wire.table_strings",
                    source=lambda: len(self._wire_table))
        scope.gauge("wire.peer_sessions", source=lambda: len(self.peers))
        scope.gauge("wire.peer_strings",
                    source=lambda: sum(len(peer.strings)
                                       for peer in self.peers.values()))
        scope.gauge("wire.typedef.table_types",
                    source=lambda: len(self._type_table))
        scope.gauge("wire.typedef.peer_sessions",
                    source=lambda: sum(1 for peer in self.peers.values()
                                       if peer.types))
        scope.gauge("wire.typedef.peer_types",
                    source=lambda: sum(len(peer.types)
                                       for peer in self.peers.values()))
        if self.shard_count > 1:
            # the shard.* family only exists on sharded hosts, so
            # unsharded snapshots are byte-identical to the pre-shard era
            scope.gauge("shard.id", source=lambda: self.shard)
            scope.gauge("shard.count", source=lambda: self.shard_count)
        #: whether this plane ever advertised a public pattern: from
        #: then on it adverts even an empty table, so a router's view of
        #: what it (or an earlier incarnation) wanted stays checked
        self._advertised = False
        self._started = False
        host.on_crash(self._on_crash)
        host.on_recover(self._on_recover)
        self._start()

    # ------------------------------------------------------------------
    # counter views (ints, the historical attribute surface)
    # ------------------------------------------------------------------
    @property
    def published(self) -> int:
        return self._published.value

    @property
    def delivered(self) -> int:
        return self._delivered.value

    @property
    def acks_sent(self) -> int:
        return self._acks_sent.value

    @property
    def corrupt_dropped(self) -> int:
        return self._corrupt_dropped.value

    @property
    def unresolved_dropped(self) -> int:
        return self._unresolved_dropped.value

    @property
    def typedef_unresolved_dropped(self) -> int:
        return self._typedef_unresolved.value

    @property
    def skipped_frames(self) -> int:
        return self._skipped_frames.value

    @property
    def peers(self) -> Dict[str, PeerSession]:
        """``session -> PeerSession``: all this plane knows of remote
        sessions (a session never heard, or retired, is not in it)."""
        return self._receiver.sessions

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        # shard > 0 marks the session *after* the '#': every consumer of
        # session strings that wants the host parses `split('#', 1)[0]`
        # (NACK unicast routing), which still yields the bare address
        self.session = (f"{self.host.address}#{self.host.epoch}"
                        if self.shard == 0 else
                        f"{self.host.address}#{self.host.epoch}"
                        f"~{self.shard}")
        self.session_started = self.sim.now
        # per-incarnation instrument families restart from zero, exactly
        # like the volatile state they describe (sessions, queues);
        # daemon-lifetime counters above are untouched
        for prefix in ("reliable.", "flow.reliable.retention[",
                       f"flow.outbound[{self.host.address}]",
                       f"transport.daemon[{self.host.address}]"):
            self.metrics.drop_prefix(prefix)
        self._socket = DatagramSocket(self.sim, self.host, self._port,
                                      self._on_datagram,
                                      metrics=self.metrics,
                                      metrics_name=(
                                          f"transport.daemon"
                                          f"[{self.host.address}]"),
                                      lane=self.shard)
        self._sender = ReliableSender(self.session, self.config.reliable,
                                      metrics=self.metrics)
        # wire-compression and type-plane state is volatile by design:
        # ids are scoped to the session name, so a restart (fresh
        # session) starts fresh tables and receivers, who learn them
        # into that session's PeerSession, never mix incarnations
        self._wire_table = StringTable()
        self._type_table = TypeTable()
        self._receiver = ReliableReceiver(self.sim, self.config.reliable,
                                          self._deliver_remote,
                                          self._send_nack,
                                          self.session,
                                          tracer=self.tracer,
                                          metrics=self.metrics)
        flow = self.config.flow
        # the one outbound queue: publishes are admitted here and wait
        # here until the batcher hands them to the send lane.  A full
        # queue sheds (drop-newest) or defers only the incoming
        # envelope, before it is stamped, so every seq reaches the wire
        # or dies with the session.  Guaranteed envelopes (the ones with
        # a ledger id) are never shed — deferred to the ledger's
        # retransmission when full, they leave only via the wire or a
        # crash.
        self._outbound = BoundedQueue(
            f"outbound[{self.host.address}]", flow.publish_queue,
            flow.publish_policy,
            sheddable=lambda env: env.ledger_id is None,
            tracer=self.tracer, now=lambda: self.sim.now,
            metrics=self.metrics)
        self._batcher = Batcher(self.sim, self.config.batch,
                                self._send_batch, queue=self._outbound,
                                host=self.host, lane=self.shard)
        #: the plane's one subscription table: pattern -> Subscription
        self._subscriptions: SubjectTrie = SubjectTrie()
        self._heartbeat = PeriodicTimer(
            self.sim, self.config.reliable.heartbeat_interval,
            self._send_heartbeat, name="daemon.heartbeat")
        gd_namespace = f"s{self.shard}" if self.shard else ""
        self._gpub = GuaranteedPublisher(
            self.sim, self.host, self.config.ack_quorum,
            self._republish_guaranteed, namespace=gd_namespace)
        self._gcon = GuaranteedConsumer(self.host, "gd.seen" + gd_namespace)
        #: volatile dedupe of guaranteed deliveries to non-durable clients
        #: (insertion-ordered so the oldest entries can be evicted at the
        #: configured cap)
        self._seen_ledgers: "OrderedDict[str, None]" = OrderedDict()
        #: refcounts of advertisable (non-reserved) patterns on this host
        self._public_patterns: Dict[str, int] = {}
        #: the periodic advert of the current table, encoded; dropped by
        #: every change to the table
        self._advert_payload: Optional[bytes] = None
        #: whether a solicit was answered since the last periodic advert
        self._solicit_answered = False
        self._solicit_listener: Optional[_SolicitListener] = None
        self._advert_timer: Optional[PeriodicTimer] = None
        if self.config.advertise_subscriptions:
            self._advert_timer = PeriodicTimer(
                self.sim, self.config.advert_interval,
                self._advertise_snapshot, name="daemon.advert")
            if self.shard == 0:
                self._solicit_listener = _SolicitListener(self)
                self._subscriptions.insert(
                    f"{SOLICIT_SUBJECT_PREFIX}.{self.host.address}",
                    self._solicit_listener)
        # telemetry plane: own socket and NO registry instruments of
        # its own — the publisher must never publish stats about its
        # own stat traffic (no echo)
        self._stat_socket = DatagramSocket(self.sim, self.host,
                                           self._stat_port,
                                           self._on_stat_datagram,
                                           lane=self.shard)
        #: stat subject -> when the send lane is done with its last
        #: snapshot (``send_free_at`` read right after the broadcast)
        self._stat_on_lane: Dict[str, float] = {}
        self._stat_publisher: Optional[MetricsPublisher] = None
        if self.config.stat_interval > 0:
            self._stat_publisher = MetricsPublisher(
                self.sim, self.metrics, self._publish_stats,
                self.config.stat_interval, name="daemon.stat")
        self._started = True

    def _on_crash(self) -> None:
        self._started = False
        if self._advert_timer is not None:
            self._advert_timer.stop()
        if self._stat_publisher is not None:
            self._stat_publisher.stop()
        self._heartbeat.stop()
        for lane in self._lanes.values():
            if lane.drain_event is not None:
                lane.drain_event.cancel()
                lane.drain_event = None
            lane.queue.clear()
        self._batcher.shutdown()
        self._receiver.shutdown()
        self._gpub.shutdown()

    def _on_recover(self) -> None:
        self._start()
        self._gcon.recover()
        # clients re-attach once, after *every* plane has restarted:
        # the last plane's listener runs last, and an earlier plane
        # doing it would fan subscriptions into planes still down
        if self is self.planes[-1]:
            for client in list(self.clients.values()):
                client._reattach()

    @property
    def up(self) -> bool:
        return self._started and self.host.up

    def _require_up(self) -> None:
        if not self.up:
            raise BusDownError(f"daemon on {self.host.address} is down")

    # ------------------------------------------------------------------
    # client registration (the "applications register" part)
    # ------------------------------------------------------------------
    def attach_client(self, client: "BusClient") -> None:
        if client.name in self.clients:
            raise ValueError(
                f"host {self.host.address}: an application named "
                f"{client.name!r} is already registered")
        self.clients[client.name] = client
        self._lanes[client.name] = _DeliveryLane(
            BoundedQueue(
                f"deliver[{client.id}]", self.config.flow.delivery_queue,
                POLICY_DROP_OLDEST,
                # guaranteed deliveries are deferred, never shed
                sheddable=lambda item: item[0].ledger_id is None,
                tracer=self.tracer, now=lambda: self.sim.now,
                metrics=self.metrics),
            service_time=getattr(client, "service_time", 0.0))

    def detach_client(self, client: "BusClient") -> None:
        self.clients.pop(client.name, None)
        lane = self._lanes.pop(client.name, None)
        if lane is not None and lane.drain_event is not None:
            lane.drain_event.cancel()

    def add_subscription(self, subscription: "Subscription") -> None:
        self._require_up()
        pattern = subscription.pattern
        self._subscriptions.insert(pattern, subscription)
        if self._advertisable(pattern):
            count = self._public_patterns.get(pattern, 0)
            self._public_patterns[pattern] = count + 1
            if count == 0:
                self._advertise("add", [pattern])

    def remove_subscription(self, subscription: "Subscription") -> None:
        pattern = subscription.pattern
        if not (self._started
                and self._subscriptions.remove(pattern, subscription)):
            return
        if self._advertisable(pattern):
            count = self._public_patterns.get(pattern, 0) - 1
            if count <= 0:
                self._public_patterns.pop(pattern, None)
                self._advertise("remove", [pattern])
            else:
                self._public_patterns[pattern] = count

    # ------------------------------------------------------------------
    # subscription advertisement (router support)
    # ------------------------------------------------------------------
    def _advertisable(self, pattern: str) -> bool:
        return (self.config.advertise_subscriptions
                and not pattern.split(".", 1)[0].startswith("_"))

    def _advertise(self, action: str, patterns: List[str]) -> None:
        """Broadcast one change (``add``/``remove``) to the public table."""
        self._advertised = True
        self._advert_payload = None
        self._publish_advert(self._advert_bytes(action, patterns=patterns))

    def _advert_bytes(self, action: str, **fields: Any) -> bytes:
        return encode({"action": action, **fields, "host": self.host.address})

    def _publish_advert(self, payload: bytes) -> None:
        self.publish(f"{self.host.address}._daemon", ADVERT_SUBJECT, payload)

    def _advertise_snapshot(self) -> None:
        """The periodic advert: a ``summary`` carrying the table's
        :func:`advert_digest`, or the whole ``snapshot`` when that
        encodes smaller (a ``>``-only table), so no plane sends more
        than the table; both are encoded once per change to it."""
        self._solicit_answered = False
        if not self.up or not (self._public_patterns or self._advertised):
            return
        if self._advert_payload is None:
            patterns = sorted(self._public_patterns)
            self._advert_payload = min(
                self._advert_bytes("snapshot", patterns=patterns),
                self._advert_bytes("summary", digest=advert_digest(patterns)),
                key=len)
        self._publish_advert(self._advert_payload)

    def _answer_solicit(self) -> None:
        """A router asked for this host's tables: send the whole one
        now, at most once between two periodic adverts."""
        if not self.up or self._solicit_answered:
            return
        self._solicit_answered = True
        self._publish_advert(self._advert_bytes(
            "snapshot", patterns=sorted(self._public_patterns)))

    def subscription_count(self) -> int:
        """The (pattern, subscription) registrations of applications on
        this plane (plane 0's solicit listener is not one)."""
        return len(self._subscriptions) - (
            self._solicit_listener is not None)

    # ------------------------------------------------------------------
    # publish path
    # ------------------------------------------------------------------
    def publish(self, client_id: str, subject: str, payload: bytes,
                qos: QoS = QoS.RELIABLE,
                via: tuple = (), type_refs: tuple = ()) -> PublishReceipt:
        """Publish pre-marshalled ``payload`` under ``subject``.

        The receipt says whether the outbound pipeline admitted the
        message.  A deferred/dropped publish was never stamped with a
        sequence number and never delivered locally; deferred guaranteed
        messages are already in the stable ledger and retransmit
        automatically.  ``via`` carries router path stamps on
        re-publications (see :mod:`repro.core.router`); ordinary
        publishers leave it empty.  ``type_refs`` carries the session
        type-table ids a payload marshalled with ``encode_typed``
        references, so the wire layer can ride the typedef definitions
        in-band.
        """
        self._require_up()
        validate_subject(subject)
        envelope = Envelope(subject=subject, sender=client_id,
                            session=self.session, seq=0, payload=payload,
                            qos=qos, publish_time=self.sim.now,
                            via=tuple(via), type_refs=tuple(type_refs))
        if qos is QoS.GUARANTEED:
            # logged before the first transmission attempt, per the
            # paper — which is also why a full queue can safely defer
            envelope.ledger_id = self._gpub.record(subject, client_id,
                                                   payload)
        admission = self._outbound.offer(envelope)
        if admission is not Admission.ACCEPTED:
            return PublishReceipt(admission, len(payload))
        self._sender.stamp(envelope)
        self._published.value += 1
        if self.tracer:
            self.tracer.emit(self.sim.now, "publish", subject=subject,
                             seq=envelope.seq, size=len(payload))
        self._dispatch(envelope, False)   # same-host subscribers
        self._batcher.add(envelope)
        return PublishReceipt(Admission.ACCEPTED, len(payload), envelope)

    def flush(self) -> None:
        """Send everything the outbound queue holds now, in groups,
        oldest first, without waiting for the lane or the batch delay."""
        self._batcher.flush()

    def _republish_guaranteed(self, entry: LedgerEntry) -> None:
        if not self.up:
            return
        envelope = Envelope(subject=entry.subject, sender=entry.sender,
                            session=self.session, seq=0,
                            payload=entry.payload, qos=QoS.GUARANTEED,
                            ledger_id=entry.ledger_id,
                            publish_time=self.sim.now)
        if self._outbound.offer(envelope) is not Admission.ACCEPTED:
            return   # still congested; the ledger timer tries again
        self._sender.stamp(envelope)
        self._dispatch(envelope, False)
        self._batcher.add(envelope)

    # ------------------------------------------------------------------
    # outbound (admission queue -> batcher -> wire)
    # ------------------------------------------------------------------
    def _send_batch(self, envelopes: List[Envelope]) -> None:
        if not self.up:
            return
        packet = Packet(PacketKind.DATA, self.session, envelopes,
                        session_start=self.session_started)
        # one encoding per fan-out: the broadcast medium carries these
        # bytes to every consumer, so publisher cost is independent of
        # the consumer count (the paper's headline claim)
        self._socket.broadcast(
            encode_packet(packet, self._wire_table,
                          type_table=self._type_table),
            self._port)

    def _send_heartbeat(self) -> None:
        if not self.up:
            return
        # seqs still in the outbound queue (waiting for the lane or the
        # batch delay) are not announced: a receiver would NACK them
        # while they wait
        held = self._batcher.first_held
        last_seq = self._sender.last_seq if held is None else held.seq - 1
        if last_seq == 0:
            return
        packet = Packet(PacketKind.HEARTBEAT, self.session,
                        last_seq=last_seq,
                        session_start=self.session_started)
        self._socket.broadcast(encode_packet(packet), self._port)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_datagram(self, data: bytes, size: int, src: Endpoint) -> None:
        if self._gate_datagram(data):
            return
        try:
            packet = decode_packet(data, self._receiver)
        except CorruptFrame as err:
            self._drop_undecodable(err)
            return
        kind = packet.kind
        try:
            if kind is PacketKind.DATA or kind is PacketKind.RETRANS:
                handle = self._receiver.handle_envelope
                retransmitted = kind is PacketKind.RETRANS
                session_start = packet.session_start
                for envelope in packet.envelopes:
                    handle(envelope, retransmitted, session_start)
            elif kind is PacketKind.HEARTBEAT:
                self._receiver.handle_heartbeat(
                    packet.session, packet.last_seq, packet.session_start)
            elif kind is PacketKind.NACK:
                self._serve_nack(packet, src)
            elif kind is PacketKind.ACK:
                # both fields are optional on the wire; an ACK that does
                # not say what was received, or by whom, confirms nothing
                ledger_id, consumer = packet.ack_ledger_id, packet.ack_consumer
                if isinstance(ledger_id, str) and isinstance(consumer, str):
                    self._gpub.handle_ack(ledger_id, consumer)
        except RefusedSession as err:
            # an uncompressed DATA, RETRANS or HEARTBEAT frame: the codec
            # never asked, so the receiver is the first to hear (and
            # refuse) its session — the whole frame's, so the frame is
            # dropped, once
            self._drop_undecodable(err)

    def _gate_datagram(self, data: bytes) -> bool:
        """The interest gate: True when the frame is fully handled in
        O(header) — nothing local wanted it and the reliable window
        advanced from its subject digest alone (or it was corrupt /
        unresolvable, handled exactly as the full path would).

        Falls back to the full decode path (returns False) whenever
        skipping could be observable: a digest subject matches a local
        subscription (including the router leg's forwarding patterns,
        which live in this same trie), the frame carries guaranteed or
        unsequenced envelopes, or the reliable receiver is in any state
        other than trivial in-order/duplicate accounting.
        """
        try:
            digest = read_digest(data, self._receiver)
        except CorruptFrame as err:
            # the full path would have rejected it too: the digest read
            # is the full decode stopped early
            self._drop_undecodable(err)
            return True
        if digest is None or digest.needs_full:
            return False
        matches = self._subscriptions.match
        for subject in digest.subjects:
            try:
                if matches(subject):
                    return False
            except BadSubjectError:
                # wire is subject-syntax-agnostic, so a CRC-valid frame
                # can carry an ill-formed subject: it matches nothing
                self._bad_subjects.value += 1
        if not self._receiver.try_skip(digest.session, digest.seqs):
            return False
        self._skipped_frames.value += 1
        self._skipped_envelopes.value += len(digest.seqs)
        return True

    def _drop_undecodable(self, err: CorruptFrame) -> None:
        """Drop a data-port frame either wire entry point rejected, or
        whose session the receiver refused at first hearing."""
        if isinstance(err, RefusedSession):
            (self._stale_sessions if err.stale
             else self._bad_sessions).value += 1
            return
        if not isinstance(err, UnresolvedIds):
            # a corrupted frame is indistinguishable from loss; the
            # NACK/heartbeat machinery repairs the gap
            self._corrupt_dropped.value += 1
            return
        # CRC-valid but referencing table ids — string or type — we
        # never learned (the defining frame was lost): drop it like a
        # gap, but *arm the repair* — the self-contained RETRANS will
        # resolve
        if isinstance(err, UnresolvedTypeId):
            self._typedef_unresolved.value += 1
        else:
            self._unresolved_dropped.value += 1
        if self.tracer:
            self.tracer.emit(self.sim.now, "wire.unresolved",
                             session=err.session,
                             first=err.first_seq, last=err.last_seq)
        self._receiver.note_undecodable(
            err.session, err.first_seq, err.last_seq,
            session_start=err.session_start)

    def _serve_nack(self, packet: Packet, src: Endpoint) -> None:
        if packet.session != self.session or packet.nack_range is None:
            return
        first, last = packet.nack_range
        repairs = self._sender.repair(first, last)
        if not repairs:
            return
        if self.tracer:
            self.tracer.emit(self.sim.now, "retransmit", first=first,
                             last=last, count=len(repairs))
        # the repair defines every table id — string *and* type — it
        # references, so the requester decodes it even if it missed the
        # defining DATA frame
        reply = Packet(PacketKind.RETRANS, self.session, repairs,
                       session_start=self.session_started)
        self._socket.sendto(
            encode_packet(reply, self._wire_table,
                          type_table=self._type_table),
            src[0], self._port)

    def _send_nack(self, session: str, first: int, last: int) -> None:
        if not self.up:
            return
        target_host = session.split("#", 1)[0]
        packet = Packet(PacketKind.NACK, session, nack_range=(first, last))
        if self.tracer:
            self.tracer.emit(self.sim.now, "nack", session=session,
                             first=first, last=last)
        self._socket.sendto(encode_packet(packet), target_host, self._port)

    # ------------------------------------------------------------------
    # delivery to applications
    # ------------------------------------------------------------------
    def _dispatch(self, envelope: Envelope, retransmitted: bool) -> None:
        """Offer ``envelope`` — remote, this host's own or telemetry — to
        each client with a matching subscription, in subscription order,
        together with that client's matches."""
        # ``self.up``, minus its two chained property calls per envelope
        if not (self._started and self.host.up):
            return
        try:
            matched = self._subscriptions.match(envelope.subject)
        except BadSubjectError:
            # a peer's subject (written once, in its frame's digest) is
            # ill-formed and reached here on the full path — a
            # guaranteed entry, or a frame another subject made
            # interesting: it matches nothing.  A local publish cannot
            # raise here: publish() validated it.
            self._bad_subjects.value += 1
            return
        if not matched:
            return
        if len(matched) == 1:
            (subscription,) = matched
            offers = ((subscription.client, matched),)
        else:
            by_client: Dict["BusClient", List["Subscription"]] = {}
            for subscription in sorted(matched, key=_by_seq):
                by_client.setdefault(subscription.client,
                                     []).append(subscription)
            offers = by_client.items()
        if envelope.ledger_id is not None:
            self._dispatch_guaranteed(envelope, matched, offers,
                                      retransmitted)
            return
        for client, subscriptions in offers:
            self._lane_offer(client, envelope, retransmitted, subscriptions)

    #: the reliable receiver's delivery callback (its own name: the bus
    #: ledger traces it as the remote-delivery entry point)
    _deliver_remote = _dispatch

    def _lane_offer(self, client: "BusClient", envelope: Envelope,
                    retransmitted: bool, subscriptions) -> None:
        """Hand one envelope, with the client's subscriptions it matched,
        to one application through its lane."""
        lane = self._lanes.get(client.name)
        if lane is None or (lane.service_time <= 0.0 and not lane.queue):
            # instant consumer: the historical synchronous fast path
            if lane is not None:
                lane.queue.pass_through()
            if envelope.seq:   # seq-0 = telemetry; never self-counted
                self._delivered.value += 1
            client._deliver(envelope, retransmitted,
                            self.type_resolver(envelope.session),
                            subscriptions)
            return
        # queued with its type resolver: the sender's record may be
        # retired (a newer epoch heard) before a slow consumer gets here
        admission = lane.queue.offer(
            (envelope, retransmitted, self.type_resolver(envelope.session),
             subscriptions))
        if admission is Admission.ACCEPTED and lane.drain_event is None:
            self._arm_lane(client.name, lane)

    def _arm_lane(self, name: str, lane: _DeliveryLane) -> None:
        lane.drain_event = self.sim.schedule(
            lane.service_time, self._lane_drain, name, name="flow.deliver")

    def _lane_drain(self, name: str) -> None:
        lane = self._lanes.get(name)
        if lane is None:
            return
        lane.drain_event = None
        if not self.up or not lane.queue:
            return
        envelope, retransmitted, resolver, subscriptions = lane.queue.take()
        client = self.clients.get(name)
        if client is not None:
            if envelope.seq:   # seq-0 = telemetry; never self-counted
                self._delivered.value += 1
            client._deliver(envelope, retransmitted, resolver, subscriptions)
        if lane.queue and lane.drain_event is None:
            self._arm_lane(name, lane)

    def _lanes_have_room(self, offers) -> bool:
        for client, _ in offers:
            lane = self._lanes.get(client.name)
            if lane is None:
                continue
            if (lane.service_time > 0.0 or lane.queue) and lane.queue.full:
                return False
        return True

    def _dispatch_guaranteed(self, envelope: Envelope, matched, offers,
                             retransmitted: bool) -> None:
        """Guaranteed messages: dedupe by ledger id, ack on durable receipt.

        The lane-room check runs *before* the delivery dedupe is consumed
        and before any ack: a guaranteed message facing a full lane is
        deferred whole — the publisher's ledger keeps retransmitting until
        every target application has room, so guaranteed QoS is never shed.
        With no durable subscriber here it is delivered once to regular
        subscribers (a bounded seen set, nothing acked).
        """
        ledger_id = envelope.ledger_id
        durable = any(subscription.durable for subscription in matched)
        if not durable and ledger_id in self._seen_ledgers:
            return
        if not self._lanes_have_room(offers):
            self._guaranteed_deferred.value += 1
            if self.tracer:
                self.tracer.emit(self.sim.now, "flow.defer", queue="deliver",
                                 ledger_id=ledger_id,
                                 subject=envelope.subject)
            return
        if durable:
            first = self._gcon.first_delivery(ledger_id)
        else:
            first = True
            self._seen_ledgers[ledger_id] = None
            while len(self._seen_ledgers) > self.config.seen_ledger_cap:
                self._seen_ledgers.popitem(last=False)
        if first:
            for client, subscriptions in offers:
                self._lane_offer(client, envelope, retransmitted,
                                 subscriptions)
        if durable:
            self._send_ack(envelope)   # (re-)ack even on duplicates

    def _send_ack(self, envelope: Envelope) -> None:
        origin_host = envelope.ledger_id.split("/", 1)[0]
        self._acks_sent.value += 1
        packet = Packet(PacketKind.ACK, self.session,
                        ack_ledger_id=envelope.ledger_id,
                        ack_consumer=self.host.address)
        if origin_host == self.host.address:
            # local durable consumer: ack without touching the wire
            self._gpub.handle_ack(envelope.ledger_id, self.host.address)
            return
        self._socket.sendto(encode_packet(packet), origin_host, self._port)

    # ------------------------------------------------------------------
    # telemetry plane (reserved ``_bus.stat.*`` subjects)
    # ------------------------------------------------------------------
    def _publish_stats(self, snapshot: Dict[str, Any]) -> None:
        """Publish one registry snapshot on ``_bus.stat.<host>.daemon``.

        Snapshots are self-describing data objects (the
        :mod:`repro.objects` marshalling), exactly as the paper's
        system-management tools expect: any subscriber can decode them
        with no out-of-band schema.
        """
        if not self.up:
            return
        record = {"host": self.host.address,
                  "time": self.sim.now,
                  "interval": self.config.stat_interval,
                  "metrics": snapshot}
        subject = f"{STAT_SUBJECT_PREFIX}.{self.host.address}.daemon"
        if self.shard_count > 1:
            # shard planes are separate snapshot sources: an extra
            # subject element keeps them distinct for aggregators, and
            # the payload says which plane this is
            record["shard"] = self.shard
            subject = f"{subject}.s{self.shard}"
        payload = encode(record)
        self.publish_stat_bytes(subject, payload)

    def publish_stat_bytes(self, subject: str, payload: bytes,
                           via: tuple = ()) -> None:
        """Broadcast a telemetry envelope outside the data plane.

        Stat envelopes are *unsequenced* (``seq == 0``): they bypass the
        reliable protocol entirely, so they never consume data-plane
        sequence numbers, never trigger NACKs, and are trivially
        identifiable for exclusion from the counters they would perturb.
        They are plain-encoded (no string table) so the data plane's
        wire-compression state is untouched.  Like a heartbeat, a
        snapshot goes straight onto the send lane, so a saturated host
        stays visible; it is skipped only while its subject's previous
        snapshot is still on the lane, so a busy lane never backs up
        stale snapshots of one source.
        """
        if not self.up:
            return
        envelope = Envelope(subject=subject, sender=self.session,
                            session=self.session, seq=0, payload=payload,
                            publish_time=self.sim.now, via=tuple(via))
        self._dispatch(envelope, False)        # local subscribers
        self._pump_fire(envelope)

    def _pump_fire(self, envelope: Envelope) -> None:
        """Put one snapshot on the stat socket, unless the lane still
        holds its subject's previous one (the newest supersedes it)."""
        subject = envelope.subject
        if self.sim.now < self._stat_on_lane.get(subject, 0.0):
            return
        packet = Packet(PacketKind.DATA, self.session, [envelope],
                        session_start=self.session_started)
        # plain encoding: stat frames never touch the string table
        self._stat_socket.broadcast(encode_packet(packet), self._stat_port)
        self._stat_on_lane[subject] = self.host.send_free_at(self.shard)

    def _on_stat_datagram(self, data: bytes, size: int,
                          src: Endpoint) -> None:
        try:
            packet = decode_packet(data)
        except CorruptFrame:
            return   # telemetry is best-effort: no counter, no repair
        if packet.kind is not PacketKind.DATA:
            return
        if packet.session == self.session:
            return   # our own broadcast echoed back
        # unsequenced: the delivery lanes, not the reliable protocol.  A
        # daemon never sends telemetry guaranteed, so a ledger id here is
        # forged and must not reach the ledger dedupe or send an ACK
        for envelope in packet.envelopes:
            if envelope.ledger_id is None:
                self._dispatch(envelope, False)

    # ------------------------------------------------------------------
    # session type plane (see repro.core.typeplane)
    # ------------------------------------------------------------------
    def type_table_for(self, subject: str) -> TypeTable:
        """The sender-side type table a publish on ``subject`` rides.

        A plane has one session table whatever the subject: the
        client asks the plane that will carry the publish, so typed
        payloads reference ids the carrying plane actually defines.
        """
        return self._type_table

    def type_resolver(self, session: str
                      ) -> Optional[Union[TypeTable, PeerTypeView]]:
        """The resolver clients use to decode ``O``-tagged payloads from
        ``session``: this daemon's own :class:`TypeTable` for loop-back
        deliveries, or the peer session's :class:`PeerTypeView` over
        the typedefs learned from its frames.  ``None`` when the session
        is unknown or retired (a typed payload then fails decode with
        ``UnknownTypeError`` — counted by the client, never a crash).
        """
        if session == self.session:
            return self._type_table
        peer = self._receiver.sessions.get(session)
        return None if peer is None else peer.type_view

    # ------------------------------------------------------------------
    # introspection helpers (tests, benches, routers)
    # ------------------------------------------------------------------
    def flow_stats(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every flow-control queue this daemon owns."""
        stats = {"outbound": self._outbound.snapshot()}
        for name, lane in self._lanes.items():
            stats[f"deliver[{name}]"] = lane.queue.snapshot()
        return stats

    def guaranteed_pending(self) -> List[LedgerEntry]:
        return self._gpub.pending()

    def sender_retransmissions(self) -> int:
        return self._sender.retransmissions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BusDaemon {self.session} clients={len(self.clients)}>"
