"""The application-facing bus API.

A :class:`BusClient` is one application registered with its host's
daemon.  It owns a :class:`~repro.objects.registry.TypeRegistry` — *its
own* view of the type universe, which grows as messages carrying inline
type metadata arrive (P2/P3 in action) — and exposes the two calls the
paper's model revolves around: :meth:`publish` and :meth:`subscribe`.

Consumers "need not know who produces the objects, and producers need
not know who consumes" (P4): nothing in this API names a peer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import itertools

from ..objects import (TypeRegistry, decode, encode, encode_typed,
                       standard_registry)
from .daemon import BusDaemon
from .flow import PublishReceipt
from .message import Envelope, MessageInfo, QoS
from .sharding import ShardMap
from .subjects import validate_pattern

__all__ = ["BusClient", "Subscription"]

#: Callback signature: (subject, decoded object, delivery metadata).
MessageHandler = Callable[[str, Any, MessageInfo], None]

_subscription_seq = itertools.count(1)


@dataclass(eq=False)
class Subscription:
    """A live subscription; pass back to :meth:`BusClient.unsubscribe`.

    Identity semantics (``eq=False``): two subscriptions with the same
    pattern are distinct registrations, and each keeps its callback.
    It is what registers on each daemon plane: a plane's match yields
    subscriptions, and ``client`` says whose lane each one feeds.
    """

    pattern: str
    callback: MessageHandler
    client: "BusClient"
    durable: bool = False
    active: bool = True
    seq: int = 0

    def __post_init__(self) -> None:
        self.seq = next(_subscription_seq)


class BusClient:
    """One application's handle on the Information Bus."""

    def __init__(self, daemon: BusDaemon, name: str,
                 registry: Optional[TypeRegistry] = None,
                 service_time: float = 0.0):
        #: plane 0 of the host's daemon planes: the host's identity
        #: (``host``, ``config``, ``up``) and its control plane
        self.daemon = daemon
        #: every plane, and the map that places subjects on them: a
        #: publish goes to the one plane that owns its subject, a
        #: subscription registers on every plane that could carry a match
        self._planes: List[BusDaemon] = daemon.planes
        self._map = ShardMap(len(self._planes))
        self.name = name
        self.registry = registry if registry is not None else standard_registry()
        self.id = f"{daemon.host.address}.{name}"
        #: simulated seconds this application takes to consume one
        #: message (read by the daemon when it builds the delivery lane;
        #: 0 = instant, the synchronous fast path)
        self.service_time = max(0.0, service_time)
        #: live subscriptions in order; the planes' tries match them
        self._subscriptions: List[Subscription] = []
        self.messages_published = 0
        self.messages_received = 0
        self.decode_errors = 0
        self.last_error: Optional[Exception] = None
        for plane in self._planes:
            plane.attach_client(self)
        #: this application's instruments, in plane 0's registry
        #: whichever plane delivers: the publish-to-callback ``latency``
        #: histogram, ``latency.refused`` (deliveries whose publish time
        #: is later than the delivery, made at the first), and the
        #: refusal counters of the bus objects it runs
        #: (:mod:`repro.core.contracts`)
        self.metrics = daemon.metrics.scope(f"client.{name}")
        self._latency = self.metrics.histogram("latency")

    @property
    def sim(self):
        return self.daemon.sim

    @property
    def host(self):
        return self.daemon.host

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(self, subject: str, obj: Any, qos: QoS = QoS.RELIABLE,
                inline_types: Optional[bool] = None,
                via: tuple = ()) -> PublishReceipt:
        """Marshal ``obj`` and publish it under ``subject``.

        Returns a :class:`~repro.core.flow.PublishReceipt` — truthy when
        the message was admitted, with ``receipt.size`` the payload
        bytes.  A falsy receipt means the outbound pipeline deferred or
        dropped the publish; a deferred publish is the caller's to
        retry.  With ``inline_types`` unset, receivers
        still learn new types: a reliable publish uses
        :func:`~repro.objects.marshal.encode_typed`, whose typedefs ride
        the wire frames once per session, and a guaranteed publish
        carries them inline, because its ledgered payload outlives the
        session the type ids are scoped to.  An explicit
        ``inline_types=`` gets the self-contained (True) or bare (False)
        encoding; bare suits a closed world whose receivers
        pre-register every type.  ``via`` is for information routers
        re-publishing forwarded traffic; ordinary applications leave it
        empty.
        """
        plane = self._planes[self._map.shard_of(subject)]
        if inline_types is None and qos is not QoS.GUARANTEED:
            # each plane owns its own session type table, and the
            # payload must reference ids defined on the plane that
            # carries it
            payload, type_refs = encode_typed(
                obj, self.registry, plane.type_table_for(subject))
        else:
            payload = encode(
                obj, self.registry,
                inline_types=True if inline_types is None else inline_types)
            type_refs = ()
        receipt = plane.publish(self.id, subject, payload, qos,
                                via=via, type_refs=type_refs)
        if receipt.accepted:
            self.messages_published += 1
        return receipt

    def publish_bytes(self, subject: str, payload: bytes,
                      qos: QoS = QoS.RELIABLE) -> PublishReceipt:
        """Publish a pre-marshalled payload (benchmark hot path)."""
        receipt = self._planes[self._map.shard_of(subject)].publish(
            self.id, subject, payload, qos)
        if receipt.accepted:
            self.messages_published += 1
        return receipt

    # ------------------------------------------------------------------
    # subscribing
    # ------------------------------------------------------------------
    def subscribe(self, pattern: str, callback: MessageHandler,
                  durable: bool = False) -> Subscription:
        """Receive every message whose subject matches ``pattern``.

        ``durable=True`` marks this a guaranteed-delivery consumer: the
        daemon acknowledges matching guaranteed messages after logging
        them, and dedupes redeliveries across crashes.
        """
        validate_pattern(pattern)
        subscription = Subscription(pattern, callback, self, durable)
        # kept only once every plane took it: one refused on a down
        # host is not reattached when the host recovers
        for plane in self._planes_for(pattern):
            plane.add_subscription(subscription)
        self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        if not subscription.active:
            return
        subscription.active = False
        self._subscriptions.remove(subscription)
        for plane in self._planes_for(subscription.pattern):
            plane.remove_subscription(subscription)

    def _planes_for(self, pattern: str) -> List[BusDaemon]:
        """Every plane a subscription on ``pattern`` registers on."""
        return [self._planes[shard]
                for shard in self._map.shards_for_pattern(pattern)]

    def close(self) -> None:
        """Unsubscribe everything and detach from the daemon."""
        for subscription in list(self._subscriptions):
            self.unsubscribe(subscription)
        for plane in self._planes:
            plane.detach_client(self)

    # ------------------------------------------------------------------
    # delivery (called by the daemon)
    # ------------------------------------------------------------------
    def _deliver(self, envelope: Envelope, retransmitted: bool,
                 resolver, subscriptions) -> None:
        """Call the still-active ones of ``subscriptions`` — this
        client's matches, in subscription order, as the daemon saw them
        when it dispatched ``envelope``."""
        payload = envelope.payload
        try:
            # ``resolver``: the delivering plane's, for the envelope's
            # session — captured when a lane queued this
            obj = decode(payload, self.registry, type_resolver=resolver)
        except Exception as error:   # unknown type, corrupt payload
            self.decode_errors += 1
            self.last_error = error
            return
        subject = envelope.subject
        seq = envelope.seq
        publish_time = envelope.publish_time
        # one clock read: simulated time cannot advance inside a callback
        now = self.daemon.sim.now
        info = MessageInfo(subject, envelope.sender, envelope.session, seq,
                           envelope.qos, publish_time, now, len(payload),
                           retransmitted, envelope.via)
        delivered = False
        for subscription in subscriptions:
            if subscription.active:
                delivered = True
                subscription.callback(subject, obj, info)
        if delivered:
            self.messages_received += 1
            # seq-0 envelopes are telemetry-plane self-traffic: they are
            # delivered but never measured (the no-echo invariant)
            if seq:
                if now >= publish_time:
                    self._latency.observe(now - publish_time)
                else:
                    # the sender's stamp is later than this clock: not
                    # a latency (one forged frame would skew them all)
                    self.metrics.counter("latency.refused").inc()

    def _reattach(self) -> None:
        """Re-register all subscriptions after the host recovered."""
        for subscription in self._subscriptions:
            for plane in self._planes_for(subscription.pattern):
                plane.add_subscription(subscription)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BusClient {self.id} subs={len(self._subscriptions)}>"
