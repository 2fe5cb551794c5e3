"""Information routers: bridging buses across wide-area links (Section 3.1).

    "Our implementation uses application-level 'information routers' ...
    To the Information Bus, these routers look like ordinary applications,
    but they actually integrate multiple instances of the bus.  Messages
    are received by one router using a subscription, transmitted to
    another router, and then re-published on another bus.  The router is
    intelligent about which messages are sent to which routers: messages
    are only re-published on buses for which there exists a subscription
    on that subject; the router can also perform other functions, such as
    transforming subjects or logging messages to non-volatile storage."

A :class:`Router` has one :class:`RouterLeg` per bus.  Each leg is an
ordinary bus client.  Legs learn their bus's subscription table from the
daemons' ``_sub.advert`` broadcasts and ship pattern updates to the other
legs over the WAN; a leg subscribes locally to exactly the patterns the
*other* sides want, and forwards matching traffic across the
:class:`WanLink` to be re-published — creating "the illusion of a single,
large bus".

Each direction of the :class:`WanLink` is a bounded store-and-forward
queue that never sheds: a full direction defers the transfer and says so.
A deferred data forward is counted (``deferred``) and not retried; a
deferred store-and-forward shipment is re-shipped by its retry timer.
``shed`` counts only forwards a down link (or a vanished target leg)
lost.

A leg keeps one view of each advertising daemon plane's table.  It
polls its bus on ``_sub.solicit`` every interval, and the poll carries
the leg's view: a digest per plane.  A plane the leg has wrong answers
with its whole table and from then on pushes every change; one the leg
has right stays silent.  So a late or deaf leg catches up within one
interval plus a round trip, and a converged bus sends no advert.

A leg admits an ``_sub.advert`` payload through the ``sub_advert``
contract (:mod:`repro.core.contracts`): any application may publish on
that subject, so one that is not a daemon's advert is dropped and
counted in the leg's ``contract.sub_advert.refused``.

Because a leg is an ordinary client, its forwarding patterns live in its
host daemon's subscription trie — so the interest gate (the "Receive
path" in docs/PROTOCOLS.md) consults the forwarding table for free:
frames carrying only subjects no local application *and no remote bus*
wants are skipped from their digests without decoding a body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..objects import decode, encode, standard_registry
from ..sim.kernel import PeriodicTimer, Simulator
from ..sim.trace import Tracer
from .bus import InformationBus
from .client import BusClient, Subscription
from .contracts import admits
from .daemon import (ADVERT_SUBJECT, SOLICIT_SUBJECT_PREFIX, advert_digest,
                     advert_key)
from .flow import Admission, BoundedQueue
from .guaranteed import GuaranteedConsumer
from .message import MessageInfo, QoS
from .metrics import Counter, MetricsRegistry
from .subjects import SubjectTrie

__all__ = ["Router", "RouterLeg", "WanLink"]

#: Router clients are named so legs can recognize (and not re-forward)
#: each other's re-publications.
ROUTER_CLIENT_NAME = "_router"

#: Link-layer overhead the WAN pipe adds per transfer (headers, framing)
#: on top of the measured payload bytes — the wide-area analogue of
#: :attr:`~repro.sim.network.CostModel.frame_overhead`.
_WAN_OVERHEAD = 32

#: Seconds between re-shipments of unconfirmed store-and-forward records.
SF_RETRY_INTERVAL = 0.5


@dataclass
class WanLink:
    """A point-to-point wide-area link between two router legs.

    Models latency plus serialization through a bounded-bandwidth pipe,
    with independent capacity per direction.  Each direction is a bounded
    store-and-forward queue from the shared flow-control layer
    (:mod:`repro.core.flow`): a saturated pipe fills its queue and
    :meth:`send` starts returning ``DEFERRED`` — backpressure on the
    router leg — instead of queueing unboundedly or dropping invisibly.
    """

    latency: float = 0.03                      # 30 ms coast-to-coast
    bandwidth_bytes_per_sec: float = 1_500_000 / 8   # a T1-and-a-bit
    #: per-direction store-and-forward queue bound (messages)
    queue_capacity: int = 512

    def __post_init__(self) -> None:
        self._queues: Dict[Tuple[str, str], BoundedQueue] = {}
        self._transferring: set = set()
        self._sim: Optional[Simulator] = None
        self._down = False
        #: messages lost to a down link (plus any caught mid-transfer) —
        #: a detached instrument until a router adopts it (attach_metrics)
        self._messages_dropped = Counter("wan.messages_dropped")
        self._metrics: Optional[MetricsRegistry] = None
        #: set by the router when it learns a bus's tracer, so down-link
        #: drops and queue deferrals surface as ``flow.*`` events
        self.tracer: Optional[Tracer] = None

    def attach_metrics(self, registry) -> None:
        """Adopt this link's instruments into ``registry`` (a
        :class:`~repro.core.metrics.MetricsRegistry` or a scope view).

        A :class:`WanLink` can be built standalone (before any router
        exists), so its counter starts detached; the owning router
        registers it — and future per-direction queues pick up the same
        registry for their flow instruments (``flow.wan[a->b].*``).
        """
        registry.register("wan.messages_dropped", self._messages_dropped)
        self._metrics = registry

    def fail(self) -> None:
        """Take the link down: traffic handed to it is lost (it is a
        datagram pipe — durability is the store-and-forward layer's job).
        Queued transfers are lost with it, counted as drops."""
        self._down = True
        for key, queue in self._queues.items():
            lost = queue.clear()
            if lost:
                self._messages_dropped.value += lost
                if self.tracer and self._sim is not None:
                    self.tracer.emit(self._sim.now, "flow.drop",
                                     queue=f"wan[{key[0]}->{key[1]}]",
                                     reason="link-down", count=lost)

    def restore(self) -> None:
        self._down = False

    def transfer_time(self, size: int) -> float:
        return (size + _WAN_OVERHEAD) / self.bandwidth_bytes_per_sec

    def _queue(self, sim: Simulator, key: Tuple[str, str]) -> BoundedQueue:
        self._sim = sim
        queue = self._queues.get(key)
        if queue is None:
            queue = BoundedQueue(
                f"wan[{key[0]}->{key[1]}]", self.queue_capacity,
                tracer=self.tracer, now=lambda: sim.now,
                metrics=self._metrics)
            self._queues[key] = queue
        return queue

    def send(self, sim: Simulator, from_leg: str, to_leg: str, size: int,
             deliver: Callable[[], None]) -> Admission:
        """Queue one transfer; ``deliver`` fires after store-and-forward
        queueing + serialization + latency.

        A down link drops (counted and traced; callers needing
        reliability retry — see the store-and-forward machinery in
        :class:`RouterLeg`).  A full direction defers the transfer back
        to the caller, who decides whether to retry.
        """
        if self._down:
            self._messages_dropped.value += 1
            if self.tracer:
                self.tracer.emit(sim.now, "flow.drop",
                                 queue=f"wan[{from_leg}->{to_leg}]",
                                 reason="link-down", size=size)
            return Admission.DROPPED
        key = (from_leg, to_leg)
        admission = self._queue(sim, key).offer((size, deliver))
        if admission is Admission.ACCEPTED:
            self._pump(sim, key)
        return admission

    def _pump(self, sim: Simulator, key: Tuple[str, str]) -> None:
        """Serialize queued transfers one at a time per direction."""
        if key in self._transferring:
            return
        queue = self._queues[key]
        if not queue:
            return
        size, deliver = queue.take()
        self._transferring.add(key)
        sim.schedule_at(sim.now + self.transfer_time(size),
                        self._transfer_done, sim, key, deliver,
                        name="wan.transfer")

    def _transfer_done(self, sim: Simulator, key: Tuple[str, str],
                       deliver: Callable[[], None]) -> None:
        self._transferring.discard(key)
        if self._down:
            # the link died mid-transfer: this message is on the floor
            self._messages_dropped.value += 1
            if self.tracer:
                self.tracer.emit(sim.now, "flow.drop",
                                 queue=f"wan[{key[0]}->{key[1]}]",
                                 reason="link-down")
        else:
            sim.schedule(self.latency, deliver, name="wan.deliver")
        self._pump(sim, key)


class RouterLeg:
    """One router foot on one bus."""

    def __init__(self, router: "Router", bus: InformationBus,
                 host_address: str,
                 transform: Optional[Callable[[str], str]] = None,
                 log_traffic: bool = False):
        self.router = router
        self.bus = bus
        self.name = f"{bus.name}:{host_address}"
        self.transform = transform
        self.log_traffic = log_traffic
        self.tracer = bus.tracer
        self.host = bus.add_host(host_address)
        # all legs share the router's registry: a type learned from inline
        # metadata on one bus is known when re-publishing on another
        self.client: BusClient = bus.client(host_address, ROUTER_CLIENT_NAME,
                                            registry=router.registry)
        # what each advertising plane of this bus wants, keyed by its
        # session without the epoch (``e01``, ``e01~1``): each plane
        # adverts its own table, and a new incarnation's replaces the
        # old one's
        self._views: Dict[str, Set[str]] = {}
        # pattern -> how many views want it (the bus's demand)
        self._want_counts: Dict[str, int] = {}
        # forwarding subscriptions installed for remote legs' wants:
        # pattern -> (subscription, set of interested remote leg names)
        self._forwarding: Dict[str, Tuple[Subscription, Set[str]]] = {}
        # the same wants as a trie, pattern -> remote leg names: which
        # legs a subject goes to is one match, however many patterns
        self._wanted: SubjectTrie[str] = SubjectTrie()
        # the last delivery forwarded: a message two forwarding patterns
        # match reaches _forward once per pattern with the one info
        self._last_forwarded: Optional[MessageInfo] = None
        scope = router.metrics.scope(f"router.{router.name}.leg.{self.name}")
        self._metrics = scope
        self._messages_forwarded = scope.counter("forwarded")
        self._messages_republished = scope.counter("republished")
        #: forwards pushed back by a full WAN queue (not retried)
        self._forwards_deferred = scope.counter("deferred")
        #: forwards lost to a down link or a vanished target leg
        self._forwards_shed = scope.counter("shed")
        self._sf_timer = None
        #: shipment ids already republished here, kept durably
        #: (store-and-forward target side)
        self._sf_seen = GuaranteedConsumer(self.host, self._SF_SEEN)
        self.host.on_recover(self._on_host_recover)
        self.client.subscribe(ADVERT_SUBJECT, self._on_advert)
        self._poll()
        PeriodicTimer(bus.sim, bus.config.advert_interval, self._poll,
                      name="router.poll")

    @property
    def messages_forwarded(self) -> int:
        """The leg's ``forwarded`` counter, as an int."""
        return self._messages_forwarded.value

    # ------------------------------------------------------------------
    # learning the local subscription table
    # ------------------------------------------------------------------
    def _on_advert(self, subject: str, payload: Any,
                   info: MessageInfo) -> None:
        if not admits(payload, "sub_advert", self._metrics):
            return
        if payload["host"] == self.host.address:
            return   # our own forwarding subscriptions are not local wants
        view = self._views.setdefault(advert_key(info.session), set())
        action = payload["action"]
        patterns = set(payload.get("patterns", ()))
        if action == "snapshot":
            new, gone = patterns - view, view - patterns
        elif action == "add":
            new, gone = patterns - view, set()
        else:
            new, gone = set(), patterns & view
        if not (new or gone):
            return
        view |= new
        view -= gone
        counts = self._want_counts
        added, removed = [], []
        for pattern in new:
            counts[pattern] = counts.get(pattern, 0) + 1
            if counts[pattern] == 1:
                added.append(pattern)
        for pattern in gone:
            counts[pattern] -= 1
            if not counts[pattern]:
                del counts[pattern]
                removed.append(pattern)
        if added:
            self.router._local_wants_changed(self, "add", sorted(added))
        if removed:
            self.router._local_wants_changed(self, "remove", sorted(removed))

    def _poll(self) -> None:
        """Tell every host of this bus what this leg believes each of its
        planes wants (a digest per view): a plane it has wrong answers
        with its table."""
        if self.client.daemon.up:
            self.client.publish(SOLICIT_SUBJECT_PREFIX, {
                "host": self.host.address,
                "views": {key: advert_digest(view)
                          for key, view in self._views.items()}})

    # ------------------------------------------------------------------
    # forwarding subscriptions for remote legs
    # ------------------------------------------------------------------
    def remote_wants(self, leg_name: str, action: str,
                     patterns: List[str]) -> None:
        """A remote leg's bus gained/lost interest in ``patterns``."""
        for pattern in patterns:
            entry = self._forwarding.get(pattern)
            if action == "add":
                self._wanted.insert(pattern, leg_name)
                if entry is None:
                    # with store-and-forward on, the subscription is
                    # durable: the local daemon's guaranteed-delivery ack
                    # fires only after _forward has stably logged the
                    # message — ack implies it will cross the WAN
                    subscription = self.client.subscribe(
                        pattern, self._forward,
                        durable=self.router.store_and_forward)
                    self._forwarding[pattern] = (subscription, {leg_name})
                else:
                    entry[1].add(leg_name)
            elif entry is not None:
                self._wanted.remove(pattern, leg_name)
                entry[1].discard(leg_name)
                if not entry[1]:
                    self.client.unsubscribe(entry[0])
                    del self._forwarding[pattern]

    def _forward(self, subject: str, obj: Any, info: MessageInfo) -> None:
        if self.router.name in info.via:
            # this message already traversed THIS router (a sibling leg
            # re-published it, or it looped around a cyclic topology):
            # forwarding again would duplicate or loop.  Messages from
            # *other* routers are forwarded normally — that is what makes
            # multi-hop chains (A -router1- B -router2- C) work.
            return
        if info is self._last_forwarded:
            return   # already forwarded (matched another pattern too)
        self._last_forwarded = info
        targets = self._wanted.match(subject)
        if self.log_traffic:
            self.host.stable.append("router.log", {
                "time": self.bus.sim.now, "subject": subject,
                "size": info.size, "targets": sorted(targets)})
        if not targets:
            return
        if self.router.store_and_forward and info.qos is QoS.GUARANTEED:
            self._sf_enqueue(subject, obj, info, targets)
            return
        # marshal once per fan-out; every target leg gets the same bytes.
        # Self-contained on purpose: the payload crosses a WAN link out
        # of the publishing session's scope, so it must not reference
        # session-local type-plane ids.
        data = encode({
            "subject": subject, "via": list(info.via),
            "payload": encode(obj, self.router.registry, inline_types=True),
        })
        if self.tracer:
            self.tracer.emit(self.bus.sim.now, "router.forward", leg=self.name,
                             subject=subject, targets=sorted(targets),
                             size=len(data))
        for leg_name in targets:
            self._messages_forwarded.value += 1
            admission = self.router._send(self, leg_name, data,
                                          RouterLeg._wan_receive)
            if admission is Admission.DEFERRED:
                self._forwards_deferred.value += 1
            elif admission is Admission.DROPPED:
                self._forwards_shed.value += 1

    # ------------------------------------------------------------------
    # store-and-forward (guaranteed QoS across the WAN)
    # ------------------------------------------------------------------
    _SF_PENDING = "router.sf.pending"
    _SF_SEEN = "router.sf.seen"
    _SF_COUNTER = "router.sf.counter"

    def _sf_enqueue(self, subject: str, obj: Any, info: MessageInfo,
                    targets: FrozenSet[str]) -> None:
        """Stably log a guaranteed message, then ship with retry.

        Runs inside the daemon's durable-delivery callback, so the ack
        the original publisher receives means "logged at the router".
        """
        counter = self.host.stable.get(self._SF_COUNTER, 0) + 1
        self.host.stable.put(self._SF_COUNTER, counter)
        sf_id = f"{self.name}/{counter}"
        record = {
            "sf_id": sf_id, "subject": subject,
            # self-contained on purpose: the record outlives this router
            # process (replayed after restart), beyond any session scope
            "wire": encode(obj, self.router.registry, inline_types=True),
            "via": list(info.via), "pending": sorted(targets),
        }
        pending = self.host.stable.get(self._SF_PENDING, {})
        pending[sf_id] = record
        self.host.stable.put(self._SF_PENDING, pending)
        self._messages_forwarded.value += len(targets)
        self._sf_ship(record)
        self._sf_arm_timer()

    def _sf_ship(self, record: Dict[str, Any]) -> None:
        # the shipped bytes carry everything the target needs; the
        # "pending" target list is origin-side bookkeeping and stays home
        data = encode({"sf_id": record["sf_id"],
                       "subject": record["subject"],
                       "wire": record["wire"], "via": record["via"]})
        for leg_name in record["pending"]:
            # a full queue defers: the retry timer re-ships
            self.router._send(self, leg_name, data, RouterLeg._sf_receive)

    def _sf_receive(self, origin_name: str, data: bytes) -> None:
        """Target side: dedupe durably, republish as guaranteed, ack."""
        if not self.client.daemon.up:
            return   # origin keeps retrying until we are back
        record = decode(data, self.router.registry)
        if self._sf_seen.first_delivery(record["sf_id"]):
            obj = decode(record["wire"], self.router.registry)
            out_subject = (self.transform(record["subject"])
                           if self.transform else record["subject"])
            self._messages_republished.value += 1
            self.client.publish(
                out_subject, obj, qos=QoS.GUARANTEED,
                via=tuple(record["via"]) + (self.router.name,))
        self.router._send(self, origin_name,
                          encode({"sf_id": record["sf_id"],
                                  "target": self.name}),
                          RouterLeg._sf_ack_receive)

    def _sf_ack_receive(self, target_name: str, data: bytes) -> None:
        """Origin side: a target confirmed stable receipt."""
        sf_id = decode(data, self.router.registry)["sf_id"]
        pending = self.host.stable.get(self._SF_PENDING, {})
        record = pending.get(sf_id)
        if record is None:
            return
        if target_name in record["pending"]:
            record["pending"].remove(target_name)
        if record["pending"]:
            pending[sf_id] = record
        else:
            del pending[sf_id]
        self.host.stable.put(self._SF_PENDING, pending)

    def _sf_arm_timer(self) -> None:
        if self._sf_timer is None or self._sf_timer.stopped:
            self._sf_timer = PeriodicTimer(
                self.bus.sim, SF_RETRY_INTERVAL,
                self._sf_retry, name="router.sf.retry")

    def _sf_retry(self) -> None:
        if not self.client.daemon.up:
            return
        pending = self.host.stable.get(self._SF_PENDING, {})
        if not pending:
            self._sf_timer.stop()
            return
        for record in pending.values():
            self._sf_ship(record)

    def _on_host_recover(self) -> None:
        """Reload the seen log and resume shipping anything the crash
        left pending."""
        self._sf_seen.recover()
        if self.host.stable.get(self._SF_PENDING, {}):
            self._sf_arm_timer()

    def _wan_receive(self, _origin_name: str, data: bytes) -> None:
        """Final hop: decode the WAN bytes and republish on this bus."""
        msg = decode(data, self.router.registry)
        obj = decode(msg["payload"], self.router.registry)
        self.republish(msg["subject"], obj, tuple(msg["via"]))

    def _wants_receive(self, origin_name: str, data: bytes) -> None:
        msg = decode(data, self.router.registry)
        self.remote_wants(origin_name, msg["action"], msg["patterns"])

    def republish(self, subject: str, obj: Any,
                  via: tuple = ()) -> None:
        """Put a forwarded message onto this leg's bus.

        The re-publication is stamped with every router it has
        traversed, including this one — the loop/duplicate guard for
        arbitrary topologies.  Because this goes through an ordinary
        ``client.publish``, the egress daemon stamps a fresh envelope
        under its *own* session and re-encodes it against its own wire
        string table (:mod:`repro.core.wire`) — the extended ``via``
        tuple and any transformed subject get their own table ids, so
        forwarded frames never leak another bus's table state.
        """
        if not self.client.daemon.up:
            return
        out_subject = self.transform(subject) if self.transform else subject
        self._messages_republished.value += 1
        if self.tracer:
            self.tracer.emit(self.bus.sim.now, "router.republish",
                             leg=self.name, subject=out_subject)
        self.client.publish(out_subject, obj,
                            via=tuple(via) + (self.router.name,))


class Router:
    """An application-level bridge between two or more buses.

    All buses must share one :class:`~repro.sim.kernel.Simulator` (pass
    ``sim=`` when constructing them).  Legs are fully meshed over
    ``link``, and everything one leg tells another (forwarded messages,
    interest changes, store-and-forward records and their acks) crosses
    it through :meth:`_send`.
    """

    def __init__(self, name: str = "router",
                 link: Optional[WanLink] = None,
                 store_and_forward: bool = False):
        self.name = name
        self.link = link or WanLink()
        #: with store-and-forward, guaranteed-QoS messages are stably
        #: logged at the ingress leg (whose durable subscription acks the
        #: original publisher) and shipped with retries until the egress
        #: leg durably confirms — guaranteed delivery across the WAN,
        #: surviving link failures and router crashes (unconfirmed
        #: records are re-shipped every :data:`SF_RETRY_INTERVAL`
        #: seconds).  The paper's "logging messages to non-volatile
        #: storage" router function.
        self.store_and_forward = store_and_forward
        self.legs: Dict[str, RouterLeg] = {}
        self.registry = standard_registry()
        #: per-leg forwarding counters and the WAN link's instruments
        self.metrics = MetricsRegistry()
        self.link.attach_metrics(self.metrics.scope(f"router.{self.name}"))
        self._sim: Optional[Simulator] = None

    def add_leg(self, bus: InformationBus, host_address: Optional[str] = None,
                transform: Optional[Callable[[str], str]] = None,
                log_traffic: bool = False) -> RouterLeg:
        if self._sim is None:
            self._sim = bus.sim
        elif bus.sim is not self._sim:
            raise ValueError("all legs must share one Simulator")
        if not self.link.tracer:
            self.link.tracer = bus.tracer
        address = host_address or f"{self.name}-{bus.name}"
        leg = RouterLeg(self, bus, address, transform, log_traffic)
        self.legs[leg.name] = leg
        return leg

    # ------------------------------------------------------------------
    # inter-leg control and data planes (over the WAN link)
    # ------------------------------------------------------------------
    def _send(self, origin: RouterLeg, target_name: str, data: bytes,
              receive: Callable[[RouterLeg, str, bytes], None]) -> Admission:
        """Ship ``data`` from ``origin`` to the leg named ``target_name``;
        when it arrives, ``receive(target, origin.name, data)`` runs (a
        :class:`RouterLeg` receiver method).  Every transfer between
        legs takes this one path.  A vanished target leg drops it."""
        target = self.legs.get(target_name)
        if target is None:
            return Admission.DROPPED
        return self.link.send(self._sim, origin.name, target_name, len(data),
                              lambda: receive(target, origin.name, data))

    def _local_wants_changed(self, origin: RouterLeg, action: str,
                             patterns: List[str]) -> None:
        data = encode({"origin": origin.name, "action": action,
                       "patterns": patterns})
        for name in self.legs:
            if name != origin.name:
                self._send(origin, name, data, RouterLeg._wants_receive)
