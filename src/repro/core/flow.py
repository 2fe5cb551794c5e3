"""The shared flow-control layer: bounded queues, overflow policies, and
credit-style backpressure.

Every place a message can wait — the daemon's outbound publish queue, the
per-application delivery lanes, the sender's retention window, the WAN
link's store-and-forward queues — is a finite resource that counts
itself the same way:

* :class:`BoundedQueue` — a FIFO with a hard capacity and a configurable
  :data:`overflow policy <OVERFLOW_POLICIES>`:

  - ``block`` — a full queue admits nothing; the offer is *deferred* and
    the producer is told so (the producer retries, or a retransmission
    layer above does it for free).
  - ``drop-newest`` — a full queue rejects the incoming item.
  - ``drop-oldest`` — a full queue evicts its oldest sheddable item to
    make room for the incoming one (the delivery lanes' policy; the
    daemon's admission queue refuses it, because what it holds is
    already stamped with a seq, see :class:`FlowConfig`).

  One ``sheddable`` predicate says what a policy may drop: a full queue
  defers an incoming item the predicate refuses, under every policy, and
  drop-oldest evicts only a queued item it accepts (deferring when none
  is queued).  The bus's predicate refuses guaranteed-QoS traffic.

* :class:`BoundedBuffer` — the keyed rolling window (seq → envelope) of
  the sender's retention: a full buffer evicts its oldest entry.

* *Credit* — a queue that has pushed back (deferred or shed) counts one
  credit in ``flow.<name>.credits`` and emits a ``flow.credit`` trace
  event once it drains to half its capacity.  Pressure reaches the
  producer as admission results (a ``DEFERRED`` publish is the
  producer's to retry); relief is observable as credits.

Every queue holds nine ``flow.<name>.*`` instruments — offers,
acceptances, deferrals, sheds (split by which end was dropped), drains,
credits, depth and high watermark — in its owner's metrics registry, or
a private one when none is given; ``snapshot()`` reads them as one dict.
A :class:`BoundedQueue` given a tracer emits ``flow.drop`` /
``flow.defer`` / ``flow.credit`` trace events so overload is observable,
not silent.
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    TYPE_CHECKING)

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import Tracer
    from .message import Envelope

__all__ = ["Admission", "BoundedBuffer", "BoundedQueue", "FlowConfig",
           "OVERFLOW_POLICIES", "POLICY_BLOCK", "POLICY_DROP_NEWEST",
           "POLICY_DROP_OLDEST", "PublishReceipt"]


class Admission(enum.Enum):
    """The outcome of offering an item to a bounded queue."""

    ACCEPTED = "accepted"   # the item is in the queue (or delivered)
    DEFERRED = "deferred"   # no room and nothing shed; try again later
    DROPPED = "dropped"     # the item was shed per the overflow policy

    def __bool__(self) -> bool:
        """Truthy iff the item got in — ``if queue.offer(x):`` reads well."""
        return self is Admission.ACCEPTED


POLICY_BLOCK = "block"
POLICY_DROP_NEWEST = "drop-newest"
POLICY_DROP_OLDEST = "drop-oldest"

#: The three overflow policies every bounded queue understands.
OVERFLOW_POLICIES = (POLICY_BLOCK, POLICY_DROP_NEWEST, POLICY_DROP_OLDEST)


def _check_policy(policy: str) -> str:
    if policy not in OVERFLOW_POLICIES:
        raise ValueError(f"unknown overflow policy {policy!r}; "
                         f"expected one of {OVERFLOW_POLICIES}")
    return policy


class _Bounded:
    """A named store with a hard capacity and its own nine
    ``flow.<name>.*`` instruments, in ``metrics`` or, when none is
    given, a private registry (which behaves identically)."""

    _items: Any

    def __init__(self, name: str, capacity: int, policy: str,
                 metrics: Optional[MetricsRegistry]):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 (got {capacity})")
        self.name = name
        self.capacity = capacity
        self.policy = _check_policy(policy)
        if metrics is None:
            metrics = MetricsRegistry()
        scope = metrics.scope(f"flow.{name}")
        self.depth = scope.gauge("depth")
        self.high_watermark = scope.gauge("high_watermark")
        self.offered = scope.counter("offered")
        self.accepted = scope.counter("accepted")
        self.deferred = scope.counter("deferred")
        self.dropped_newest = scope.counter("dropped_newest")
        self.dropped_oldest = scope.counter("dropped_oldest")
        self.drained = scope.counter("drained")
        self.credits = scope.counter("credits")

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def snapshot(self) -> Dict[str, Any]:
        """Every counter as plain ints; ``dropped`` sums both ends."""
        return {
            "name": self.name, "capacity": self.capacity,
            "policy": self.policy, "depth": self.depth.value,
            "high_watermark": self.high_watermark.value,
            "offered": self.offered.value, "accepted": self.accepted.value,
            "deferred": self.deferred.value,
            "dropped_newest": self.dropped_newest.value,
            "dropped_oldest": self.dropped_oldest.value,
            "dropped": self.dropped_newest.value + self.dropped_oldest.value,
            "drained": self.drained.value, "credits": self.credits.value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name} {len(self._items)}/"
                f"{self.capacity} {self.policy}>")


class BoundedQueue(_Bounded):
    """A FIFO with a hard capacity, an overflow policy, and credit.

    ``sheddable`` (every item, when None) says which items the policy
    may drop — e.g. guaranteed-QoS envelopes are never shed.  A queue
    that pushed back counts a credit once it drains to half its
    capacity (:attr:`resume_at`).
    """

    def __init__(self, name: str, capacity: int,
                 policy: str = POLICY_BLOCK, *,
                 sheddable: Optional[Callable[[Any], bool]] = None,
                 tracer: Optional["Tracer"] = None,
                 now: Optional[Callable[[], float]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(name, capacity, policy, metrics)
        #: queue depth at which a pressured queue counts a credit
        self.resume_at = capacity // 2
        self._sheddable = sheddable
        self._items: Deque[Any] = deque()
        self._tracer = tracer
        self._now = now or (lambda: 0.0)
        self._pressured = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def offer(self, item: Any) -> Admission:
        """Try to enqueue ``item``; the admission says what happened."""
        self.offered.value += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            self._note_depth()
            self.accepted.value += 1
            return Admission.ACCEPTED
        self._pressured = True
        sheddable = self._sheddable
        if self.policy != POLICY_BLOCK and (sheddable is None
                                            or sheddable(item)):
            if self.policy == POLICY_DROP_NEWEST:
                self.dropped_newest.value += 1
                self._trace("flow.drop", end="newest",
                            depth=len(self._items))
                return Admission.DROPPED
            # drop-oldest: evict the oldest sheddable item to make room
            if self._evict_oldest():
                self.dropped_oldest.value += 1
                self._trace("flow.drop", end="oldest",
                            depth=len(self._items))
                self._items.append(item)
                self._note_depth()
                self.accepted.value += 1
                return Admission.ACCEPTED
        self.deferred.value += 1
        self._trace("flow.defer", depth=len(self._items))
        return Admission.DEFERRED

    def pass_through(self) -> None:
        """Account an item that bypassed the deque entirely (the empty-
        queue fast path delivers synchronously but still counts)."""
        self.offered.value += 1
        self.accepted.value += 1
        self.drained.value += 1
        if self.high_watermark.value == 0:
            self.high_watermark.value = 1

    def _evict_oldest(self) -> bool:
        """Remove the oldest sheddable item of a full queue; False when
        nothing queued may be shed."""
        if self._sheddable is None:
            self._items.popleft()
            return True
        for index, item in enumerate(self._items):
            if self._sheddable(item):
                del self._items[index]
                return True
        return False

    def _note_depth(self) -> None:
        depth = len(self._items)
        self.depth.value = depth
        if depth > self.high_watermark.value:
            self.high_watermark.value = depth

    def _trace(self, category: str, **fields: Any) -> None:
        if self._tracer:
            self._tracer.emit(self._now(), category, queue=self.name,
                              **fields)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def take(self) -> Any:
        """Dequeue the head; counts a credit when pressure is relieved."""
        item = self._items.popleft()
        self.drained.value += 1
        self.depth.value = len(self._items)
        self._maybe_credit()
        return item

    def __iter__(self) -> Iterator[Any]:
        """The queued items, head first (no copy: do not mutate the
        queue while iterating)."""
        return iter(self._items)

    def drain(self, max_items: Optional[int] = None) -> List[Any]:
        """Dequeue up to ``max_items`` (all, when None) as a list."""
        limit = len(self._items) if max_items is None else max_items
        out = []
        while self._items and len(out) < limit:
            out.append(self._items.popleft())
        self.drained.value += len(out)
        self.depth.value = len(self._items)
        if out:
            self._maybe_credit()
        return out

    def clear(self) -> int:
        """Discard everything queued (crash/shutdown); returns the count.

        Deliberately counts no credit: the owner is going away.
        """
        count = len(self._items)
        self._items.clear()
        self.depth.value = 0
        self._pressured = False
        return count

    def _maybe_credit(self) -> None:
        if self._pressured and len(self._items) <= self.resume_at:
            self._pressured = False
            self.credits.value += 1
            self._trace("flow.credit", depth=len(self._items))


class BoundedBuffer(_Bounded):
    """A keyed, insertion-ordered rolling window (seq → item): the
    sender's retention.  A full buffer evicts its first-inserted entry
    to admit the new one, counted as ``dropped_oldest``."""

    def __init__(self, name: str, capacity: int, *,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(name, capacity, POLICY_DROP_OLDEST, metrics)
        self._items: "OrderedDict[Any, Any]" = OrderedDict()

    def insert(self, key: Any, item: Any) -> None:
        """Insert ``key → item``, evicting the oldest entry when full."""
        self.offered.value += 1
        if key not in self._items and len(self._items) >= self.capacity:
            self._items.popitem(last=False)
            self.dropped_oldest.value += 1
        self._items[key] = item
        depth = len(self._items)
        self.depth.value = depth
        if depth > self.high_watermark.value:
            self.high_watermark.value = depth
        self.accepted.value += 1

    def get(self, key: Any, default: Any = None) -> Any:
        return self._items.get(key, default)

    def pop(self, key: Any, default: Any = None) -> Any:
        if key in self._items:
            self.drained.value += 1
            item = self._items.pop(key)
            self.depth.value = len(self._items)
            return item
        return default


@dataclass(frozen=True)
class FlowConfig:
    """Flow-control tunables for one daemon (see ``BusConfig.flow``);
    frozen, so a policy is checked once, when the config is built.

    The admission queue is the daemon's one outbound queue: it holds
    every published envelope that has not yet reached the host's CPU
    send lane, and the batcher takes them out one datagram at a time,
    each when the lane is free (:mod:`repro.core.batching`).  So an
    overload backs up here, never on the lane.  The defaults never
    shed: up to ``publish_queue`` envelopes wait, and past that a
    publish is deferred.  Delivery lanes are synchronous until an
    application declares a ``service_time``.  Overload experiments
    shrink the queue and choose ``drop-newest``.
    """

    #: Envelopes the daemon's outbound admission queue holds: admitted
    #: and not yet on the send lane.
    publish_queue: int = 4096
    #: Overflow policy of the admission queue, ``block`` or
    #: ``drop-newest``: a full queue defers (a DEFERRED publish receipt)
    #: or sheds the incoming reliable-QoS envelope, before it has a seq
    #: (guaranteed is always deferred to the stable ledger's
    #: retransmission, never shed).  ``drop-oldest`` is refused: what
    #: the queue holds is stamped, and evicting it would open a seq gap
    #: that no NACK can repair.
    publish_policy: str = POLICY_BLOCK
    #: Envelopes each application's delivery lane holds.  A full lane
    #: sheds its oldest reliable envelope: a slow application loses its
    #: own backlog, and its co-hosted neighbours are unaffected.
    delivery_queue: int = 4096

    def __post_init__(self) -> None:
        if _check_policy(self.publish_policy) == POLICY_DROP_OLDEST:
            raise ValueError(
                "the admission queue cannot drop oldest: what it holds is "
                "stamped with a seq, and an evicted one would leave a gap "
                "no NACK can repair; use 'block' or 'drop-newest'")


@dataclass
class PublishReceipt:
    """What a publisher gets back: did the bus take the message?

    ``accepted`` publishes are on their way.  ``deferred`` means the
    outbound queue pushed back — guaranteed-QoS messages are already in
    the stable ledger and will be retransmitted automatically; a reliable
    publisher retries it itself (relief shows as the outbound queue's
    ``flow.<q>.credits`` counter).  ``dropped`` means the admission
    policy shed the message.
    """

    admission: Admission
    size: int
    envelope: Optional["Envelope"] = field(default=None, repr=False)

    @property
    def accepted(self) -> bool:
        return self.admission is Admission.ACCEPTED

    def __bool__(self) -> bool:
        return self.accepted
