"""The shared flow-control layer: bounded queues, overflow policies, and
credit-style backpressure.

Every place a message can wait — the daemon's outbound publish queue, the
per-application delivery lanes, the sender's retention window, the WAN
link's store-and-forward queues — is a finite resource with one stats
surface:

* :class:`BoundedQueue` — a FIFO with a hard capacity and a configurable
  :data:`overflow policy <OVERFLOW_POLICIES>`:

  - ``block`` — a full queue admits nothing; the offer is *deferred* and
    the producer is told so (the producer retries, or a retransmission
    layer above does it for free).
  - ``drop-newest`` — a full queue rejects the incoming item.
  - ``drop-oldest`` — a full queue evicts its oldest (evictable) item to
    make room for the incoming one.

* :class:`BoundedBuffer` — the keyed rolling window (seq → envelope) of
  the sender's retention: a full buffer evicts its oldest entry.

* *Credit* — a queue that has pushed back (deferred or shed) fires its
  credit callbacks once it drains to half its capacity; producers
  register with :meth:`BoundedQueue.on_credit` and resume publishing.
  This is the upstream half of backpressure: pressure propagates
  producer-ward as admission results, relief propagates as credits.

Every queue counts offers, acceptances, deferrals, sheds (split by which
end was dropped), drains, and its high watermark, and a
:class:`BoundedQueue` given a tracer emits ``flow.drop`` / ``flow.defer``
/ ``flow.credit`` trace events so overload is observable, not silent.
"""

from __future__ import annotations

import enum
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Tuple,
                    TYPE_CHECKING)

from .metrics import MetricsRegistry, MetricsScope

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import Tracer
    from .message import Envelope

__all__ = ["Admission", "BoundedBuffer", "BoundedQueue", "FlowConfig",
           "FlowStats", "OVERFLOW_POLICIES", "POLICY_BLOCK",
           "POLICY_DROP_NEWEST", "POLICY_DROP_OLDEST", "PublishReceipt"]


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


class FlowStats:
    """Counters for one bounded queue (benches, tests, operators).

    Since the telemetry-plane refactor this is a thin *view* over
    :mod:`repro.core.metrics` instruments named ``flow.<queue>.<field>``:
    the int-returning properties and :meth:`snapshot` keep the historical
    read surface, while the underlying counters live in whichever
    :class:`~repro.core.metrics.MetricsRegistry` the queue's owner passed
    in (the owning daemon's, for bus queues) — or in a detached private
    registry for standalone queues, which behaves identically.
    """

    __slots__ = ("name", "capacity", "policy", "_depth", "_high_watermark",
                 "_offered", "_accepted", "_deferred", "_dropped_newest",
                 "_dropped_oldest", "_drained", "_credits")

    def __init__(self, name: str, capacity: int, policy: str,
                 metrics: Optional["MetricsRegistry"] = None):
        self.name = name
        self.capacity = capacity
        self.policy = policy
        if metrics is None:
            metrics = MetricsRegistry()
        scope: MetricsScope = metrics.scope(f"flow.{name}")
        self._depth = scope.gauge("depth")
        self._high_watermark = scope.gauge("high_watermark")
        self._offered = scope.counter("offered")
        self._accepted = scope.counter("accepted")
        self._deferred = scope.counter("deferred")
        self._dropped_newest = scope.counter("dropped_newest")
        self._dropped_oldest = scope.counter("dropped_oldest")
        self._drained = scope.counter("drained")
        self._credits = scope.counter("credits")

    # int-returning views (the historical dataclass fields)
    @property
    def depth(self) -> int:
        return self._depth.value

    @property
    def high_watermark(self) -> int:
        return self._high_watermark.value

    @property
    def offered(self) -> int:
        return self._offered.value

    @property
    def accepted(self) -> int:
        return self._accepted.value

    @property
    def deferred(self) -> int:
        return self._deferred.value

    @property
    def dropped_newest(self) -> int:
        return self._dropped_newest.value

    @property
    def dropped_oldest(self) -> int:
        return self._dropped_oldest.value

    @property
    def drained(self) -> int:
        return self._drained.value

    @property
    def credits(self) -> int:
        return self._credits.value

    @property
    def dropped(self) -> int:
        """Total sheds, whichever end they came from."""
        return self._dropped_newest.value + self._dropped_oldest.value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name, "capacity": self.capacity,
            "policy": self.policy, "depth": self.depth,
            "high_watermark": self.high_watermark, "offered": self.offered,
            "accepted": self.accepted, "deferred": self.deferred,
            "dropped_newest": self.dropped_newest,
            "dropped_oldest": self.dropped_oldest,
            "dropped": self.dropped, "drained": self.drained,
            "credits": self.credits,
        }


class BoundedQueue:
    """A FIFO with a hard capacity, an overflow policy, and credit.

    ``evict_filter`` (drop-oldest only) restricts which queued items may
    be evicted — e.g. guaranteed-QoS envelopes are never shed.  Evicted
    items are handed to ``on_evict`` so their owner can release
    per-item state (retention entries, ledger bookkeeping).  A queue
    that pushed back fires its credits once it drains to half its
    capacity (:attr:`resume_at`).
    """

    def __init__(self, name: str, capacity: int,
                 policy: str = POLICY_BLOCK, *,
                 evict_filter: Optional[Callable[[Any], bool]] = None,
                 on_evict: Optional[Callable[[Any], None]] = None,
                 tracer: Optional["Tracer"] = None,
                 now: Optional[Callable[[], float]] = None,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 (got {capacity})")
        self.name = name
        self.capacity = capacity
        self.policy = _check_policy(policy)
        #: queue depth at which a pressured queue fires its credits
        self.resume_at = capacity // 2
        self._evict_filter = evict_filter
        self._on_evict = on_evict
        self._items: Deque[Any] = deque()
        self._tracer = tracer
        self._now = now or (lambda: 0.0)
        self._pressured = False
        self._credit_cbs: List[Callable[[], None]] = []
        self.stats = FlowStats(name, capacity, self.policy, metrics)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def pressured(self) -> bool:
        """True between a defer/shed and the credit that relieves it."""
        return self._pressured

    def on_credit(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` whenever a pressured queue drains enough."""
        self._credit_cbs.append(callback)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def offer(self, item: Any, *, no_shed: bool = False) -> Admission:
        """Try to enqueue ``item``; the admission says what happened.

        ``no_shed=True`` forces ``block`` semantics for this offer
        regardless of policy — used for guaranteed-QoS traffic, which is
        deferred to its retransmission layer rather than shed.
        """
        self.stats._offered.value += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            self._note_depth()
            self.stats._accepted.value += 1
            return Admission.ACCEPTED
        self._pressured = True
        if no_shed or self.policy == POLICY_BLOCK:
            self.stats._deferred.value += 1
            self._trace("flow.defer", depth=len(self._items))
            return Admission.DEFERRED
        if self.policy == POLICY_DROP_NEWEST:
            self.stats._dropped_newest.value += 1
            self._trace("flow.drop", end="newest", depth=len(self._items))
            return Admission.DROPPED
        # drop-oldest: evict the oldest evictable item to make room
        victim = self._evict_oldest()
        if victim is None:
            # nothing evictable (e.g. all queued traffic is guaranteed)
            self.stats._deferred.value += 1
            self._trace("flow.defer", depth=len(self._items))
            return Admission.DEFERRED
        self.stats._dropped_oldest.value += 1
        self._trace("flow.drop", end="oldest", depth=len(self._items))
        if self._on_evict is not None:
            self._on_evict(victim)
        self._items.append(item)
        self._note_depth()
        self.stats._accepted.value += 1
        return Admission.ACCEPTED

    def pass_through(self) -> None:
        """Account an item that bypassed the deque entirely (the empty-
        queue fast path delivers synchronously but still counts)."""
        self.stats._offered.value += 1
        self.stats._accepted.value += 1
        self.stats._drained.value += 1
        if self.stats._high_watermark.value == 0:
            self.stats._high_watermark.value = 1 if self.capacity >= 1 else 0

    def _evict_oldest(self) -> Optional[Any]:
        if self._evict_filter is None:
            if not self._items:
                return None
            return self._items.popleft()
        for index, item in enumerate(self._items):
            if self._evict_filter(item):
                del self._items[index]
                return item
        return None

    def _note_depth(self) -> None:
        depth = len(self._items)
        self.stats._depth.value = depth
        if depth > self.stats._high_watermark.value:
            self.stats._high_watermark.value = depth

    def _trace(self, category: str, **fields: Any) -> None:
        if self._tracer:
            self._tracer.emit(self._now(), category, queue=self.name,
                              **fields)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def take(self) -> Any:
        """Dequeue the head; fires credits when pressure is relieved."""
        item = self._items.popleft()
        self.stats._drained.value += 1
        self.stats._depth.value = len(self._items)
        self._maybe_credit()
        return item

    def items(self) -> Tuple[Any, ...]:
        """The queued items, head first (read-only snapshot)."""
        return tuple(self._items)

    def drain(self, max_items: Optional[int] = None) -> List[Any]:
        """Dequeue up to ``max_items`` (all, when None) as a list."""
        limit = len(self._items) if max_items is None else max_items
        out = []
        while self._items and len(out) < limit:
            out.append(self._items.popleft())
        self.stats._drained.value += len(out)
        self.stats._depth.value = len(self._items)
        if out:
            self._maybe_credit()
        return out

    def clear(self) -> int:
        """Discard everything queued (crash/shutdown); returns the count.

        Deliberately does *not* fire credits: the owner is going away.
        """
        count = len(self._items)
        self._items.clear()
        self.stats._depth.value = 0
        self._pressured = False
        return count

    def _maybe_credit(self) -> None:
        if self._pressured and len(self._items) <= self.resume_at:
            self._pressured = False
            self.stats._credits.value += 1
            self._trace("flow.credit", depth=len(self._items))
            for callback in list(self._credit_cbs):
                callback()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<BoundedQueue {self.name} {len(self._items)}/"
                f"{self.capacity} {self.policy}>")


class BoundedBuffer:
    """A keyed, insertion-ordered rolling window (seq → item): the
    sender's retention.  A full buffer evicts its first-inserted entry
    to admit the new one, counted as ``dropped_oldest``."""

    def __init__(self, name: str, capacity: int, *,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 (got {capacity})")
        self.name = name
        self.capacity = capacity
        self._items: "OrderedDict[Any, Any]" = OrderedDict()
        self.stats = FlowStats(name, capacity, POLICY_DROP_OLDEST, metrics)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def insert(self, key: Any, item: Any) -> None:
        """Insert ``key → item``, evicting the oldest entry when full."""
        stats = self.stats
        stats._offered.value += 1
        if key not in self._items and len(self._items) >= self.capacity:
            self._items.popitem(last=False)
            stats._dropped_oldest.value += 1
        self._items[key] = item
        depth = len(self._items)
        stats._depth.value = depth
        if depth > stats._high_watermark.value:
            stats._high_watermark.value = depth
        stats._accepted.value += 1

    def get(self, key: Any, default: Any = None) -> Any:
        return self._items.get(key, default)

    def pop(self, key: Any, default: Any = None) -> Any:
        if key in self._items:
            self.stats._drained.value += 1
            item = self._items.pop(key)
            self.stats._depth.value = len(self._items)
            return item
        return default

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<BoundedBuffer {self.name} {len(self._items)}/"
                f"{self.capacity}>")


@dataclass
class FlowConfig:
    """Flow-control tunables for one daemon (see ``BusConfig.flow``).

    The defaults are deliberately non-shedding: a generous admission
    queue, no wire pacing, and synchronous delivery lanes reproduce the
    pre-flow-control behaviour bit for bit (the Appendix figures are
    regenerated under these defaults).  Overload experiments turn the
    knobs.
    """

    #: Envelopes the daemon's outbound admission queue holds.
    publish_queue: int = 4096
    #: Overflow policy of the admission queue.  ``block`` surfaces
    #: pressure as a DEFERRED publish receipt; the drop policies shed
    #: reliable-QoS envelopes (guaranteed is always deferred to the
    #: stable ledger's retransmission, never shed).
    publish_policy: str = POLICY_BLOCK
    #: How far ahead of simulated time (seconds) the host's send pipeline
    #: may run before the outbound pump pauses.  ``None`` disables
    #: pacing: publishes reach the batcher synchronously, exactly as
    #: before this layer existed.
    max_send_backlog: Optional[float] = None
    #: Envelopes each application's delivery lane holds.  A full lane
    #: sheds its oldest reliable envelope: a slow application loses its
    #: own backlog, and its co-hosted neighbours are unaffected.
    delivery_queue: int = 4096

    def __post_init__(self) -> None:
        _check_policy(self.publish_policy)


@dataclass
class PublishReceipt:
    """What a publisher gets back: did the bus take the message?

    ``accepted`` publishes are on their way.  ``deferred`` means the
    outbound queue pushed back — guaranteed-QoS messages are already in
    the stable ledger and will be retransmitted automatically; reliable
    publishers should wait for credit (:meth:`BusClient.on_flow_credit`)
    and retry.  ``dropped`` means the admission policy shed the message.
    """

    admission: Admission
    size: int
    envelope: Optional["Envelope"] = field(default=None, repr=False)

    @property
    def accepted(self) -> bool:
        return self.admission is Admission.ACCEPTED

    def __bool__(self) -> bool:
        return self.accepted
