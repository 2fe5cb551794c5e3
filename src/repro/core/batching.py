"""Outbound message batching.

The Appendix: "The Information Bus has a batch parameter that increases
throughput by delaying small messages, and gathering them together."
Figures 6-8 were measured with batching ON; Figure 5 (latency) with it
OFF, "to avoid intentionally delaying the publications".

The :class:`Batcher` is a pipeline stage over a shared
:class:`~repro.core.flow.BoundedQueue`; every release hands the
callback one group, which the daemon packs into one datagram.  One rule
decides when a group leaves, and the batch parameter only lengthens its
first wait:

* **hold.**  An envelope that finds nothing held waits for its plane's
  CPU send lane to fall idle — a frame queued behind the one being sent
  would wait that long anyway — and, with batching on, for
  ``batch_delay`` too: ``max(lane_free_at - now, batch_delay if enabled
  else 0)``.  With no wait left it goes straight out as its own
  datagram (batching off on an idle lane).  So does an envelope of half
  ``batch_bytes`` or more: no second one like it fits its datagram, so
  it queues on the lane as it always did.
* **cut.**  Envelopes arriving while a group is held join it.  A group
  is cut at ``max_messages`` and *before* an envelope that would take
  its bytes past ``batch_bytes``.  Its bytes are the envelopes'
  :attr:`~repro.core.message.Envelope.size` — each one's plain digest
  entry plus its standalone plain body, an upper bound on its share of
  a compressed frame once the session's table holds its strings (the
  frame writes ids, and drops a sender or publish time the envelope
  before it gave) — so a group never outgrows one datagram.  A full
  group does not wait out the delay: cut while the lane is idle, it
  leaves at once.
* **release.**  When the wait is over the oldest held group leaves as
  one datagram, and whatever is still held leaves at the next instant
  the lane is free.  A cut group waits its turn in the batcher, not on
  the lane, so a NACK repair or a heartbeat the daemon sends meanwhile
  waits for one datagram, not for a whole burst.

So batching off never delays an envelope on purpose, and a burst is
still a few full datagrams; batching on trades ``batch_delay`` of
latency for fewer frames when the lane would otherwise be idle (paced
publishing).  The trade-off of gathering is deliberate: the first
envelope of a held group pays the per-byte send cost of the followers
riding with it, and each follower saves at least one per-packet cost —
to send, and again at every receiver.  Without a lane (standalone use)
the lane is always idle: batching off is a pure pass-through.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from ..sim.kernel import Event, Simulator
from ..sim.node import Host
from .flow import BoundedQueue, POLICY_BLOCK
from .message import Envelope

__all__ = ["Batcher", "BatchConfig"]


@dataclass
class BatchConfig:
    """Batching tunables.  Either way envelopes queued behind a busy
    send lane are gathered; ``enabled`` adds the deliberate wait."""

    enabled: bool = False
    #: A held group is cut before an envelope that would take its bytes
    #: past this (chosen so a group fills, and never outgrows, one
    #: MTU-sized datagram).
    batch_bytes: int = 1400
    #: With batching on, the first envelope held while the lane is idle
    #: waits this long for followers (a full group leaves sooner).
    batch_delay: float = 0.002
    #: A held group is cut at this many envelopes regardless of size.
    max_messages: int = 64


class Batcher:
    """The gather stage of one daemon's outbound pipeline.

    ``queue`` is the stage buffer; the daemon hands in a queue wired to
    its tracer so gather depth shares the ``flow.*`` stats surface.  When
    none is given (unit tests, standalone use) the batcher makes its own.
    The queue never sheds: a group is cut at ``max_messages``, so depth
    stays at or below it by construction.

    ``host`` and ``lane`` name the CPU send lane the released datagrams
    leave by.  What the batcher holds is ``_ready`` (cut groups, oldest
    first) and then ``queue`` (the group still gathering); ``_timer`` is
    the next release, so ``_timer is None`` is its "nothing held" test.
    """

    def __init__(self, sim: Simulator, config: BatchConfig,
                 flush: Callable[[List[Envelope]], None],
                 queue: Optional[BoundedQueue] = None,
                 host: Optional[Host] = None, lane: int = 0):
        self.sim = sim
        self.config = config
        self._flush_cb = flush
        self.queue = queue if queue is not None else BoundedQueue(
            "batch.gather", capacity=max(config.max_messages, 1),
            policy=POLICY_BLOCK)
        self._free_at = (host.send_free_at if host is not None
                         else lambda lane: sim.now)
        self._lane = lane
        self._queued_bytes = 0
        self._timer: Optional[Event] = None
        self._ready: Deque[List[Envelope]] = deque()

    def add(self, envelope: Envelope) -> None:
        """Hold ``envelope`` for the lane (and the batch delay), or send
        it at once; a group it cuts may leave at once."""
        config = self.config
        if self._timer is None:
            now = self.sim.now
            wait = max(self._free_at(self._lane) - now,
                       config.batch_delay if config.enabled else 0.0)
            # an envelope no follower of its size could join goes out
            # as it is
            if wait <= 0 or 2 * len(envelope.payload) >= config.batch_bytes:
                self._flush_cb([envelope])
                return
            self._timer = self.sim.schedule(wait, self._release,
                                            name="batch.release")
        size = envelope.size      # measured (by encoding) only when held
        queue = self.queue
        full = bool(queue) and (
            len(queue) >= config.max_messages
            or self._queued_bytes + size > config.batch_bytes)
        if full:
            # cut the group before it passes one datagram
            self._ready.append(queue.drain())
            self._queued_bytes = 0
        queue.offer(envelope)
        self._queued_bytes += size
        if full and self._free_at(self._lane) <= self.sim.now:
            # a full group does not wait out the delay
            self._timer.cancel()
            self._release()

    def _release(self) -> None:
        """The oldest held group leaves as one datagram; what is still
        held waits for the next instant the lane is free."""
        self._timer = None
        if self._ready:
            batch = self._ready.popleft()
        else:
            batch = self.queue.drain()
            self._queued_bytes = 0
        self._flush_cb(batch)
        if self._timer is None and (self._ready or self.queue):
            self._timer = self.sim.schedule(
                self._free_at(self._lane) - self.sim.now, self._release,
                name="batch.release")

    def flush(self) -> None:
        """Emit every held group now, oldest first.  Safe to call when
        empty.

        Everything held is taken *before* the callback runs, so a
        re-entrant publish from inside a flush callback is held afresh
        rather than folded into a group being emitted.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        groups = list(self._ready)
        self._ready.clear()
        if self.queue:
            groups.append(self.queue.drain())
            self._queued_bytes = 0
        for batch in groups:
            self._flush_cb(batch)

    def shutdown(self) -> None:
        """Drop queued envelopes and cancel the timer (host crash)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.queue.clear()
        self._ready.clear()
        self._queued_bytes = 0

    @property
    def pending(self) -> int:
        """Envelopes held, in cut groups and the gathering one."""
        return len(self.queue) + sum(map(len, self._ready))

    @property
    def waiting(self) -> bool:
        """A cut group is waiting for the busy lane (the flow pump's cue
        to stop feeding)."""
        return bool(self._ready) and self._free_at(self._lane) > self.sim.now

    @property
    def first_held(self) -> Optional[Envelope]:
        """The oldest envelope the batcher holds (``None`` when it holds
        none): its seq and later ones have not reached the lane, so a
        heartbeat must not announce them yet."""
        if self._timer is None:
            return None
        return self._ready[0][0] if self._ready else self.queue.items()[0]
