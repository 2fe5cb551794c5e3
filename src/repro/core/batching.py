"""Outbound message batching.

The Appendix: "The Information Bus has a batch parameter that increases
throughput by delaying small messages, and gathering them together."
Figures 6-8 were measured with batching ON; Figure 5 (latency) with it
OFF, "to avoid intentionally delaying the publications".

The :class:`Batcher` is a pipeline stage over a shared
:class:`~repro.core.flow.BoundedQueue`; every flush hands the callback
one batch, which the daemon packs into one datagram.  Two rules decide
when a batch leaves:

* **enabled** (the paper's batch parameter): envelopes accumulate until
  the payload reaches ``batch_bytes``, the count reaches
  ``max_messages``, or ``batch_delay`` elapses since the first queued
  envelope — a deliberate delay that buys throughput;
* **disabled** (the default): nothing is ever delayed on purpose.  An
  envelope that finds its plane's CPU send lane idle, with nothing
  held, goes straight out as its own datagram.  One that finds the lane
  still busy would only have queued behind that frame anyway, so it is
  held instead, and the oldest held group leaves as one datagram at
  each instant the lane frees.  A group is cut at ``max_messages`` and
  *before* an envelope that would take its bytes past ``batch_bytes``.
  Its bytes are the envelopes' :attr:`~repro.core.message.Envelope.size`
  — each one's plain digest entry plus its standalone plain body, an
  upper bound on its share of a compressed frame once the session's
  table holds its strings (the frame writes ids, and drops a sender or
  publish time the envelope before it gave) — so a group never
  outgrows one datagram.  A cut group waits its turn in
  the batcher, not on the lane, so a NACK repair or a heartbeat the
  daemon sends meanwhile waits for one datagram, not for a whole
  burst.  An envelope of half ``batch_bytes`` or more is never held
  while nothing else is: no second one like it fits its datagram, so
  it queues on the lane as it always did.  The trade-off is
  deliberate: the first envelope of a held group pays the per-byte
  send cost of the followers riding with it, and each follower saves
  at least one per-packet cost — to send, and again at every
  receiver.  Without a lane (standalone use) a disabled batcher is a
  pure pass-through.
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
    """Batching tunables.  ``enabled=False`` never delays an envelope;
    it only gathers those queued behind a busy send lane."""

    enabled: bool = False
    #: Flush once the queued payload bytes reach this threshold (chosen to
    #: fill one MTU-sized datagram); a disabled batcher cuts a held group
    #: before it would pass it.
    batch_bytes: int = 1400
    #: Flush this long after the first envelope was queued, even if small
    #: (enabled only).
    batch_delay: float = 0.002
    #: Never hold more than this many envelopes regardless of size.
    max_messages: int = 64


class Batcher:
    """The gather stage of one daemon's outbound pipeline.

    ``queue`` is the stage buffer; the daemon hands in a queue wired to
    its tracer so gather depth shares the ``flow.*`` stats surface.  When
    none is given (unit tests, standalone use) the batcher makes its own.
    The queue never sheds: :meth:`add` flushes at the thresholds, so
    depth stays below ``max_messages`` by construction.

    ``host`` and ``lane`` name the CPU send lane the flushed datagrams
    leave by; a disabled batcher holds envelopes only while that lane is
    busy.  What it holds is ``_ready`` (cut groups, oldest first) and
    then ``queue`` (the group still gathering); ``_timer`` is the
    release at the next lane-free instant, so ``_timer is None`` is its
    "nothing held" test.
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
        self._free_at = host.send_free_at if host is not None else None
        self._lane = lane
        self._queued_bytes = 0
        self._timer: Optional[Event] = None
        self._ready: Deque[List[Envelope]] = deque()
        self.batches_flushed = 0
        self.messages_batched = 0

    def add(self, envelope: Envelope) -> None:
        """Queue ``envelope``; may flush synchronously on threshold."""
        config = self.config
        if config.enabled:
            self.queue.offer(envelope)
            self._queued_bytes += envelope.size
            if (len(self.queue) >= config.max_messages
                    or self._queued_bytes >= config.batch_bytes):
                self.flush()
            elif self._timer is None:
                self._timer = self.sim.schedule(config.batch_delay,
                                                self.flush,
                                                name="batch.delay")
            return
        if self._timer is None:
            now = self.sim.now
            idle_at = (self._free_at(self._lane)
                       if self._free_at is not None else now)
            # an envelope no follower of its size could join goes out
            # as it is
            if (idle_at <= now
                    or 2 * len(envelope.payload) >= config.batch_bytes):
                self.batches_flushed += 1
                self.messages_batched += 1
                self._flush_cb([envelope])
                return
            # the lane is still sending: gather until it frees
            self._timer = self.sim.schedule(idle_at - now, self._release,
                                            name="batch.lane")
        size = envelope.size      # measured (by encoding) only when held
        queue = self.queue
        if queue and (len(queue) >= config.max_messages
                      or self._queued_bytes + size > config.batch_bytes):
            # cut the group before it passes one datagram; it waits
            # for the lane behind the groups cut before it
            self._ready.append(queue.drain())
            self._queued_bytes = 0
        queue.offer(envelope)
        self._queued_bytes += size

    def _release(self) -> None:
        """The lane has freed: the oldest held group leaves as one
        datagram, and what is still held waits for the next instant."""
        self._timer = None
        if self._ready:
            batch = self._ready.popleft()
        else:
            batch = self.queue.drain()
            self._queued_bytes = 0
        self._emit(batch)
        if self._ready or self.queue:
            self._timer = self.sim.schedule(
                self._free_at(self._lane) - self.sim.now, self._release,
                name="batch.lane")

    def _emit(self, batch: List[Envelope]) -> None:
        self.batches_flushed += 1
        self.messages_batched += len(batch)
        self._flush_cb(batch)

    def flush(self) -> None:
        """Emit everything queued, oldest group first.  Safe to call
        when empty.

        The queue is drained *before* the callback runs, so a re-entrant
        publish from inside a flush callback lands in the next batch
        rather than the one being emitted.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        while self._ready:
            self._emit(self._ready.popleft())
        if not self.queue:
            return
        batch = self.queue.drain(self.config.max_messages)
        # running counter: subtract what left rather than re-summing the
        # remaining queue (that re-walk was O(backlog) per flush).  The
        # queue never sheds, so drains and :meth:`shutdown` are the only
        # exits and the counter cannot drift.
        for envelope in batch:
            self._queued_bytes -= envelope.size
        self._emit(batch)
        if self.queue and self._timer is None:
            # a re-entrant add (or an oversized drain remainder) left
            # envelopes behind; they get their own delay window
            self._timer = self.sim.schedule(self.config.batch_delay,
                                            self.flush, name="batch.delay")

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
        """A cut group is waiting for the lane (the flow pump's cue to
        stop feeding)."""
        return bool(self._ready)

    @property
    def first_held(self) -> Optional[Envelope]:
        """The oldest envelope a disabled batcher holds for the lane
        (``None`` when it holds none, and always when enabled)."""
        if self._timer is None or self.config.enabled:
            return None
        return self._ready[0][0] if self._ready else self.queue.items()[0]
