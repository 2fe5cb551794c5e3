"""Outbound message batching.

The Appendix: "The Information Bus has a batch parameter that increases
throughput by delaying small messages, and gathering them together."
Figures 6-8 were measured with batching ON; Figure 5 (latency) with it
OFF, "to avoid intentionally delaying the publications".

The :class:`Batcher` releases a daemon's one outbound queue — the
admission :class:`~repro.core.flow.BoundedQueue`, which holds every
envelope admitted and not yet handed to the plane's CPU send lane —
one group at a time; the callback packs each group into one datagram.
One rule decides when a group leaves, and the batch parameter only
lengthens its first wait:

* **hold.**  An envelope that finds nothing held waits for the send
  lane to fall idle — a frame queued behind the one being sent would
  wait that long anyway — and, with batching on, for ``batch_delay``
  too: ``max(lane_free_at - now, batch_delay if enabled else 0)``.  With
  no wait left it goes straight out as its own datagram (batching off
  on an idle lane).  An envelope of half ``batch_bytes`` or more never
  waits ``batch_delay`` (no second one like it fits its datagram), but
  it waits for a busy lane like any other.
* **release.**  When the wait is over the head group leaves as one
  datagram, and whatever is still queued leaves at the next instant the
  lane is free.  So no datagram of the batcher's goes onto the lane
  while an earlier one is still on it: a NACK repair or a heartbeat the
  daemon sends meanwhile waits for one datagram, not for a whole burst,
  and an overload backs up in the admission queue, where its policy
  decides what is deferred or shed.
* **cut.**  A group is cut when it is released, on bytes alone:
  *before* the envelope that would take its bytes past
  ``batch_bytes``.  Its bytes are the envelopes'
  :attr:`~repro.core.message.Envelope.size` — each one's digest entry
  and standalone body with its header strings counted inline, an upper
  bound on its share of a frame once the session's table holds its
  strings (the frame writes ids, and drops a sender or publish time the
  envelope before it gave).  So a frame outgrows its group's total in
  one case only, and by at most two ids (a definition's and a
  reference's) per string its envelopes use for the first time: the
  frame defines that string inline.  No ledger workload meets it (at
  seed 1 ``sparse_interest`` sends no datagram above the MTU; its
  largest is 892 B).  A group that is full does not wait out the
  delay: on an idle lane it leaves at once.

So batching off never delays an envelope on purpose, and a burst is
still a few full datagrams; batching on trades ``batch_delay`` of
latency for fewer frames when the lane would otherwise be idle (paced
publishing).  The trade-off of gathering is deliberate: the first
envelope of a held group pays the per-byte send cost of the followers
riding with it, and each follower saves at least one per-packet cost —
to send, and again at every receiver.  Without a host (unit tests)
the lane is always idle: batching off is a pure pass-through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..sim.kernel import Event, Simulator
from ..sim.node import Host
from .flow import BoundedQueue
from .message import Envelope

__all__ = ["Batcher", "BatchConfig"]


@dataclass
class BatchConfig:
    """Batching tunables.  Either way envelopes queued behind a busy
    send lane are gathered; ``enabled`` adds the deliberate wait."""

    enabled: bool = False
    #: A group is cut before an envelope that would take its bytes past
    #: this (chosen so a group fills one MTU-sized datagram; its frame
    #: exceeds that total by at most two ids per string it uses for the
    #: first time, whose definition it carries inline).
    batch_bytes: int = 1400
    #: With batching on, the first envelope held while the lane is idle
    #: waits this long for followers (a full group leaves sooner).
    batch_delay: float = 0.002


class Batcher:
    """The release stage of one daemon's outbound pipeline.

    ``queue`` is the daemon's admission queue: the daemon offers each
    envelope to it and then calls :meth:`add`.

    ``host`` and ``lane`` name the CPU send lane the released datagrams
    leave by (no host: a lane that is always idle).  ``_timer`` is the
    next release, so ``_timer is None`` is the "nothing held" test.
    """

    def __init__(self, sim: Simulator, config: BatchConfig,
                 flush: Callable[[List[Envelope]], None],
                 queue: BoundedQueue,
                 host: Optional[Host] = None, lane: int = 0):
        self.sim = sim
        self.config = config
        self._flush_cb = flush
        self.queue = queue
        self._free_at = (host.send_free_at if host is not None
                         else lambda lane: sim.now)
        self._lane = lane
        self._timer: Optional[Event] = None

    def add(self, envelope: Envelope) -> None:
        """``envelope`` has joined the queue: send it at once, or hold it
        for the lane (and the batch delay); a group that is full leaves
        at once while the lane is idle."""
        if self._timer is None:
            config = self.config
            wait = self._free_at(self._lane) - self.sim.now
            # an envelope no follower of its size could join does not
            # wait for any
            if (config.enabled
                    and 2 * len(envelope.payload) < config.batch_bytes):
                wait = max(wait, config.batch_delay)
            if wait > 0:
                self._timer = self.sim.schedule(wait, self._release,
                                                name="batch.release")
                return
            # the head: this envelope, or the one whose local delivery
            # published it (that one's add, still to come, holds this
            # one) — unless a re-entrant flush already sent it
            try:
                head = self.queue.take()
            except IndexError:
                return
            self._flush_cb([head])
        elif (self._free_at(self._lane) <= self.sim.now
              and self._cut() < len(self.queue)):
            self._timer.cancel()
            self._release()

    def _cut(self) -> int:
        """How many head envelopes the next datagram takes: cut before
        the one that would take its bytes past ``batch_bytes`` (always
        one, when any is queued)."""
        room = self.config.batch_bytes
        count = 0
        for envelope in self.queue:
            room -= envelope.size
            if count and room < 0:
                break
            count += 1
        return count

    def _release(self) -> None:
        """The head group leaves as one datagram; what is still queued
        waits for the next instant the lane is free."""
        self._timer = None
        queue = self.queue
        group = queue.drain(self._cut())
        if group:
            self._flush_cb(group)
        if self._timer is None and queue:
            self._timer = self.sim.schedule(
                self._free_at(self._lane) - self.sim.now, self._release,
                name="batch.release")

    def flush(self) -> None:
        """Emit everything held now, in groups, oldest first.  Safe to
        call when empty.

        Everything held is taken *before* the callback runs, so a
        re-entrant publish from inside a flush callback is held afresh
        rather than folded into a group being emitted.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        queue = self.queue
        groups = []
        while queue:
            groups.append(queue.drain(self._cut()))
        for group in groups:
            self._flush_cb(group)

    def shutdown(self) -> None:
        """Drop queued envelopes and cancel the timer (host crash)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.queue.clear()

    @property
    def first_held(self) -> Optional[Envelope]:
        """The oldest envelope held (``None`` when none is): its seq and
        later ones have not reached the lane, so a heartbeat must not
        announce them yet."""
        return next(iter(self.queue), None)
