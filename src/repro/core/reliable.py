"""The reliable-delivery layer: "UDP packets in combination with a
retransmission protocol" (Section 3.1).

Semantics implemented (quoting the paper):

    "Under normal operation, if a sender and receiver do not crash and
    the network does not suffer a long-term partition, then messages are
    delivered exactly once in the order sent by the same sender; messages
    from different senders are not ordered.  If the sender or receiver
    crashes, or there is a network partition, then messages will be
    delivered at most once."

Mechanism: every daemon stamps outgoing envelopes with a per-*session*
sequence number (a session is one incarnation of a daemon; it dies with a
crash, so sequence state is never resurrected ambiguously).  Receivers
deliver in sequence order per session, buffer out-of-order arrivals, and
send unicast NACKs to repair gaps from the sender's bounded retention
buffer.  Idle senders broadcast heartbeats so a lost *final* message is
still detected.  A gap that cannot be repaired after ``nack_max``
attempts (sender crashed, retention rolled past it, long partition) is
skipped — degrading to at-most-once exactly as specified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.framing import CorruptFrame
from ..sim.kernel import Event, Simulator
from ..sim.trace import Tracer
from .flow import BoundedBuffer
from .message import Envelope
from .metrics import MetricsRegistry
from .typeplane import PeerTypeView

__all__ = ["PeerSession", "RefusedSession", "ReliableConfig",
           "ReliableSender", "ReliableReceiver", "SessionStats"]

#: How every daemon names a session: ``<host>#<epoch>[~<plane>]``
#: (digits bounded: ``int()`` of a longer run can raise, not refuse).
_SESSION_NAME = re.compile(r"([^#]+)#([0-9]{1,18})((?:~[0-9]{1,18})?)")

#: Backoff multiplier between NACK attempts, and the ceiling on the
#: inter-NACK delay once backoff has grown.
_NACK_BACKOFF = 2.0
_NACK_BACKOFF_CAP = 0.5


@dataclass
class ReliableConfig:
    """Tunables for the retransmission protocol."""

    #: Envelopes a sender retains for NACK repair (count bound).
    retention: int = 4096
    #: Delay before a detected gap triggers the first NACK (lets simple
    #: reordering resolve itself without traffic).
    nack_delay: float = 0.005
    #: NACK retries before the receiver gives up and skips the gap.
    #: Generous because a saturated sender serializes the repair behind
    #: its outbound data queue - impatience turns congestion into loss.
    nack_max: int = 20
    #: Idle-sender heartbeat period.
    heartbeat_interval: float = 0.25
    #: Out-of-order envelopes a receiver buffers per session.  A full
    #: reorder buffer sheds whichever envelope carries the highest
    #: sequence number, incoming or buffered, so gap-fillers are always
    #: admitted; every shed is counted in
    #: :attr:`SessionStats.overflow_dropped` and traced as ``flow.drop``.
    receive_buffer: int = 1024


class ReliableSender:
    """Per-daemon send side: sequence stamping, retention, NACK service.

    The retention window is a :class:`~repro.core.flow.BoundedBuffer`
    stage: stamping inserts, and the count bound rolls the oldest entry
    out (counted under ``flow.reliable.retention[<session>].*``).
    """

    def __init__(self, session: str, config: ReliableConfig,
                 metrics: Optional[MetricsRegistry] = None):
        self.session = session
        self.next_seq = 1
        # seq -> envelope; drop-oldest IS the rolling repair window, so
        # the buffer's eviction counters double as "how much
        # repairability the retention bound cost us"
        self._retention = BoundedBuffer(
            f"reliable.retention[{session}]",
            capacity=max(config.retention, 1), metrics=metrics)
        if metrics is None:
            metrics = MetricsRegistry()
        self._retransmissions = metrics.counter(
            f"reliable.send[{session}].retransmissions")

    @property
    def last_seq(self) -> int:
        return self.next_seq - 1

    @property
    def retransmissions(self) -> int:
        """Envelopes re-sent to serve NACK repairs (an int view over
        the ``reliable.send[<session>].retransmissions`` counter)."""
        return self._retransmissions.value

    def stamp(self, envelope: Envelope) -> Envelope:
        """Assign the next sequence number and retain for repair."""
        envelope.session = self.session
        envelope.seq = self.next_seq
        self.next_seq += 1
        self._retention.insert(envelope.seq, envelope)
        return envelope

    def forget(self, seq: int) -> None:
        """Drop ``seq`` from retention, so a NACK cannot resurrect it.

        Nothing in the bus calls it: the admission queue sheds only
        envelopes that were never stamped.  It stays because the bus
        ledger's tracer (``benchmarks/ledger/trace.py::TARGETS``) binds
        it by name on this class, and a missing name fails a traced
        run."""
        self._retention.pop(seq)

    def repair(self, first: int, last: int) -> List[Envelope]:
        """Envelopes for a NACKed range still present in retention."""
        found = []
        for seq in range(first, last + 1):
            envelope = self._retention.get(seq)
            if envelope is not None:
                found.append(envelope)
        self._retransmissions.value += len(found)
        return found


class SessionStats:
    """One :class:`PeerSession`'s ``reliable.recv[<session>].<field>``
    counters in the receiving daemon's registry (a private one for a
    standalone receiver); read ``stats.delivered.value``.
    ``overflow_dropped`` is pressure, not necessarily loss: an envelope
    shed from a full reorder buffer may still be NACK-repaired."""

    _FIELDS = ("delivered", "duplicates", "buffered", "nacks_sent",
               "gaps_skipped", "messages_lost", "overflow_dropped")

    __slots__ = _FIELDS

    def __init__(self, session: str, metrics: MetricsRegistry):
        scope = metrics.scope(f"reliable.recv[{session}]")
        for name in self._FIELDS:
            setattr(self, name, scope.counter(name))


class PeerSession:
    """All one daemon plane knows about one remote session: the string
    ids and typedef blobs :mod:`repro.core.wire` learns from its frames
    (``type_view`` resolves typed payloads), the reliable window, the
    ``reliable.recv[<session>].*`` counters.  Made only in
    :meth:`ReliableReceiver.hear`, dropped only in ``_retire``.

    The timer invariant, stated here once and checked after every step
    by ``tests/properties/test_reliable_invariant.py``:

    * a sync window is open only before the baseline (``sync_event``
      set implies ``expected is None``);
    * a session with a baseline and no ``nack_event`` armed has an
      empty ``buffer``, ``known_last == expected - 1`` (nothing
      missing) and ``nack_attempts == 0``.

    It holds because every path that buffers an envelope or opens a gap
    also arms a timer, and every path that ends a timer either re-arms
    one while a gap remains (``_refresh_gap``, ``_fire_nack``,
    ``_end_sync``), ends a sync window by setting the baseline (seq 1
    arriving) or drops the record (``_retire``, ``shutdown``).  The
    receiver's in-order fast paths lean on it: they test ``expected``
    and the NACK timer, never the buffer or ``known_last``."""

    __slots__ = ("session", "strings", "types", "type_view", "expected",
                 "buffer", "nack_event", "nack_attempts", "known_last",
                 "sync_event", "stats")

    def __init__(self, session: str, metrics: MetricsRegistry) -> None:
        self.session = session
        self.strings: Dict[int, str] = {}
        self.types: Dict[int, bytes] = {}
        self.type_view = PeerTypeView(self.types)
        self.expected: Optional[int] = None
        self.buffer: Dict[int, Tuple[Envelope, bool]] = {}
        self.nack_event: Optional[Event] = None
        self.nack_attempts = 0
        #: highest sequence number known to exist (data or heartbeat)
        self.known_last = 0
        #: pending end-of-sync-window event (first contact, seq > 1)
        self.sync_event: Optional[Event] = None
        self.stats = SessionStats(session, metrics)

    def last_missing(self) -> int:
        """End of the first contiguous missing run (minimal NACK range)."""
        if self.buffer:
            return min(self.buffer) - 1
        return self.known_last

    def has_gap(self) -> bool:
        return (self.expected is not None
                and self.expected <= self.last_missing())


class RefusedSession(CorruptFrame):
    """A frame named a session the receiver keeps no record for: not
    ``<host>#<epoch>[~<plane>]``, or (``stale``) a dead sender's — a
    newer epoch of that host and plane has been heard."""

    def __init__(self, session: str, stale: bool):
        super().__init__(f"refused session {session!r}")
        self.stale = stale


class ReliableReceiver:
    """Per-daemon receive side: ordering, dedupe, gap repair, give-up.

    ``deliver`` is called exactly once per delivered envelope, in per-
    session sequence order.  ``send_nack(session, first, last)`` must
    transmit a NACK packet toward the session's daemon.  ``own_session``
    is the receiving plane's own session name.

    ``sessions`` is the plane's one ``session -> PeerSession`` mapping;
    the wire codec, handed this receiver, reads it and calls :meth:`hear`
    for a session not in it.  :meth:`hear` and :meth:`_retire` are a
    record's whole lifetime.
    """

    def __init__(self, sim: Simulator, config: ReliableConfig,
                 deliver: Callable[[Envelope, bool], None],
                 send_nack: Callable[[str, int, int], None],
                 own_session: str,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.config = config
        self._deliver = deliver
        self._send_nack = send_nack
        self._tracer = tracer
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self.sessions: Dict[str, PeerSession] = {}
        #: ``<host>[~<plane>]`` -> (highest epoch heard, its session):
        #: outlives the record, so a dead epoch's late frames stay dead
        self._newest: Dict[str, Tuple[int, str]] = {}
        # ``own_session`` is seeded, never recorded: a plane does not
        # hear its own broadcasts, so a frame naming its own session or
        # an earlier epoch of it is a replay, refused as stale
        name = _SESSION_NAME.fullmatch(own_session)
        self._newest[name[1] + name[3]] = (int(name[2]), own_session)
        #: when this receiver came up; sessions born after this are fully
        #: recoverable from seq 1 (we must have been within earshot)
        self.started_at = sim.now

    # ------------------------------------------------------------------
    # public API (driven by the daemon)
    # ------------------------------------------------------------------
    def handle_envelope(self, envelope: Envelope,
                        retransmitted: bool = False,
                        session_start: Optional[float] = None) -> None:
        seq = envelope.seq
        state = self.sessions.get(envelope.session)
        if (state is not None and seq == state.expected
                and state.nack_event is None):
            # The steady state — next in order, no NACK timer armed, so
            # (the :class:`PeerSession` invariant) no sync window, nothing
            # buffered, nothing missing and no attempts counted: what
            # ``_deliver_in_order`` + ``_drain`` + ``_refresh_gap`` below
            # reduce to in that state.
            state.known_last = seq
            state.expected = seq + 1
            state.stats.delivered.value += 1
            self._deliver(envelope, retransmitted)
            return
        if state is None:
            state = self._peer(envelope.session)
        state.known_last = max(state.known_last, seq)
        if state.expected is None:
            # First contact with this session.  Sessions always start at
            # seq 1, so a higher first-heard seq means either the early
            # messages were lost/reordered (recover them: the paper
            # promises exactly-once under normal operation) or this
            # receiver genuinely joined after the session began (history
            # is not replayed: "a new subscriber ... receives new
            # objects").  The session's start time disambiguates; an
            # open sync window ends only at seq 1 or on its timer.
            if seq != 1 and (state.sync_event is not None
                             or not self._young(session_start)):
                # late join (or unknown start), or a window already
                # open: sync-window baseline
                state.buffer[seq] = (envelope, retransmitted)
                if state.sync_event is None:
                    state.sync_event = self.sim.schedule(
                        self.config.nack_delay, self._end_sync, state,
                        name="reliable.sync")
                return
            # seq 1, or a session younger than us (everything from seq 1
            # should have reached us: the hole is loss, repaired below)
            state.expected = 1
            if state.sync_event is not None:
                state.sync_event.cancel()
                state.sync_event = None
        if seq < state.expected:
            state.stats.duplicates.value += 1
            return
        if seq == state.expected:
            self._deliver_in_order(state, envelope, retransmitted)
            self._drain(state)
            self._refresh_gap(state)
            return
        # gap: buffer and arrange repair
        if seq in state.buffer:
            state.stats.duplicates.value += 1
            return
        if len(state.buffer) >= self.config.receive_buffer:
            if not self._shed(state, envelope):
                return   # the incoming envelope itself was shed
        state.buffer[seq] = (envelope, retransmitted)
        state.stats.buffered.value += 1
        self._arm_nack(state)

    def _shed(self, state: PeerSession, incoming: Envelope) -> bool:
        """Make room in a full reorder buffer by shedding the highest
        sequence number in play, so a gap-filling arrival always
        displaces younger data.

        Returns True when room was made for ``incoming`` (a buffered
        envelope was evicted), False when ``incoming`` was the victim.
        Either way the shed is counted and traced — never silent.
        """
        victim = max(state.buffer)
        if incoming.seq > victim:
            victim = incoming.seq
        state.stats.overflow_dropped.value += 1
        if self._tracer:
            self._tracer.emit(self.sim.now, "flow.drop",
                              queue="reliable.reorder",
                              session=state.session, seq=victim,
                              end="newest", depth=len(state.buffer))
        if victim == incoming.seq:
            return False
        del state.buffer[victim]
        return True

    def try_skip(self, session: str, seqs: List[int]) -> bool:
        """Advance ``session``'s window for a frame whose bodies will not
        be decoded (the interest gate — see
        :meth:`repro.core.daemon.BusDaemon._gate_datagram`).

        ``seqs`` is the frame's digest: one sequence number per
        envelope, in frame order.  All-or-nothing: commits and returns
        True only when every entry would have taken the trivial
        duplicate or contiguous in-order path through
        :meth:`handle_envelope` (its guarded in-order prefix has these
        same preconditions: a baseline and no NACK timer, hence by the
        :class:`PeerSession` invariant nothing buffered or missing) —
        no timer armed, cancelled, or re-aimed — so that for a daemon
        with no matching subscription, skipping is *observably
        identical* (stats, traces, scheduled events) to decoding.
        Anything else — first contact with the session, an open sync
        window, an armed NACK, a gap this frame would open — returns
        False untouched and the caller runs the full decode path.
        """
        if not seqs:
            return True     # an empty frame advances nothing
        state = self.sessions.get(session)
        if (state is None or state.expected is None
                or state.nack_event is not None):
            return False
        expected = state.expected
        duplicates = 0
        for seq in seqs:
            if seq == expected:
                expected += 1
            elif 0 < seq < expected:
                duplicates += 1
            else:
                return False    # seq 0, or a gap this frame would open
        if duplicates:
            state.stats.duplicates.value += duplicates
        delivered = expected - state.expected
        if delivered:
            state.expected = expected
            state.known_last = expected - 1
            state.stats.delivered.value += delivered
        return True

    def note_undecodable(self, session: str, first_seq: int, last_seq: int,
                         session_start: Optional[float] = None) -> None:
        """A frame from ``session`` arrived intact but could not be
        resolved (compressed header ids this receiver never learned —
        see :class:`~repro.core.wire.UnresolvedStringId`).

        The frame was dropped, so its envelopes never reached
        :meth:`handle_envelope`; without this hook the hole would only be
        noticed when a *later* decodable frame or heartbeat exposed the
        gap.  Treat it as loss: record how far the session is known to
        extend and arm a NACK — the RETRANS repair is self-contained
        (defines every id it references), so it always resolves.
        """
        state = self._peer(session)
        if last_seq > state.known_last:
            state.known_last = last_seq
        # a late joiner does not replay history, but *this* frame is new
        # data we were meant to hear — repair from it.  (NOT
        # ``last_seq + 1``: that would skip the frame and leave a
        # receiver whose every frame is unresolvable permanently deaf.)
        if state.expected is None \
                and not self._baseline(state, session_start, first_seq):
            return
        if state.has_gap():
            self._arm_nack(state)

    def handle_heartbeat(self, session: str, last_seq: int,
                         session_start: Optional[float] = None) -> None:
        state = self._peer(session)
        state.known_last = max(state.known_last, last_seq)
        # a late joiner misses nothing published since it arrived
        if state.expected is None \
                and not self._baseline(state, session_start, last_seq + 1):
            return
        if state.has_gap():
            self._arm_nack(state)

    def shutdown(self) -> None:
        """Cancel all pending timers (daemon stopping or host crashing)."""
        for state in self.sessions.values():
            for event in (state.nack_event, state.sync_event):
                if event is not None:
                    event.cancel()
        self.sessions.clear()
        self._newest.clear()

    def _end_sync(self, state: PeerSession) -> None:
        """The sync window closed without seq 1: the lowest sequence
        number buffered in it is the baseline."""
        state.sync_event = None
        state.expected = min(state.buffer)
        self._drain(state)
        self._refresh_gap(state)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _young(self, session_start: Optional[float]) -> bool:
        """Whether a session began after this receiver came up, so that
        everything from seq 1 should have reached us: a hole in its
        history is loss to repair, not history to skip."""
        return session_start is not None and session_start >= self.started_at

    def _baseline(self, state: PeerSession, session_start: Optional[float],
                  late: int) -> bool:
        """First contact by a heartbeat or an undecodable frame: set
        ``expected`` to 1 for a young session, to ``late`` for an old
        one.  False, and nothing set, while a sync window is open (its
        buffered data will baseline)."""
        if state.sync_event is not None:
            return False
        state.expected = 1 if self._young(session_start) else late
        return True

    def _peer(self, session: str) -> PeerSession:
        state = self.sessions.get(session)
        return state if state is not None else self.hear(session)

    def hear(self, session: str) -> PeerSession:
        """First frame naming ``session``: the one place a record is
        made.  Hosts are fail-stop and restart into the next epoch, so
        a newer epoch proves that host and plane's older one dead: it
        is retired here and its later frames are refused."""
        name = _SESSION_NAME.fullmatch(session)
        if name is None:
            raise RefusedSession(session, stale=False)
        sender, epoch = name[1] + name[3], int(name[2])
        newest = self._newest.get(sender)
        if newest is not None:
            if epoch <= newest[0]:
                raise RefusedSession(session, stale=True)
            if newest[1] in self.sessions:   # not the seeded own session
                self._retire(newest[1])
        self._newest[sender] = (epoch, session)
        state = self.sessions[session] = PeerSession(session, self._metrics)
        return state

    def _retire(self, session: str) -> None:
        """The one place a record is dropped.  Its sender is dead: stop
        NACKing and give its gaps up now (what is buffered is delivered,
        each hole counted in ``messages_lost``).  Its instruments go
        too; the ``reliable.retire`` record keeps their last values."""
        state = self.sessions[session]
        for event in (state.nack_event, state.sync_event):
            if event is not None:
                event.cancel()
        if state.expected is None and state.buffer:
            state.expected = min(state.buffer)  # its sync window ends now
            self._drain(state)
        while state.has_gap():
            self._give_up(state)
        del self.sessions[session]
        if self._tracer:
            self._tracer.emit(self.sim.now, "reliable.retire",
                              session=session,
                              **{name: getattr(state.stats, name).value
                                 for name in SessionStats._FIELDS})
        self._metrics.drop_prefix(f"reliable.recv[{session}]")

    def _deliver_in_order(self, state: PeerSession, envelope: Envelope,
                          retransmitted: bool) -> None:
        state.expected = envelope.seq + 1
        state.stats.delivered.value += 1
        self._deliver(envelope, retransmitted)

    def _drain(self, state: PeerSession) -> None:
        while state.expected in state.buffer:
            envelope, retransmitted = state.buffer.pop(state.expected)
            self._deliver_in_order(state, envelope, retransmitted)

    def _refresh_gap(self, state: PeerSession) -> None:
        """After progress, cancel or re-aim the outstanding NACK timer."""
        if state.nack_event is not None:
            state.nack_event.cancel()
            state.nack_event = None
        state.nack_attempts = 0
        if state.has_gap():
            # there is still a hole (below the buffer, or a lost tail)
            self._arm_nack(state)

    def _arm_nack(self, state: PeerSession) -> None:
        if state.nack_event is not None:
            return
        delay = min(self.config.nack_delay
                    * (_NACK_BACKOFF ** state.nack_attempts),
                    _NACK_BACKOFF_CAP)
        state.nack_event = self.sim.schedule(
            delay, self._fire_nack, state, name="reliable.nack")

    def _fire_nack(self, state: PeerSession) -> None:
        state.nack_event = None
        if not state.has_gap():
            return
        if state.nack_attempts >= self.config.nack_max:
            self._give_up(state)
            if state.has_gap():
                self._arm_nack(state)
            return
        state.nack_attempts += 1
        state.stats.nacks_sent.value += 1
        self._send_nack(state.session, state.expected, state.last_missing())
        self._arm_nack(state)

    def _give_up(self, state: PeerSession) -> None:
        """Unrepairable gap: skip it (at-most-once under failure)."""
        state.stats.gaps_skipped.value += 1
        if state.buffer:
            lowest = min(state.buffer)
            state.stats.messages_lost.value += lowest - state.expected
            state.expected = lowest
        else:
            # a lost tail the (dead or amnesiac) sender cannot repair
            state.stats.messages_lost.value += state.known_last - state.expected + 1
            state.expected = state.known_last + 1
        state.nack_attempts = 0
        self._drain(state)
