"""The reliable receiver's timer invariant, checked after every step.

:class:`~repro.core.reliable.PeerSession` states it once: a sync window
is open only before the baseline, and a session with a baseline and no
NACK timer armed has nothing buffered, nothing missing and no NACK
attempts counted.  ``handle_envelope``'s in-order prefix and
``try_skip`` test only ``expected`` and the NACK timer and lean on the
rest, so a path that buffered or opened a gap without arming a timer
would let them deliver past a hole.

The machine drives one :class:`ReliableReceiver` through every entry
point the daemon calls (envelopes, heartbeats, undecodable frames,
interest-gate skips, a sender's answer that seqs are gone, the codec
hearing a newer epoch of a host) and
through simulated time, each input claiming a session start before,
after or unknown relative to the receiver's.  After every step it
checks the clauses directly — not through ``has_gap`` — for every live
session, and that each session's deliveries stay in order.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.core import Envelope, ReliableConfig, ReliableReceiver
from repro.sim import Simulator

HOSTS = st.sampled_from(["a", "b"])

#: the receiver comes up at t = 1: a session start unknown, older, or
#: younger (equal counts as younger)
STARTS = st.sampled_from([None, 0.5, 1.0])

SEQS = st.integers(1, 12)


class ReceiverMachine(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=1)
        self.sim.run_until(1.0)
        # a small reorder buffer, so shedding is in play too
        self.receiver = ReliableReceiver(
            self.sim,
            ReliableConfig(nack_delay=0.02, nack_max=3, receive_buffer=4),
            self._deliver, lambda *nack: None, "me#0")
        self.epochs = {"a": 0, "b": 0}
        self.delivered = {}

    def _deliver(self, envelope, retransmitted):
        self.delivered.setdefault(envelope.session, []).append(envelope.seq)

    def _session(self, host):
        return f"{host}#{self.epochs[host]}"

    def _next(self, session):
        """The seq ``session`` expects next; before its baseline, the one
        after the highest heard (so a sync window is not always ended
        by seq 1)."""
        state = self.receiver.sessions.get(session)
        if state is None:
            return 1
        return state.expected or state.known_last + 1

    @initialize(seq=SEQS, start=STARTS)
    def first_heard_data(self, seq, start):
        """Host ``a`` is first heard through a data frame, which is what
        opens a sync window (other rules baseline a session first)."""
        self.envelope("a", seq, False, start)

    @rule(host=HOSTS, seq=SEQS, retransmitted=st.booleans(), start=STARTS)
    def envelope(self, host, seq, retransmitted, start):
        self.receiver.handle_envelope(
            Envelope("p.x", "app", self._session(host), seq, b""),
            retransmitted, start)

    @rule(host=HOSTS, retransmitted=st.booleans(), start=STARTS)
    def next_envelope(self, host, retransmitted, start):
        """The in-order arrival, which a uniform seq rarely is."""
        self.envelope(host, self._next(self._session(host)), retransmitted,
                      start)

    @rule(host=HOSTS, last_seq=SEQS, start=STARTS)
    def heartbeat(self, host, last_seq, start):
        self.receiver.handle_heartbeat(self._session(host), last_seq, start)

    @rule(host=HOSTS, first_seq=SEQS, extra=st.integers(0, 3), start=STARTS)
    def undecodable(self, host, first_seq, extra, start):
        self.receiver.note_undecodable(self._session(host), first_seq,
                                       first_seq + extra, start)

    @rule(host=HOSTS, offset=st.integers(-1, 3))
    def gone(self, host, offset):
        """A repair saying every seq up to one near the expected one has
        left retention: asked for or not, short of the gap or past it."""
        session = self._session(host)
        self.receiver.handle_gone(session, self._next(session) + offset)

    @rule(host=HOSTS, offsets=st.lists(st.integers(-2, 3), max_size=4))
    def skip(self, host, offsets):
        """A digest of seqs near the expected one, so that some skips
        commit and others meet a duplicate, a gap or seq 0."""
        session = self._session(host)
        expected = self._next(session)
        self.receiver.try_skip(
            session, [max(expected + offset, 0) for offset in offsets])

    @rule(host=HOSTS)
    def newer_epoch(self, host):
        """The codec hears the host's next epoch, retiring this one."""
        self.epochs[host] += 1
        self.receiver.hear(self._session(host))

    @rule(delay=st.sampled_from([0.001, 0.005, 0.05, 0.5]))
    def wait(self, delay):
        self.sim.run_until(self.sim.now + delay)

    @invariant()
    def timers_cover_every_gap(self):
        for name, state in self.receiver.sessions.items():
            for event in (state.nack_event, state.sync_event):
                # an armed timer is a live event, never a spent one
                assert event is None or not (event.fired or event.cancelled)
            if state.sync_event is not None:
                assert state.expected is None, name
            if state.expected is not None and state.nack_event is None:
                assert not state.buffer, name
                assert state.known_last == state.expected - 1, name
                assert state.nack_attempts == 0, name

    @invariant()
    def each_session_delivers_in_order(self):
        for name, seqs in self.delivered.items():
            assert all(a < b for a, b in zip(seqs, seqs[1:])), (name, seqs)


ReceiverMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
test_timer_invariant_holds_after_every_step = ReceiverMachine.TestCase
