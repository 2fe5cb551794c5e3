"""Property-based tests: the reliable-delivery state machine.

Driven directly (no network): arbitrary interleavings of loss,
duplication, and reordering against a cooperating sender must yield
exactly-once, in-order delivery; with the sender gone (no repairs), the
delivered stream must still be an ordered, duplicate-free subsequence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Envelope, QoS, RefusedSession, ReliableConfig,
                        ReliableReceiver, ReliableSender, SessionStats)
from repro.sim import Simulator


def make_envelopes(sender, count):
    return [sender.stamp(Envelope(subject="p.x", sender="app",
                                  session="", seq=0, payload=b"",
                                  qos=QoS.RELIABLE))
            for _ in range(count)]


@given(st.integers(1, 60), st.data())
@settings(max_examples=150, deadline=None)
def test_any_arrival_order_with_repair_is_exactly_once(count, data):
    sim = Simulator(seed=1)
    # the sync window (= nack_delay) must cover the injected reorder
    # depth, as it does in the deployed configuration; beyond it, early
    # messages are indistinguishable from pre-join history
    config = ReliableConfig(nack_delay=0.02)
    sender = ReliableSender("host#0", config)
    envelopes = make_envelopes(sender, count)

    delivered = []

    def send_nack(session, first, last):
        # the cooperating sender: repairs arrive promptly
        for envelope in sender.repair(first, last):
            sim.schedule(0.0005, receiver.handle_envelope, envelope, True,
                         0.0)

    receiver = ReliableReceiver(sim, config,
                                lambda e, r: delivered.append(e.seq),
                                send_nack, "me#0")

    # the session began while this receiver was already up, so even the
    # first message is recoverable (exactly-once under normal operation)
    session_start = 0.0
    # arbitrary schedule: drop some, duplicate some, reorder all
    order = data.draw(st.permutations(range(count)))
    dropped = data.draw(st.sets(st.sampled_from(range(count)),
                                max_size=count // 2 if count > 1 else 0))
    for position, index in enumerate(order):
        if index in dropped:
            continue
        copies = data.draw(st.integers(1, 2))
        for _ in range(copies):
            sim.schedule(0.0001 * (position + 1),
                         receiver.handle_envelope, envelopes[index], False,
                         session_start)
    # heartbeats reveal any lost tail (or a lost head)
    for k in range(1, 6):
        sim.schedule(0.05 * k, receiver.handle_heartbeat, "host#0",
                     sender.last_seq, session_start)
    sim.run_until(10.0)
    assert delivered == list(range(1, count + 1))


@given(st.integers(2, 50), st.data())
@settings(max_examples=150, deadline=None)
def test_without_repair_delivery_is_ordered_subsequence(count, data):
    """A dead sender answers no NACKs; at-most-once but never disordered
    and never duplicated."""
    sim = Simulator(seed=2)
    config = ReliableConfig(nack_delay=0.001, nack_max=3)
    sender = ReliableSender("host#0", config)
    envelopes = make_envelopes(sender, count)
    delivered = []
    receiver = ReliableReceiver(sim, config,
                                lambda e, r: delivered.append(e.seq),
                                lambda *args: None,   # NACKs vanish
                                "me#0")
    order = data.draw(st.permutations(range(count)))
    dropped = data.draw(st.sets(st.sampled_from(range(count)),
                                max_size=count - 1))
    for position, index in enumerate(order):
        if index in dropped:
            continue
        sim.schedule(0.0001 * (position + 1),
                     receiver.handle_envelope, envelopes[index], False)
    sim.run_until(30.0)
    # strictly increasing: no duplicates, no reordering, ever
    assert all(a < b for a, b in zip(delivered, delivered[1:]))
    # everything delivered was genuinely sent
    assert set(delivered) <= set(range(1, count + 1))
    # accounting is consistent (the duplicates counter may include
    # pre-baseline arrivals a late joiner classifies as history)
    stats = receiver.sessions["host#0"].stats
    assert stats.delivered.value == len(delivered)


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_two_sessions_are_independent(count_a, count_b):
    """Messages from different senders are not ordered relative to each
    other, but each session is FIFO."""
    sim = Simulator(seed=3)
    config = ReliableConfig(nack_delay=0.001)
    sender_a = ReliableSender("a#0", config)
    sender_b = ReliableSender("b#0", config)
    delivered = []
    receiver = ReliableReceiver(
        sim, config, lambda e, r: delivered.append((e.session, e.seq)),
        lambda *args: None, "me#0")
    # interleave the two streams
    for i in range(max(count_a, count_b)):
        if i < count_a:
            sim.schedule(0.001 * i, receiver.handle_envelope,
                         sender_a.stamp(Envelope("p.a", "x", "", 0, b"")),
                         False)
        if i < count_b:
            sim.schedule(0.001 * i + 0.0005, receiver.handle_envelope,
                         sender_b.stamp(Envelope("p.b", "x", "", 0, b"")),
                         False)
    sim.run_until(5.0)
    a_seqs = [seq for session, seq in delivered if session == "a#0"]
    b_seqs = [seq for session, seq in delivered if session == "b#0"]
    assert a_seqs == list(range(1, count_a + 1))
    assert b_seqs == list(range(1, count_b + 1))


# ----------------------------------------------------------------------
# the in-order prefix of handle_envelope == the general code it shortcuts
# ----------------------------------------------------------------------

class _MissOnce(dict):
    """A session table whose next ``get`` misses once when armed.

    ``handle_envelope`` looks the session up first thing, for the guard
    of its in-order prefix; arming the table before each call makes that
    one lookup miss, so the guard is false and the envelope takes the
    general path (whose own ``_peer()`` lookup then finds the session).
    No production switch: the reference is the code the prefix falls
    through to.
    """

    armed = False

    def get(self, key, default=None):
        if self.armed:
            self.armed = False
            return default
        return super().get(key, default)


class _LoggingSimulator(Simulator):
    """Records ``(fire time, name)`` of everything scheduled."""

    def __init__(self, seed):
        super().__init__(seed)
        self.scheduled = []

    def schedule(self, delay, callback, *args, name=""):
        self.scheduled.append((self.now + delay, name))
        return super().schedule(delay, callback, *args, name=name)


class _Harness:
    def __init__(self, prefix_enabled):
        self.sim = _LoggingSimulator(seed=7)
        self.delivered = []
        self.nacks = []
        self.refused = 0
        self.receiver = ReliableReceiver(
            self.sim, ReliableConfig(nack_delay=0.004, nack_max=3),
            lambda e, r: self.delivered.append((e.session, e.seq, r)),
            lambda *nack: self.nacks.append((self.sim.now,) + nack), "me#0")
        self.prefix_enabled = prefix_enabled
        if not prefix_enabled:
            self.receiver.sessions = _MissOnce()

    def envelope(self, session, seq, retransmitted, session_start):
        if seq == 0:
            state = dict.get(self.receiver.sessions, session)
            seq = (state.expected if state is not None else None) or 1
        if not self.prefix_enabled:
            self.receiver.sessions.armed = True
        try:
            self.receiver.handle_envelope(
                Envelope("p.x", "app", session, seq, b""), retransmitted,
                session_start)
        except RefusedSession:
            self.refused += 1       # a ghost of a superseded epoch
        if not self.prefix_enabled:
            # the armed miss was the guard's lookup, or there was no
            # session yet and it was _peer()'s — either way consumed
            assert not self.receiver.sessions.armed

    def heartbeat(self, session, last_seq, session_start):
        try:
            self.receiver.handle_heartbeat(session, last_seq, session_start)
        except RefusedSession:
            self.refused += 1

    def observable(self):
        sessions = {}
        for name, state in self.receiver.sessions.items():
            sessions[name] = (
                state.expected, state.known_last, state.nack_attempts,
                sorted(state.buffer), state.nack_event is not None,
                state.sync_event is not None,
                [getattr(state.stats, field).value
                 for field in state.stats._FIELDS])
        return (self.delivered, self.nacks, self.refused,
                self.sim.scheduled, self.sim.pending(), sessions)


# ``a#1`` supersedes ``a#0`` the moment it is heard: whatever ``a#0``
# had buffered is delivered, its gaps are given up, and its later frames
# are refused — on both harnesses alike
_SESSIONS = ["a#0", "a#1", "b#0"]

_STEP = st.one_of(
    st.tuples(st.just("envelope"), st.sampled_from(_SESSIONS),
              st.integers(1, 12), st.booleans()),
    # the envelope the session expects next (seq 0 stands for it): a
    # uniform draw of seq would rarely be the in-order one
    st.tuples(st.just("envelope"), st.sampled_from(_SESSIONS),
              st.just(0), st.booleans()),
    st.tuples(st.just("heartbeat"), st.sampled_from(_SESSIONS),
              st.integers(1, 14)),
    st.tuples(st.just("wait"), st.sampled_from([0.001, 0.005, 0.05])))


@given(st.lists(_STEP, min_size=1, max_size=60),
       st.sampled_from([None, 0.0, -5.0]))
@settings(max_examples=300, deadline=None)
def test_in_order_prefix_equals_the_general_path(steps, session_start):
    """``handle_envelope``'s steady-state prefix (next in order, no NACK
    timer armed) against the same receiver with the prefix's
    guard forced false: after every step the delivered sequence, the
    NACKs sent, every ``SessionStats`` counter, ``expected`` /
    ``known_last`` / ``nack_attempts``, and the name and time of every
    event ever scheduled are identical."""
    fast, general = _Harness(True), _Harness(False)
    lead = [("envelope", "a#0", seq, False) for seq in range(1, 4)]
    for step in lead + steps:
        for harness in (fast, general):
            if step[0] == "envelope":
                harness.envelope(step[1], step[2], step[3], session_start)
            elif step[0] == "heartbeat":
                harness.heartbeat(step[1], step[2], session_start)
            else:
                harness.sim.run_until(harness.sim.now + step[1])
        assert fast.observable() == general.observable()
    assert fast.delivered[:3] == [("a#0", 1, False), ("a#0", 2, False),
                                  ("a#0", 3, False)]


# ----------------------------------------------------------------------
# session lifetime: a newer epoch of a host retires the older one
# ----------------------------------------------------------------------

_EPOCH_STEP = st.one_of(
    st.tuples(st.just("envelope"),
              st.sampled_from(["a#0", "a#1", "a#2", "b#0"]),
              st.integers(1, 8), st.booleans()),
    st.tuples(st.just("heartbeat"),
              st.sampled_from(["a#0", "a#1", "a#2", "b#0"]),
              st.integers(1, 10)),
    st.tuples(st.just("wait"), st.sampled_from([0.001, 0.005, 0.05])))


@given(st.lists(_EPOCH_STEP, min_size=1, max_size=60),
       st.sampled_from([None, 0.0, -5.0]))
@settings(max_examples=300, deadline=None)
def test_epochs_of_one_host_leave_one_record(steps, session_start):
    """Any interleaving of envelopes, heartbeats and waits over three
    epochs of host ``a`` and one of ``b``: each session's deliveries are
    duplicate-free and in order whenever it is retired, a retired epoch
    is never heard again, and after a quiesce at most one record per
    host is left (the first per-peer table inside a declared bound —
    ROADMAP item 4)."""
    harness = _Harness(True)
    receiver = harness.receiver
    newest = {}                     # host -> highest epoch heard
    for step in steps:
        if step[0] == "wait":
            harness.sim.run_until(harness.sim.now + step[1])
            continue
        host, epoch = step[1].split("#")
        refused = harness.refused
        if step[0] == "envelope":
            harness.envelope(step[1], step[2], step[3], session_start)
        else:
            harness.heartbeat(step[1], step[2], session_start)
        # refused exactly when a newer epoch of that host was heard first
        assert (harness.refused > refused) == \
            (int(epoch) < newest.get(host, 0))
        newest[host] = max(newest.get(host, 0), int(epoch))
        assert set(receiver.sessions) == {f"{h}#{e}"
                                          for h, e in newest.items()}
    harness.sim.run_until(harness.sim.now + 30.0)       # quiesce
    assert len(receiver.sessions) <= 2
    assert not harness.sim.pending()
    for name in ("a#0", "a#1", "a#2", "b#0"):
        seqs = [seq for session, seq, _ in harness.delivered
                if session == name]
        assert all(a < b for a, b in zip(seqs, seqs[1:])), (name, seqs)
    # instruments follow the records: seven rows each, none for the dead
    rows = [row for row in receiver._metrics.names()
            if row.startswith("reliable.recv[")]
    assert len(rows) == len(SessionStats._FIELDS) * len(receiver.sessions)
