"""Hostile input on the hot receive path: CRC-valid frames whose subject
is not a well-formed subject.

``wire`` is subject-syntax-agnostic (it round-trips any string), so a
peer can put ``""`` or ``"feed..x"`` in a frame that passes its CRC.
The daemon validates subjects when it matches them — in the interest
gate and in dispatch (a subject is written once, in the frame's digest)
and on the stat port — and that
validation used to raise ``BadSubjectError`` out of a simulator callback
and through ``run_until``.  On the receive path an ill-formed subject
now *matches nothing*: never delivered, nothing raised, counted in
``daemon.<host>.wire.bad_subjects``, and the reliable window treated
exactly as for any other frame nobody wanted, so the session's next
well-formed frame is delivered in order.
"""

import pytest

from repro.core import (Envelope, InformationBus, Packet,
                        PacketKind, QoS, encode_packet)
from repro.core.daemon import DAEMON_PORT, STAT_PORT
from repro.core.subjects import BadSubjectError
from repro.objects import encode
from repro.sim import CostModel
from repro.sim.transport import DatagramSocket

SESSION = "evil#0"
BAD_SUBJECTS = ["", "feed..x", "feed.bad subject!", ".".join(["e"] * 41)]


def make_bus():
    """node00 subscribes, node01 has no interest; ``evil`` is a host with
    no daemon whose socket broadcasts hand-built frames."""
    bus = InformationBus(seed=5, cost=CostModel.ideal())
    bus.add_hosts(2)
    socket = DatagramSocket(bus.sim, bus.lan.add_host("evil"), 99,
                            lambda data, size, src: None)
    return bus, socket


def data_frame(subject, seq, ledger_id=None):
    """A self-contained one-envelope DATA frame (no session table) from
    the hostile session, guaranteed when ``ledger_id`` is given."""
    envelope = Envelope(subject=subject, sender="evil.app", session=SESSION,
                        seq=seq, payload=encode(seq),
                        qos=QoS.RELIABLE if ledger_id is None
                        else QoS.GUARANTEED, ledger_id=ledger_id)
    return encode_packet(Packet(PacketKind.DATA, SESSION, [envelope],
                                session_start=0.0))


def deliver_around(hostile_frame):
    """seq 1 (well-formed), the hostile seq 2, seq 3 (well-formed) on the
    data port; returns the bus and what node00's subscriber received."""
    bus, socket = make_bus()
    inbox = []
    bus.client("node00", "mon").subscribe(
        "feed.>", lambda subject, obj, info: inbox.append((info.seq, obj)))
    for frame in (data_frame("feed.a", 1), hostile_frame,
                  data_frame("feed.a", 3)):
        socket.broadcast(frame, DAEMON_PORT)
        bus.run_for(0.01)           # raised through here before the fix
    bus.run_for(1.0)
    return bus, inbox


def bad_subjects(daemon):
    name = f"daemon.{daemon.host.address}.wire.bad_subjects"
    return daemon.metrics.snapshot()[name]["value"]


@pytest.mark.parametrize("subject", BAD_SUBJECTS)
def test_ill_formed_digest_subject_matches_nothing(subject):
    bus, inbox = deliver_around(data_frame(subject, 2))
    assert inbox == [(1, 1), (3, 3)]
    for address in ("node00", "node01"):
        daemon = bus.daemons[address]
        stats = daemon.peers[SESSION].stats
        # the window advanced over the hostile frame like over any frame
        # nobody wanted: no gap, no repair traffic, not a codec reject
        assert stats.delivered.value == 3 and stats.nacks_sent.value == 0
        assert bad_subjects(daemon) == 1
        assert daemon.corrupt_dropped == 0
    # nobody matched it, so both daemons took the O(header) skip
    assert bus.daemons["node00"].skipped_frames == 1
    assert bus.daemons["node01"].skipped_frames == 2   # seq 1: first contact


def test_ill_formed_digest_subject_on_the_full_path_matches_nothing():
    """A guaranteed entry takes the full decode on every daemon, so the
    gate never matches its subject: dispatch meets it, counts it once,
    and offers it to no one."""
    bus, inbox = deliver_around(data_frame("feed..x", 2, ledger_id="evil/1"))
    assert inbox == [(1, 1), (3, 3)]
    for daemon in bus.daemons.values():
        assert bad_subjects(daemon) == 1
        assert daemon.corrupt_dropped == 0
        stats = daemon.peers[SESSION].stats
        assert stats.delivered.value == 3 and stats.nacks_sent.value == 0
    # the interested daemon decoded every frame
    assert bus.daemons["node00"].skipped_frames == 0


def test_ill_formed_subject_on_the_stat_port_matches_nothing():
    bus, socket = make_bus()
    inbox = []
    bus.client("node00", "browser").subscribe(
        "_bus.stat.>", lambda subject, obj, info: inbox.append(obj))
    for n, subject in enumerate(["_bus.stat.evil.daemon", "_bus.stat..x",
                                 "_bus.stat.evil.daemon"]):
        envelope = Envelope(subject=subject, sender=SESSION, session=SESSION,
                            seq=0, payload=encode(n))
        socket.broadcast(
            encode_packet(Packet(PacketKind.DATA, SESSION, [envelope])),
            STAT_PORT)
        bus.run_for(0.01)
    assert inbox == [0, 2]
    assert bad_subjects(bus.daemons["node00"]) == 1


def test_local_callers_are_still_told():
    """Only the receive path forgives: a publisher and a subscriber get
    their own mistake back as an exception."""
    bus, _socket = make_bus()
    client = bus.client("node00", "app")
    with pytest.raises(BadSubjectError):
        client.publish("feed..x", 1)
    with pytest.raises(BadSubjectError):
        client.subscribe("feed.bad subject!", lambda *args: None)
