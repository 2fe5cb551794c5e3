"""The lifetime of what a daemon knows about a remote session.

One ``PeerSession`` per heard session (``daemon.peers``): made the first
time a frame names the session, retired when a newer epoch of the same
host and plane is heard — hosts are fail-stop, so the older incarnation
can never speak again.  Retirement gives up the old session's gaps at
once (what is buffered is delivered, the hole is counted), drops its
``reliable.recv[<session>].*`` instruments, and leaves a tombstone that
turns every later frame of that epoch into a counted drop.  A session
whose name is not ``<host>#<epoch>[~<plane>]`` has no place in that
order and is dropped at first hearing.
"""

import pytest

from repro.core import (Envelope, InformationBus, Packet,
                        PacketKind, QoS, SessionStats, StringTable,
                        encode_packet)
from repro.core.daemon import DAEMON_PORT, STAT_PORT
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor, encode,
                           standard_registry)
from repro.sim import CostModel
from repro.sim.trace import Tracer
from repro.sim.transport import DatagramSocket

def make_bus(hosts=3):
    """node00 publishes, node01 subscribes ``t.>``, node02 wants nothing
    (its interest gate skips every frame)."""
    tracer = Tracer(enabled=True)
    bus = InformationBus(seed=3, cost=CostModel.ideal(), tracer=tracer)
    bus.add_hosts(hosts)
    inbox = []
    bus.client("node01", "mon").subscribe(
        "t.>", lambda subject, obj, info: inbox.append(
            (bus.sim.now, info.session, obj["n"])))
    return bus, tracer, inbox


def counter(daemon, leaf):
    return daemon.metrics.get(
        f"daemon.{daemon.host.address}.wire.{leaf}").value


def recv_rows(daemon, session=""):
    return [name for name in daemon.metrics.names()
            if name.startswith(f"reliable.recv[{session}")]


def evil_socket(bus):
    """A host with no daemon whose socket sends hand-built frames."""
    return DatagramSocket(bus.sim, bus.lan.add_host("evil"), 99,
                          lambda data, size, src: None)


def envelope(session, seq, subject="t.tick"):
    return Envelope(subject=subject, sender="ghost.app", session=session,
                    seq=seq, payload=encode({"n": -seq}))


def restart_with_a_gap():
    """node01 and node02 hear seq 1 of ``node00#0``, miss seq 2 behind a
    partition, buffer seq 3; node00 crashes before it can repair and
    comes back as ``node00#1``, publishing at t = 0.571."""
    bus, tracer, inbox = make_bus()
    pub = bus.client("node00", "pub")
    pub.publish("t.tick", {"n": 1})
    bus.run_for(0.01)
    bus.partition(["node00"], ["node01", "node02"])
    pub.publish("t.tick", {"n": 2})
    bus.run_for(0.01)
    bus.heal()
    pub.publish("t.tick", {"n": 3})
    bus.run_for(0.001)
    bus.crash_host("node00")
    bus.run_for(0.5)
    bus.recover_host("node00")
    bus.sim.schedule(0.05, pub.publish, "t.tick", {"n": 4})
    bus.run_for(12.0)
    return bus, tracer, inbox


def test_a_newer_epoch_retires_the_older_session_and_its_gap():
    bus, tracer, inbox = restart_with_a_gap()
    retired = tracer.select("reliable.retire", session="node00#0")
    assert len(retired) == 2                    # node01 and node02
    heard = retired[0].time                     # the successor's first frame
    assert heard < 0.6
    # the buffered message came out at that instant, ahead of the
    # successor's own first message; the hole is declared, not waited on
    assert [(session, n) for _, session, n in inbox] == [
        ("node00#0", 1), ("node00#0", 3), ("node00#1", 4)]
    assert [time for time, _, _ in inbox[1:]] == [heard, heard]
    # not one NACK goes to the dead incarnation once its successor is heard
    nacks = tracer.select("nack", session="node00#0")
    assert nacks and all(record.time < heard for record in nacks)
    assert not tracer.select("nack", session="node00#1")
    # retirement drops the instruments, so the trace record is where the
    # old session's final counts are read
    for record in retired:
        assert set(record.fields) == {"session", *SessionStats._FIELDS}
        assert record["messages_lost"] == 1
        assert record["gaps_skipped"] == 1
        assert record["nacks_sent"] == len(nacks) // 2
        assert (record["delivered"], record["buffered"]) == (2, 1)
    for address in ("node01", "node02"):
        daemon = bus.daemons[address]
        assert list(daemon.peers) == ["node00#1"]
        assert len(recv_rows(daemon)) == len(SessionStats._FIELDS)
        assert not recv_rows(daemon, "node00#0")
        assert counter(daemon, "stale_sessions") == 0


def test_ghosts_of_a_retired_epoch_are_counted_drops():
    """A duplicated DATA, a HEARTBEAT and a (compressed, self-contained)
    RETRANS of the superseded epoch, arriving after it was retired."""
    bus, tracer, inbox = restart_with_a_gap()
    socket = evil_socket(bus)
    before = list(inbox)
    nacks = tracer.count("nack")
    ghosts = [
        encode_packet(Packet(PacketKind.DATA, "node00#0",
                             [envelope("node00#0", 3)], session_start=0.0)),
        encode_packet(Packet(PacketKind.HEARTBEAT, "node00#0", last_seq=9,
                             session_start=0.0)),
        encode_packet(Packet(PacketKind.RETRANS, "node00#0",
                             [envelope("node00#0", 2)], session_start=0.0),
                      StringTable()),
    ]
    for count, frame in enumerate(ghosts, start=1):
        for address in ("node01", "node02"):    # not node00: it never
            socket.sendto(frame, address, DAEMON_PORT)  # heard itself
        bus.run_for(1.0)
        for address in ("node01", "node02"):
            daemon = bus.daemons[address]
            assert counter(daemon, "stale_sessions") == count
            assert list(daemon.peers) == ["node00#1"]
            assert not recv_rows(daemon, "node00#0")
            assert counter(daemon, "corrupt_dropped") == 0
    assert inbox == before                      # nothing delivered twice
    assert tracer.count("nack") == nacks        # and no repair armed
    # the live session is untouched
    bus.client("node00", "pub2").publish("t.tick", {"n": 5})
    bus.run_for(0.1)
    assert inbox[-1][1:] == ("node00#1", 5)


def test_a_plane_refuses_replays_of_its_own_sessions():
    """node00 came back as ``node00#1``.  A replayed frame of its dead
    ``node00#0`` — or one naming its live session — is a stale drop
    there as on every other receiver: no record, no NACK aimed at
    itself.  Its own session is a seeded tombstone, never a record."""
    bus, tracer, inbox = restart_with_a_gap()
    daemon = bus.daemons["node00"]
    assert daemon.session == "node00#1" and not daemon.peers
    nacks = tracer.count("nack")
    socket = evil_socket(bus)
    for count, session in enumerate(["node00#0", "node00#1"], start=1):
        socket.sendto(encode_packet(Packet(PacketKind.DATA, session,
                                           [envelope(session, 3)],
                                           session_start=0.0)),
                      "node00", DAEMON_PORT)
        bus.run_for(1.0)
        assert counter(daemon, "stale_sessions") == count
        assert not daemon.peers and not recv_rows(daemon)
    assert counter(daemon, "peer_sessions") == 0
    assert tracer.count("nack") == nacks
    # a forged *newer* epoch of itself finds no record of its own to
    # retire: a forged name (ROADMAP item 7(b)), not a crash
    socket.sendto(encode_packet(Packet(PacketKind.HEARTBEAT, "node00#9",
                                       last_seq=0, session_start=0.0)),
                  "node00", DAEMON_PORT)
    bus.run_for(1.0)
    bus.client("node00", "pub2").publish("t.tick", {"n": 5})
    bus.run_for(0.1)
    assert inbox[-1][1:] == ("node00#1", 5)


@pytest.mark.parametrize("make_table", [lambda: None, StringTable],
                         ids=["plain", "compressed"])
def test_a_refused_frame_counts_once_whatever_its_encoding(make_table):
    """A frame is one session's, so a refusal is the frame's: a ghost
    frame of three envelopes is one ``stale_sessions``, whether it was
    encoded against a one-frame table ("plain": no table given, as
    telemetry is) or a session's table.  Either way the codec is the
    first to hear the session, when it asks for the session's tables."""
    bus, tracer, inbox = restart_with_a_gap()
    before, nacks = list(inbox), tracer.count("nack")
    ghost = Packet(PacketKind.DATA, "node00#0",
                   [envelope("node00#0", seq) for seq in (4, 5, 6)],
                   session_start=0.0)
    evil_socket(bus).sendto(encode_packet(ghost, make_table()),
                            "node01", DAEMON_PORT)
    bus.run_for(1.0)
    daemon = bus.daemons["node01"]
    assert counter(daemon, "stale_sessions") == 1
    assert counter(daemon, "corrupt_dropped") == 0
    assert list(daemon.peers) == ["node00#1"]
    assert inbox == before and tracer.count("nack") == nacks


@pytest.mark.parametrize("qos", [QoS.RELIABLE, QoS.GUARANTEED])
def test_a_slow_consumer_still_decodes_a_retired_sessions_backlog(qos):
    """Typed messages of ``node00#0`` sit in a slow consumer's lane
    (accepted, never to be resent) when ``node00#1`` is heard and the
    old record — the only holder of the typedefs the reliable ones
    reference — is retired: each lane entry carries the resolver it was
    queued with.  (Guaranteed payloads inline their types, so they never
    depended on the record; they ride along to pin that.)"""
    bus, _tracer, _inbox = make_bus()
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "tick", attributes=[AttributeSpec("n", "int")]))
    inbox = []
    slow = bus.client("node01", "slow", service_time=0.05)
    slow.subscribe("typed.>", lambda subject, obj, info: inbox.append(
        (info.session, obj.get("n"))), durable=qos is QoS.GUARANTEED)
    pub = bus.client("node00", "pub", registry=registry)
    for n in range(8):
        pub.publish("typed.tick", DataObject(registry, "tick", n=n),
                    qos=qos)
    bus.run_for(0.02)               # all heard (and acked), none consumed
    assert not inbox and not bus.daemons["node00"].guaranteed_pending()
    bus.crash_host("node00")
    bus.run_for(0.01)
    bus.recover_host("node00")
    pub.publish("typed.tick", DataObject(registry, "tick", n=8))
    bus.run_for(0.05)
    daemon = bus.daemons["node01"]
    assert list(daemon.peers) == ["node00#1"] and len(inbox) < 8
    bus.run_for(1.0)
    assert slow.decode_errors == 0
    assert inbox == ([("node00#0", n) for n in range(8)]
                     + [("node00#1", 8)])


def test_a_forged_newer_epoch_silences_the_real_session():
    """The price of the lifetime rule, pinned: epochs are taken on
    trust, so one CRC-valid frame naming ``node00#<huge>`` retires the
    live ``node00#0`` and its real traffic becomes stale drops until
    node00 restarts past the forged epoch or this receiver restarts
    (ROADMAP item 4: a bound against forged well-formed names)."""
    bus, _tracer, inbox = make_bus()
    pub = bus.client("node00", "pub")
    pub.publish("t.tick", {"n": 1})
    bus.run_for(0.1)
    forged = "node00#999"
    evil_socket(bus).sendto(
        encode_packet(Packet(PacketKind.HEARTBEAT, forged, last_seq=0,
                             session_start=0.0)), "node01", DAEMON_PORT)
    bus.run_for(0.1)
    daemon = bus.daemons["node01"]
    assert list(daemon.peers) == [forged]
    pub.publish("t.tick", {"n": 2})
    bus.run_for(1.0)
    assert [n for _, _, n in inbox] == [1]
    assert counter(daemon, "stale_sessions") >= 1
    assert list(daemon.peers) == [forged]
    assert len(recv_rows(daemon)) == len(SessionStats._FIELDS)
    # node02 never saw the forgery and is unaffected
    assert list(bus.daemons["node02"].peers) == ["node00#0"]


ILL_SHAPED = ["", "evil", "evil#", "#0", "evil#x", "evil#-1", "evil#0~",
              "evil#0~x", "evil#1#2", "evil#0 ", "evil#" + "9" * 5000,
              "evil#0~" + "9" * 5000]


@pytest.mark.parametrize("session", ILL_SHAPED,
                         ids=lambda session: repr(session[:12]))
def test_an_ill_shaped_session_name_is_a_counted_drop(session):
    """CRC-valid frames whose session is not ``<host>#<epoch>[~<plane>]``:
    a DATA frame encoded with no table and one encoded against a
    session table (both first heard by the codec), and a HEARTBEAT
    (first heard by the reliable receiver)."""
    bus, tracer, inbox = make_bus()
    socket = evil_socket(bus)
    frames = [
        encode_packet(Packet(PacketKind.DATA, session,
                             [envelope(session, 1)], session_start=0.0)),
        encode_packet(Packet(PacketKind.DATA, session,
                             [envelope(session, 2)], session_start=0.0),
                      StringTable()),
        encode_packet(Packet(PacketKind.HEARTBEAT, session, last_seq=5,
                             session_start=0.0)),
    ]
    for count, frame in enumerate(frames, start=1):
        socket.broadcast(frame, DAEMON_PORT)
        bus.run_for(1.0)            # an exception would surface here
        for address in ("node01", "node02"):
            daemon = bus.daemons[address]
            assert counter(daemon, "bad_sessions") == count
            assert not daemon.peers and not recv_rows(daemon)
            assert counter(daemon, "corrupt_dropped") == 0
    assert not inbox and not tracer.count("nack")


def test_the_stat_port_keeps_no_session_state():
    """Telemetry frames bypass the reliable protocol: whatever their
    session is called they are delivered, and no record is made."""
    bus, _tracer, _inbox = make_bus()
    socket = evil_socket(bus)
    seen = []
    bus.client("node01", "browser").subscribe(
        "_bus.stat.>", lambda subject, obj, info: seen.append(obj))
    for n, session in enumerate(["evil", "evil#0"]):
        stat = Envelope(subject="_bus.stat.evil.daemon", sender=session,
                        session=session, seq=0, payload=encode(n))
        socket.broadcast(
            encode_packet(Packet(PacketKind.DATA, session, [stat])),
            STAT_PORT)
        bus.run_for(0.01)
    assert seen == [0, 1]
    assert not bus.daemons["node01"].peers
    assert counter(bus.daemons["node01"], "bad_sessions") == 0


def test_the_stat_port_never_takes_the_guaranteed_path():
    """Telemetry is never sent guaranteed: a stat frame carrying a
    ledger id is dropped, so it neither acks nor consumes the durable
    dedupe entry of the real guaranteed message with that id."""
    bus, _tracer, _inbox = make_bus()
    seen = []
    bus.client("node01", "browser").subscribe(
        "_bus.stat.>", lambda subject, obj, info: seen.append(obj),
        durable=True)
    socket = evil_socket(bus)
    for port, seq in ((STAT_PORT, 0), (DAEMON_PORT, 1)):
        forged = Envelope(subject="_bus.stat.evil.daemon", sender="evil",
                          session="evil#0", seq=seq, payload=encode(port),
                          qos=QoS.GUARANTEED, ledger_id="evil/1")
        socket.broadcast(encode_packet(Packet(
            PacketKind.DATA, "evil#0", [forged], session_start=0.0)), port)
        bus.run_for(0.1)
    assert seen == [DAEMON_PORT]
    assert bus.daemons["node01"].acks_sent == 1


def test_reading_never_makes_a_record():
    """``daemon.peers`` is a mapping of what was heard: asking it about
    anything else answers ``None`` / ``KeyError`` and allocates nothing
    (the retired ``reliable_stats(s)`` made a session and seven
    instruments for any string)."""
    bus, _tracer, _inbox = make_bus()
    bus.client("node00", "pub").publish("t.tick", {"n": 1})
    bus.run_for(0.1)
    daemon = bus.daemons["node01"]
    rows = len(daemon.metrics)
    assert daemon.peers["node00#0"].stats.delivered.value == 1
    assert daemon.peers.get("node09#0") is None
    assert "node00#7" not in daemon.peers
    with pytest.raises(KeyError):
        daemon.peers["node00#7"]
    assert daemon.type_resolver("node09#0") is None
    assert list(daemon.peers) == ["node00#0"] and len(daemon.metrics) == rows


def test_a_data_frame_naming_seq_0_is_refused():
    """Sessions start at seq 1, and seq 0 marks telemetry, which only a
    stat port carries.  A CRC-valid DATA frame naming seq 0 on a data
    port is corrupt: counted once in ``corrupt_dropped``, delivered to
    nobody, and no record is made for its session — also when the frame
    memo already holds the frame's parse from a stat port, which reads
    seq 0 as telemetry."""
    bus, _tracer, _inbox = make_bus()
    got = []
    bus.client("node01", "ab").subscribe(
        "a.b", lambda subject, obj, info: got.append(info.seq))
    bus.run_for(1.0)
    bus.crash_host("node01")
    bus.recover_host("node01")
    socket = evil_socket(bus)
    fresh, memoized = (encode_packet(Packet(
        PacketKind.DATA, session, [envelope(session, 0, "a.b")],
        session_start=0.0)) for session in ("node09#0", "node08#0"))
    socket.sendto(fresh, "node01", DAEMON_PORT)
    socket.sendto(memoized, "node02", STAT_PORT)    # parsed as telemetry
    bus.run_for(0.1)
    socket.sendto(memoized, "node01", DAEMON_PORT)
    bus.run_for(1.0)
    daemon = bus.daemons["node01"]
    assert got == []
    assert daemon.corrupt_dropped == 2
    assert daemon.delivered == 0
    assert "node09#0" not in daemon.peers and "node08#0" not in daemon.peers
    assert recv_rows(daemon) == []


def test_a_publish_time_after_the_delivery_is_not_a_latency():
    """A publish time is its sender's word.  One CRC-valid DATA frame
    stamped far in the future is still delivered, but its "latency" is
    not observed (it would be about -1e9 s): it counts once in the
    client's ``latency.refused`` instead."""
    bus = InformationBus(seed=3, cost=CostModel.ideal())
    bus.add_hosts(2)
    got = []
    client = bus.client("node01", "mon")
    client.subscribe("a.b", lambda subject, obj, info: got.append(info.seq))
    forged = Envelope(subject="a.b", sender="evil.app", session="evil#0",
                      seq=1, payload=encode({"n": 1}), publish_time=1e9)
    evil_socket(bus).broadcast(encode_packet(Packet(
        PacketKind.DATA, "evil#0", [forged], session_start=0.0)),
        DAEMON_PORT)
    bus.run_for(1.0)
    assert got == [1]
    metrics = bus.daemons["node01"].metrics
    assert metrics.get("client.mon.latency").count == 0
    assert metrics.get("client.mon.latency.refused").value == 1


def test_the_stat_port_delivers_only_telemetry():
    """Only unsequenced ``_bus.stat.*`` envelopes ride a stat port: a
    forged stat-port frame carrying an ordinary subject, at seq 0 or at
    seq 5, reaches no subscriber and no counter, like a corrupt stat
    frame, and makes no record."""
    bus, _tracer, _inbox = make_bus()
    got = []
    bus.client("node01", "ab").subscribe(
        "a.b", lambda subject, obj, info: got.append(info.seq))
    socket = evil_socket(bus)
    for seq in (0, 5):
        socket.sendto(encode_packet(Packet(
            PacketKind.DATA, "node09#0", [envelope("node09#0", seq, "a.b")],
            session_start=0.0)), "node01", STAT_PORT)
        bus.run_for(0.1)
    daemon = bus.daemons["node01"]
    assert got == []
    assert daemon.delivered == 0 and daemon.corrupt_dropped == 0
    assert "node09#0" not in daemon.peers
