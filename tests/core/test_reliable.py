"""Delivery-semantics tests under loss, duplication, crashes, partitions.

Section 2's failure model: the network "may lose, delay, and duplicate
messages, or deliver messages out of order"; nodes are fail-stop and
eventually recover.  Section 3.1 defines what reliable delivery must do
in each case.
"""

import time

from repro.core import (DAEMON_PORT, BusConfig, InformationBus, Packet,
                        PacketKind, ReliableConfig, decode_packet,
                        encode_packet)
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel
from repro.sim.transport import DatagramSocket


def lossy_cost(loss=0.05, dup=0.0, jitter=0.0):
    cost = CostModel.ideal()
    cost.loss_probability = loss
    cost.duplicate_probability = dup
    cost.reorder_jitter = jitter
    return cost


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("n", "int")]))
    return reg


def run_stream(bus, count=200, subject="rel.test"):
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "rel.>", lambda s, o, i: received.append(o.get("n")))
    for i in range(count):
        pub.publish(subject, DataObject(reg, "story", n=i))
    bus.settle(5.0)
    return received


def test_exactly_once_in_order_under_loss():
    bus = InformationBus(seed=7, cost=lossy_cost(loss=0.05))
    bus.add_hosts(3)
    received = run_stream(bus, 200)
    assert received == list(range(200))   # every message, once, in order


def test_exactly_once_under_duplication():
    bus = InformationBus(seed=8, cost=lossy_cost(loss=0.0, dup=0.3))
    bus.add_hosts(3)
    received = run_stream(bus, 100)
    assert received == list(range(100))


def test_in_order_under_reordering():
    bus = InformationBus(seed=9, cost=lossy_cost(loss=0.02, jitter=0.004))
    bus.add_hosts(3)
    received = run_stream(bus, 150)
    assert received == list(range(150))


def test_loss_of_final_message_repaired_via_heartbeat():
    """Without heartbeats a lost *last* message would never be NACKed."""
    cost = CostModel.ideal()
    bus = InformationBus(seed=3, cost=cost)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "hb.>", lambda s, o, i: received.append(o.get("n")))
    pub.publish("hb.x", DataObject(reg, "story", n=0))
    bus.settle(1.0)
    # force-drop exactly the next publication
    cost.loss_probability = 1.0
    pub.publish("hb.x", DataObject(reg, "story", n=1))
    bus.run_for(0.01)
    cost.loss_probability = 0.0
    bus.run_for(3.0)   # heartbeat reveals the gap; NACK repairs it
    assert received == [0, 1]


def test_at_most_once_when_sender_crashes():
    """A crashed sender cannot repair; receivers skip the gap (no dupes,
    no stall)."""
    cost = CostModel.ideal()
    bus = InformationBus(seed=4, cost=cost)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "crash.>", lambda s, o, i: received.append(o.get("n")))
    pub.publish("crash.x", DataObject(reg, "story", n=0))
    bus.settle(0.5)
    cost.loss_probability = 1.0     # message 1 vanishes
    pub.publish("crash.x", DataObject(reg, "story", n=1))
    bus.run_for(0.001)
    cost.loss_probability = 0.0
    pub.publish("crash.x", DataObject(reg, "story", n=2))   # creates the gap
    bus.run_for(0.001)
    bus.crash_host("node00")        # sender gone; NACKs go unanswered
    bus.run_for(10.0)
    assert received == [0, 2]       # 1 lost: at-most-once, order preserved
    stats = bus.daemon("node01").peers["node00#0"].stats
    assert stats.gaps_skipped.value == 1
    assert stats.messages_lost.value == 1


def test_sender_recovery_starts_fresh_session():
    bus = InformationBus(seed=5, cost=CostModel.ideal())
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "sess.>", lambda s, o, i: received.append((i.session, o.get("n"))))
    pub.publish("sess.x", DataObject(reg, "story", n=0))
    bus.settle(0.5)
    bus.crash_host("node00")
    bus.run_for(0.5)
    bus.recover_host("node00")
    pub.publish("sess.x", DataObject(reg, "story", n=1))
    bus.settle(0.5)
    sessions = [s for s, _ in received]
    assert sessions == ["node00#0", "node00#1"]
    assert [n for _, n in received] == [0, 1]


def test_receiver_crash_loses_messages_not_order():
    bus = InformationBus(seed=6, cost=CostModel.ideal())
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    mon = bus.client("node01", "mon")
    mon.subscribe("rx.>", lambda s, o, i: received.append(o.get("n")))
    pub.publish("rx.x", DataObject(reg, "story", n=0))
    bus.settle(0.5)
    bus.crash_host("node01")
    pub.publish("rx.x", DataObject(reg, "story", n=1))   # while down
    bus.settle(0.5)
    bus.recover_host("node01")   # clients re-attach their subscriptions
    pub.publish("rx.x", DataObject(reg, "story", n=2))
    bus.settle(0.5)
    assert received == [0, 2]    # missed 1 while down; at-most-once


def test_partition_and_heal():
    bus = InformationBus(seed=10, cost=lossy_cost(loss=0.01))
    bus.add_hosts(3)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "part.>", lambda s, o, i: received.append(o.get("n")))
    pub.publish("part.x", DataObject(reg, "story", n=0))
    bus.settle(1.0)
    bus.partition({"node00"}, {"node01", "node02"})
    pub.publish("part.x", DataObject(reg, "story", n=1))
    bus.settle(1.0)
    assert received == [0]
    bus.heal()
    bus.run_for(3.0)
    # short partition: retention still holds message 1; heartbeat-triggered
    # NACK repairs it after healing — "if ... the network does not suffer
    # a long-term partition ... exactly once"
    pub.publish("part.x", DataObject(reg, "story", n=2))
    bus.settle(3.0)
    assert received == [0, 1, 2]


def test_long_partition_degrades_to_at_most_once():
    config = BusConfig()
    config.reliable.retention = 4   # tiny retention: long partitions lose
    bus = InformationBus(seed=11, cost=CostModel.ideal(), config=config)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "lp.>", lambda s, o, i: received.append(o.get("n")))
    pub.publish("lp.x", DataObject(reg, "story", n=0))
    bus.settle(1.0)
    bus.partition({"node00"}, {"node01"})
    for n in range(1, 11):   # 10 messages vanish beyond retention
        pub.publish("lp.x", DataObject(reg, "story", n=n))
    bus.settle(1.0)
    bus.heal()
    pub.publish("lp.x", DataObject(reg, "story", n=11))
    bus.settle(15.0)   # enough for the receiver to exhaust NACK patience
    assert received[0] == 0
    assert received[-1] == 11
    assert len(received) < 12            # something was lost
    assert received == sorted(received)  # but order never violated


def test_retransmission_marked_in_info():
    cost = CostModel.ideal()
    bus = InformationBus(seed=12, cost=cost)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    infos = []
    bus.client("node01", "mon").subscribe(
        "rt.>", lambda s, o, i: infos.append(i))
    pub.publish("rt.x", DataObject(reg, "story", n=0))
    bus.settle(0.5)
    cost.loss_probability = 1.0
    pub.publish("rt.x", DataObject(reg, "story", n=1))
    bus.run_for(0.001)
    cost.loss_probability = 0.0
    pub.publish("rt.x", DataObject(reg, "story", n=2))
    bus.settle(3.0)
    assert [i.seq for i in infos] == [1, 2, 3]
    assert infos[1].retransmitted            # repaired via NACK
    assert bus.daemon("node00").sender_retransmissions() >= 1


def test_loss_of_first_message_is_recovered():
    """The very first message of a session drops on the wire; receivers
    that predate the session must repair it (exactly-once under normal
    operation), not misread it as pre-join history."""
    cost = CostModel.ideal()
    bus = InformationBus(seed=13, cost=cost)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "head.>", lambda s, o, i: received.append(o.get("n")))
    bus.run_for(0.1)
    cost.loss_probability = 1.0     # the session's first message vanishes
    pub.publish("head.x", DataObject(reg, "story", n=0))
    bus.run_for(0.001)
    cost.loss_probability = 0.0
    pub.publish("head.x", DataObject(reg, "story", n=1))
    bus.settle(3.0)
    assert received == [0, 1]


def test_late_joining_daemon_does_not_replay_history():
    """A host added after traffic started baselines at current seq: a
    'new subscriber' there sees only new objects."""
    bus = InformationBus(seed=14, cost=CostModel.ideal())
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    pub.publish("late.x", DataObject(reg, "story", n=0))
    bus.settle(1.0)
    bus.add_host("latecomer")      # daemon born after the session
    received = []
    bus.client("latecomer", "mon").subscribe(
        "late.>", lambda s, o, i: received.append(o.get("n")))
    bus.run_for(1.0)
    pub.publish("late.x", DataObject(reg, "story", n=1))
    bus.settle(2.0)
    assert received == [1]


def test_time_retention_turns_old_gaps_into_loss():
    """A message lost on the wire is gone once newer traffic rolls it
    out of the sender's count-bounded retention before the receiver
    asks — at-most-once, by policy."""
    config = BusConfig()
    config.reliable.retention = 1
    config.reliable.nack_max = 3
    cost = CostModel.ideal()
    bus = InformationBus(seed=21, cost=cost, config=config)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "tr.>", lambda s, o, i: received.append(o.get("n")))
    pub.publish("tr.x", DataObject(reg, "story", n=0))
    bus.settle(1.0)
    cost.loss_probability = 1.0
    pub.publish("tr.x", DataObject(reg, "story", n=1))
    bus.run_for(0.001)
    cost.loss_probability = 0.0
    pub.publish("tr.x", DataObject(reg, "story", n=2))
    bus.settle(10.0)
    assert received == [0, 2]     # 2 rolled 1 out of retention
    stats = bus.daemon("node01").peers["node00#0"].stats
    # the sender answered that 1 is gone: unrecoverable, not lost
    assert (stats.unrecoverable.value, stats.messages_lost.value) == (1, 0)


def test_a_forged_nack_for_a_vast_range_is_served_from_retention_only():
    """A NACK's range comes off the wire.  One naming ``(1, 2**62)``,
    sent from a host with no daemon, costs the sender its retained
    window and no more: it is served at once, and re-sends only the
    seqs retention still holds."""
    config = BusConfig()
    config.reliable.retention = 4
    bus = InformationBus(seed=3, cost=CostModel.ideal(), config=config)
    bus.add_hosts(2)
    pub = bus.client("node00", "feed")
    for n in range(10):
        pub.publish("rel.x", {"n": n})
    bus.settle(1.0)
    sender = bus.daemon("node00")
    before = sender.sender_retransmissions()
    repairs = []
    forger = DatagramSocket(
        bus.sim, bus.lan.add_host("evil"), DAEMON_PORT,
        lambda data, size, src: repairs.append(decode_packet(data)))
    nack = Packet(PacketKind.NACK, sender.session, nack_range=(1, 2**62))
    forger.sendto(encode_packet(nack), "node00", DAEMON_PORT)
    started = time.perf_counter()
    bus.run_for(0.1)
    assert time.perf_counter() - started < 1.0
    assert sender.sender_retransmissions() - before == 4
    (repair,) = [packet for packet in repairs
                 if packet.kind is PacketKind.RETRANS]
    assert [envelope.seq for envelope in repair.envelopes] == [7, 8, 9, 10]
    assert repair.last_seq == 6         # and every seq up to 6 is gone


def burst_past_retention():
    """3 hosts; node00 publishes 400 marshalled 190-character strings in
    one burst at 3% loss, with retention 32, so some lost seqs have left
    retention before their NACK arrives (at this seed, one run of six at
    each receiver).  Per receiver: its arrival times and seqs, and the
    stats of node00's session."""
    cost = CostModel()
    cost.loss_probability = 0.03
    bus = InformationBus(seed=43, cost=cost, config=BusConfig(
        reliable=ReliableConfig(retention=32)))
    bus.add_hosts(3)
    got = {"node01": [], "node02": []}
    for host, arrivals in got.items():
        bus.client(host, "mon").subscribe(
            "burst.>", lambda s, p, info, arrivals=arrivals:
            arrivals.append((bus.sim.now, info.seq)))
    pub = bus.client("node00", "pub")
    bus.run_for(1.0)
    start = bus.sim.now
    for n in range(400):
        pub.publish("burst.x", "%0190d" % n)
    bus.run_for(20.0)
    session = bus.daemons["node00"].session
    return start, [(arrivals, bus.daemons[host].peers[session].stats)
                   for host, arrivals in got.items()]


def test_a_nack_past_retention_is_answered_at_once():
    """A NACK for seqs retention rolled past gets an answer saying they
    are gone: the receiver books them as unrecoverable after one NACK
    per gap, instead of NACKing ``nack_max`` times and then booking them
    as lost while every later seq waits in its reorder buffer (seconds
    after the burst)."""
    start, receivers = burst_past_retention()
    for arrivals, stats in receivers:
        seqs = [seq for _, seq in arrivals]
        assert seqs == sorted(seqs) and len(seqs) == 394
        missing = sorted(set(range(1, 401)) - set(seqs))
        assert missing == list(range(missing[0], missing[0] + 6))
        assert stats.unrecoverable.value == 6
        assert stats.messages_lost.value == 0
        assert stats.gaps_skipped.value == 0
        assert max(at for at, _ in arrivals) - start <= 0.35
    # one NACK per gap: the run retention had rolled past, and at
    # node01 a lost seq that retention still held
    assert [stats.nacks_sent.value for _, stats in receivers] == [2, 1]


def test_a_gone_answer_nobody_asked_for_changes_nothing():
    """A CRC-valid RETRANS saying seqs are gone is honoured only while
    the receiver is NACKing that session.  Forged at a receiver with no
    gap, or with a gap it has not NACKed yet, it skips nothing: the gap
    is repaired and the stream arrives whole and in order."""
    cost = CostModel.ideal()
    bus = InformationBus(seed=3, cost=cost)
    bus.add_hosts(2)
    received = []
    bus.client("node01", "mon").subscribe(
        "rel.>", lambda s, o, i: received.append(o))
    pub = bus.client("node00", "feed")
    sender = bus.daemon("node00")
    forged = encode_packet(Packet(PacketKind.RETRANS, sender.session,
                                  last_seq=10**6,
                                  session_start=sender.session_started))
    forger = DatagramSocket(bus.sim, bus.lan.add_host("evil"), DAEMON_PORT,
                            lambda data, size, src: None)
    for n in range(3):
        pub.publish("rel.x", n)
    bus.settle(1.0)
    stats = bus.daemon("node01").peers[sender.session].stats
    forger.sendto(forged, "node01", DAEMON_PORT)        # no gap
    bus.settle(1.0)
    cost.loss_probability = 1.0
    pub.publish("rel.x", 3)                             # lost: a gap
    bus.run_for(0.001)
    cost.loss_probability = 0.0
    pub.publish("rel.x", 4)
    bus.run_for(0.001)
    assert stats.buffered.value == 1 and stats.nacks_sent.value == 0
    forger.sendto(forged, "node01", DAEMON_PORT)        # gap, no NACK yet
    bus.settle(1.0)
    assert received == list(range(5))
    assert stats.unrecoverable.value == 0
    assert stats.nacks_sent.value == 1
