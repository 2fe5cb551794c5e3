"""Header strings as session-table ids, end-to-end: fewer bytes, same
behaviour.

The daemon-level contract: DATA/RETRANS frames ride the wire with
string-table ids in place of repeated header strings — measurably fewer
bytes than a frame that must define them all — while every delivery
guarantee holds: exactly-once in-order delivery under
corruption, NACK repair, and late joiners who never saw the defining
frames (the unresolvable-id path: drop + NACK + self-contained RETRANS,
never an exception).
"""

from repro.core import (BusConfig, Envelope, InformationBus, Packet,
                        PacketKind, QoS, StringTable, encode_packet)
from repro.objects import encode
from repro.sim import CostModel

WIRE_SUBJECT = "market.feed.equity.gmc.tick"


def make_bus(seed=11, hosts=4, corrupt_rate=0.0, **cfg):
    bus = InformationBus(seed=seed, cost=CostModel.ideal(),
                         config=BusConfig(**cfg))
    bus.add_hosts(hosts)
    bus.lan.corrupt_rate = corrupt_rate
    return bus


def fanout_run(messages=300, seed=3):
    bus = make_bus(seed=seed)
    boxes = []
    for i in range(1, 4):
        box = []
        boxes.append(box)
        bus.client(f"node{i:02d}", "mon").subscribe(
            "market.>", lambda s, p, i, box=box: box.append(p["n"]))
    publisher = bus.client("node00", "pub")
    for n in range(messages):
        publisher.publish(WIRE_SUBJECT, {"n": n})
    bus.run_for(5.0)
    return bus, boxes


def test_compression_reduces_bytes_on_wire():
    """The steady-state DATA frame of the fan-out below, citing the ids
    its session's table holds, as the daemon sends it, vs the
    self-contained frame that defines them (no table given): repeated
    headers dwarf the small payload, so the ids must save at least
    25%."""
    def frame(seq, table):
        envelope = Envelope(subject=WIRE_SUBJECT, sender="node00.pub",
                            session="node00#0", seq=seq,
                            payload=encode({"n": seq}), publish_time=0.5)
        return encode_packet(Packet(PacketKind.DATA, "node00#0", [envelope],
                                    session_start=0.0), table)
    table = StringTable()
    frame(1, table)                             # defines the header strings
    assert len(frame(2, table)) < 0.75 * len(frame(2, None))
    # and end to end every consumer hears the whole stream in order
    _, boxes = fanout_run()
    assert all(box == list(range(300)) for box in boxes)


def test_wire_stats_reflect_mode():
    bus, _ = fanout_run(messages=10)
    stats = bus.daemons["node00"].metrics.snapshot()
    # the publisher interned
    assert stats["daemon.node00.wire.table_strings"]["value"] > 0
    consumer = bus.daemons["node01"].metrics.snapshot()
    # the consumer learned
    assert consumer["daemon.node01.wire.peer_strings"]["value"] > 0


def test_exactly_once_under_corruption():
    """The corrupt-rate NACK-repair guarantee."""
    bus = make_bus(seed=11, hosts=5, corrupt_rate=0.15)
    inboxes = {}
    for i in range(1, 5):
        box = []
        inboxes[f"node{i:02d}"] = box
        bus.client(f"node{i:02d}", "mon").subscribe(
            "feed.>", lambda s, p, i, box=box: box.append(p["n"]))
    publisher = bus.client("node00", "pub")
    for n in range(80):
        publisher.publish("feed.tick", {"n": n})
    bus.run_for(60.0)
    assert bus.lan.frames_corrupted > 0         # the fault was exercised
    assert sum(d.corrupt_dropped for d in bus.daemons.values()) > 0
    for address, box in inboxes.items():
        assert box == list(range(80)), f"{address} saw {len(box)}"


def test_guaranteed_delivery_under_corruption():
    bus = make_bus(seed=7, corrupt_rate=0.1)
    got = []
    bus.client("node02", "ledger").subscribe(
        "g.>", lambda s, p, i: got.append(p["n"]), durable=True)
    publisher = bus.client("node00", "pub")
    for n in range(20):
        publisher.publish("g.event", {"n": n}, qos=QoS.GUARANTEED)
    bus.run_for(60.0)
    assert sorted(got) == list(range(20))
    assert len(got) == len(set(got))
    assert bus.daemons["node00"].guaranteed_pending() == []


def test_late_joining_daemon_recovers_via_self_contained_retrans():
    """A daemon that joins mid-session hears frames whose header ids
    were defined in frames it never saw.  Those frames are unresolvable
    — dropped and counted, never raised to the app — and the armed NACK
    brings a RETRANS that defines everything it references, after which
    the joiner is fully caught up and stays in order."""
    bus = make_bus(seed=5, hosts=2)
    steady = []
    bus.client("node01", "mon").subscribe(
        "feed.>", lambda s, p, i: steady.append(p["n"]))
    publisher = bus.client("node00", "pub")
    late_box = []

    def join():
        bus.add_host("late00")
        bus.client("late00", "mon").subscribe(
            "feed.>", lambda s, p, i: late_box.append(p["n"]))

    # warm-up publishes carry the table definitions...
    for n in range(10):
        bus.sim.schedule(0.01 + n * 0.01, publisher.publish,
                         "feed.tick", {"n": n})
    bus.sim.schedule(0.5, join)
    # ...and everything after the join is reference-only on the wire
    for n in range(10, 30):
        bus.sim.schedule(0.6 + (n - 10) * 0.05, publisher.publish,
                         "feed.tick", {"n": n})
    bus.run_for(30.0)

    late = bus.daemons["late00"]
    assert late.unresolved_dropped > 0            # the path was exercised
    assert late.metrics.snapshot()[
        "daemon.late00.wire.unresolved_dropped"]["value"] == \
        late.unresolved_dropped
    assert steady == list(range(30))              # bystander unaffected
    # the joiner heard a contiguous, in-order, exactly-once suffix that
    # covers everything published after it joined
    assert late_box, "late joiner heard nothing"
    assert late_box == list(range(late_box[0], 30))
    assert late_box[0] <= 10


def test_unresolvable_is_repaired_not_raised():
    """Force the defining frame to be lost to one receiver only: that
    receiver NACKs and recovers from the self-contained repair."""
    bus = make_bus(seed=9, hosts=3, corrupt_rate=0.3)
    boxes = {}
    for i in (1, 2):
        box = []
        boxes[f"node{i:02d}"] = box
        bus.client(f"node{i:02d}", "mon").subscribe(
            "t.>", lambda s, p, i, box=box: box.append(p["n"]))
    publisher = bus.client("node00", "pub")
    # many distinct subjects: definitions keep flowing, so losing any
    # defining frame makes later references unresolvable somewhere
    for n in range(60):
        publisher.publish(f"t.subj{n % 7}", {"n": n})
    bus.run_for(60.0)
    for address, box in boxes.items():
        assert box == list(range(60)), f"{address} saw {len(box)}"
