"""Guaranteed-delivery tests: at-least-once across crashes, stable dedupe.

"Guaranteed delivery is particularly useful when sending data to a
database over an unreliable network" — so these scenarios model a
publisher feeding a durable consumer (the Object Repository pattern).
"""

from io import BytesIO

import pytest

from repro.core import (BusConfig, DAEMON_PORT, FlowConfig, InformationBus,
                        Packet, PacketKind, QoS, encode_packet)
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel
from repro.sim.framing import frame, write_f64, write_str, write_varint
from repro.sim.transport import DatagramSocket


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "record", attributes=[AttributeSpec("n", "int")]))
    return reg


def setup(seed=1, cost=None, config=None, hosts=3):
    bus = InformationBus(seed=seed, cost=cost or CostModel.ideal(),
                         config=config)
    bus.add_hosts(hosts)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    consumer = bus.client("node01", "db")
    consumer.subscribe("gd.>", lambda s, o, i: received.append(o.get("n")),
                       durable=True)
    return bus, reg, pub, consumer, received


def test_guaranteed_exactly_once_without_failures():
    bus, reg, pub, consumer, received = setup()
    for n in range(20):
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
    bus.settle(3.0)
    assert received == list(range(20))
    assert bus.daemon("node00").guaranteed_pending() == []


def test_ledger_ids_stay_out_of_the_string_table():
    """Each guaranteed publish has a ledger id of its own.  It rides its
    envelope as a plain string, so neither the sender's session table
    nor what a receiver learns of it grows with the publishes: both
    hold the distinct subjects, senders and hops, here one of each."""
    bus, reg, pub, consumer, received = setup()
    for n in range(300):
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
    bus.settle(5.0)
    assert received == list(range(300))
    sent = ["gd.data", "node00.feed"]
    assert bus.daemon("node00")._wire_table.strings == sent
    for address in ("node01", "node02"):
        learned = bus.daemon(address).peers.get("node00#0").strings
        assert sorted(learned.values()) == sent


def test_message_logged_before_send():
    bus, reg, pub, consumer, received = setup()
    pub.publish("gd.data", DataObject(reg, "record", n=0),
                qos=QoS.GUARANTEED)
    # inspect stable storage at the instant of publish, before any settle
    ledger = bus.host("node00").stable.get("gd.ledger")
    assert len(ledger) == 1
    assert ledger[0]["subject"] == "gd.data"
    assert ledger[0]["acks"] == []


def test_retransmits_until_consumer_ack():
    """Consumer is partitioned away; publisher keeps retrying; delivery
    happens after healing — at-least-once regardless of failures."""
    bus, reg, pub, consumer, received = setup(seed=2)
    bus.partition({"node00"}, {"node01", "node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=7),
                qos=QoS.GUARANTEED)
    bus.settle(3.0)
    assert received == []
    assert len(bus.daemon("node00").guaranteed_pending()) == 1
    bus.heal()
    bus.settle(5.0)
    assert received == [7]
    assert bus.daemon("node00").guaranteed_pending() == []


def test_publisher_crash_resumes_retransmission_from_ledger():
    bus, reg, pub, consumer, received = setup(seed=3)
    bus.partition({"node00"}, {"node01", "node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=1),
                qos=QoS.GUARANTEED)
    bus.settle(1.0)
    bus.crash_host("node00")
    bus.heal()
    bus.run_for(1.0)
    assert received == []
    bus.recover_host("node00")     # ledger reloaded from stable storage
    bus.settle(5.0)
    assert received == [1]


def test_consumer_crash_no_duplicate_after_recovery():
    """The consumer acks, crashes, and the (lost) ack is retried; stable
    dedupe prevents a second application delivery."""
    bus, reg, pub, consumer, received = setup(seed=4)
    pub.publish("gd.data", DataObject(reg, "record", n=5),
                qos=QoS.GUARANTEED)
    bus.settle(2.0)
    assert received == [5]
    bus.crash_host("node01")
    bus.run_for(0.5)
    bus.recover_host("node01")
    bus.settle(5.0)
    assert received == [5]   # no redelivery: ledger id durably seen


def test_non_durable_subscribers_see_guaranteed_messages_once():
    bus, reg, pub, consumer, received = setup(seed=5)
    observer = []
    bus.client("node02", "watcher").subscribe(
        "gd.>", lambda s, o, i: observer.append(o.get("n")))
    bus.partition({"node00"}, {"node01"})   # delay the durable ack path
    pub.publish("gd.data", DataObject(reg, "record", n=3),
                qos=QoS.GUARANTEED)
    bus.settle(2.0)   # several republishes happen; node02 sees them all
    bus.heal()
    bus.settle(5.0)
    assert observer == [3]   # volatile ledger dedupe filtered republishes
    assert received == [3]


def test_ack_quorum_two_consumers():
    """With a quorum of two and one of two durable consumers cut off,
    the entry stays in the ledger with the one ack it has, durably;
    the second ack retires it.  Both consumers store the message once."""
    config = BusConfig()
    config.ack_quorum = 2
    bus = InformationBus(seed=6, cost=CostModel.ideal(), config=config)
    bus.add_hosts(3)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    boxes = []
    for address in ("node01", "node02"):
        box = []
        bus.client(address, "db").subscribe(
            "gd.>", lambda s, o, i, box=box: box.append(o.get("n")),
            durable=True)
        boxes.append(box)
    bus.partition({"node00", "node01"}, {"node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=9),
                qos=QoS.GUARANTEED)
    bus.settle(3.0)
    assert boxes == [[9], []]
    publisher = bus.daemon("node00")
    assert [entry.acks for entry in publisher.guaranteed_pending()] == \
        [["node01"]]
    stable = bus.host("node00").stable
    assert [record["acks"] for record in stable.get("gd.ledger")] == \
        [["node01"]]
    bus.heal()
    bus.settle(3.0)
    assert boxes == [[9], [9]]      # node01 re-acked, did not redeliver
    assert publisher.guaranteed_pending() == []
    assert stable.get("gd.ledger") == []


def test_local_durable_consumer_acks_without_network():
    bus = InformationBus(seed=7, cost=CostModel.ideal())
    bus.add_hosts(1)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node00", "db").subscribe(
        "gd.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    pub.publish("gd.x", DataObject(reg, "record", n=1), qos=QoS.GUARANTEED)
    bus.settle(2.0)
    assert received == [1]
    assert bus.daemon("node00").guaranteed_pending() == []


def test_guaranteed_survives_lossy_network():
    cost = CostModel.ideal()
    cost.loss_probability = 0.2
    bus, reg, pub, consumer, received = setup(seed=8, cost=cost)
    for n in range(10):
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
    bus.settle(20.0)
    assert sorted(received) == list(range(10))
    assert bus.daemon("node00").guaranteed_pending() == []


# ----------------------------------------------------------------------
# the ledger is the unacknowledged set
# ----------------------------------------------------------------------

def watch_ledger_puts(monkeypatch, bus, address="node00"):
    """Record how many entries each ``put`` under ``gd.ledger`` carried,
    checking each against what was unacknowledged at that instant."""
    sizes = []
    stable = bus.host(address).stable
    real_put = stable.put

    def put(key, value):
        if key == "gd.ledger":
            assert len(value) == len(bus.daemon(address).guaranteed_pending())
            sizes.append(len(value))
        real_put(key, value)

    monkeypatch.setattr(stable, "put", put)
    return sizes


@pytest.mark.parametrize("crash_at", [None, 100], ids=["steady", "crash"])
def test_acknowledged_entries_leave_the_ledger(monkeypatch, crash_at):
    bus, reg, pub, consumer, received = setup(seed=9)
    sizes = watch_ledger_puts(monkeypatch, bus)
    for n in range(200):
        if n == crash_at:
            bus.crash_host("node00")
            bus.run_for(0.2)
            bus.recover_host("node00")   # reloads an empty ledger
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
        bus.run_for(0.05)
    bus.settle(3.0)
    assert received == list(range(200))
    assert bus.host("node00").stable.get("gd.ledger") == []
    assert bus.daemon("node00")._gpub._entries == {}
    assert len(sizes) == 400            # one write per record, one per ack
    assert max(sizes) <= 3              # what was in flight, never history


def test_ledger_holds_exactly_the_unacknowledged(monkeypatch):
    bus, reg, pub, consumer, received = setup(seed=10)
    sizes = watch_ledger_puts(monkeypatch, bus)
    bus.partition({"node00"}, {"node01", "node02"})
    for n in range(40):
        if n == 20:
            bus.heal()
            bus.settle(3.0)
            assert bus.host("node00").stable.get("gd.ledger") == []
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
        bus.run_for(0.05)
        if n == 19:
            ledger = bus.host("node00").stable.get("gd.ledger")
            assert len(ledger) == 20
            assert [record["ledger_id"] for record in ledger] == \
                [entry.ledger_id
                 for entry in bus.daemon("node00").guaranteed_pending()]
    bus.settle(3.0)
    assert sorted(received) == list(range(40))
    assert bus.host("node00").stable.get("gd.ledger") == []
    assert max(sizes) == 20


def test_seen_log_survives_consumer_crash():
    """A durable consumer that stored 51 messages, crashed and recovered
    re-acks a retransmission of the last one without redelivering it:
    its seen-set is rebuilt from the stable log.  (Holds at the parent
    of the change that introduced the log; it pins the reload.)"""
    bus, reg, pub, _consumer, _received = setup(seed=11)
    received = []

    def on_record(subject, obj, info):
        received.append(obj.get("n"))
        if obj.get("n") == 50:
            # the publisher dies before this delivery's ack reaches it
            bus.crash_host("node00")

    bus.client("node01", "audit").subscribe("gd.>", on_record, durable=True)
    for n in range(51):
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
        bus.run_for(0.05)
    assert received == list(range(51))
    consumer = bus.daemon("node01")
    acks_before = consumer.acks_sent
    bus.crash_host("node01")
    bus.run_for(0.2)
    bus.recover_host("node01")
    bus.recover_host("node00")          # entry 50 is still in its ledger
    assert len(bus.daemon("node00").guaranteed_pending()) == 1
    bus.settle(3.0)
    assert consumer.acks_sent > acks_before   # the retransmission: re-acked
    assert received == list(range(51))  # ... and not redelivered
    assert bus.daemon("node00").guaranteed_pending() == []


# ----------------------------------------------------------------------
# malformed ACKs confirm nothing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fields", [("ack_ledger_id",), ("ack_consumer",), ()],
                         ids=["no-consumer", "no-ledger-id", "neither"])
def test_malformed_ack_leaves_the_entry_pending(fields):
    """An ACK carries both its fields: one lacking either cannot be
    encoded, and a CRC-valid frame that leaves one out is a truncated
    frame, a counted corrupt drop that does not complete (or touch) the
    entry it names — and a well-formed one afterwards still does."""
    bus = InformationBus(seed=12, cost=CostModel.ideal())
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    pub.publish("gd.data", DataObject(reg, "record", n=1),
                qos=QoS.GUARANTEED)     # no durable subscriber anywhere
    publisher = bus.daemon("node00")
    stable = bus.host("node00").stable
    (entry,) = publisher.guaranteed_pending()
    well_formed = {"ack_ledger_id": entry.ledger_id, "ack_consumer": "node01"}
    partial = {name: well_formed[name] for name in fields}
    with pytest.raises(ValueError):
        encode_packet(Packet(PacketKind.ACK, "node01#0", **partial))
    rogue = DatagramSocket(bus.sim, bus.host("node01"), 99,
                           lambda *args: None)

    def send(data):
        rogue.sendto(data, "node00", DAEMON_PORT)
        bus.run_for(0.1)

    body = BytesIO()
    body.write(bytes((4, 0)))           # ACK, no flags
    write_str(body, "node01#0")
    write_f64(body, 0.0)
    write_varint(body, 0)
    for name in fields:
        write_str(body, partial[name])
    send(frame(body.getvalue()))
    assert publisher.corrupt_dropped == 1
    assert [e.acks for e in publisher.guaranteed_pending()] == [[]]
    assert [r["acks"] for r in stable.get("gd.ledger")] == [[]]
    send(encode_packet(Packet(PacketKind.ACK, "node01#0", **well_formed)))
    assert publisher.guaranteed_pending() == []
    assert stable.get("gd.ledger") == []


def test_a_full_delivery_lane_defers_guaranteed_and_sheds_none():
    """Guaranteed QoS is never shed: a durable subscriber slower than
    the publisher fills its delivery lane, each guaranteed envelope that
    finds it full is deferred whole (no dedupe consumed, no ack), and the
    publisher's ledger retransmits until every one is delivered once."""
    bus = InformationBus(seed=1, cost=CostModel.ideal(),
                         config=BusConfig(flow=FlowConfig(delivery_queue=4)))
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "db", service_time=0.01).subscribe(
        "gd.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    bus.run_for(1.0)
    for n in range(40):
        pub.publish("gd.data", DataObject(reg, "record", n=n),
                    qos=QoS.GUARANTEED)
    bus.run_for(30.0)
    consumer = bus.daemon("node01")
    snapshot = consumer.metrics.snapshot()
    assert snapshot["daemon.node01.guaranteed_deferred"]["value"] > 0
    assert sorted(received) == list(range(40))
    assert consumer.flow_stats()["deliver[db]"]["dropped"] == 0
    assert bus.daemon("node00").guaranteed_pending() == []
