"""End-to-end pub/sub tests on the simulated bus (Figure 1's model)."""

import pytest

from repro.core import BusDownError, InformationBus
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel


def make_bus(n=3, **kwargs):
    bus = InformationBus(seed=1, cost=CostModel.ideal(), **kwargs)
    bus.add_hosts(n)
    return bus


def collector():
    received = []

    def on_message(subject, obj, info):
        received.append((subject, obj, info))

    return received, on_message


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string")]))
    return reg


def test_publish_subscribe_roundtrip():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received, on_message = collector()
    sub = bus.client("node01", "monitor")
    sub.subscribe("news.equity.*", on_message)
    story = DataObject(reg, "story", headline="Chips up")
    pub.publish("news.equity.gmc", story)
    bus.settle()
    assert len(received) == 1
    subject, obj, info = received[0]
    assert subject == "news.equity.gmc"
    assert obj == story                      # structural equality
    assert obj.get("headline") == "Chips up"
    assert info.sender == "node00.feed"
    assert info.latency > 0


def test_receiver_learns_types_dynamically():
    """The subscriber has a bare registry; inline metadata teaches it."""
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received, on_message = collector()
    sub = bus.client("node01", "monitor")   # fresh standard registry
    sub.subscribe(">", on_message)
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="X"))
    bus.settle()
    assert sub.registry.has("story")
    assert received[0][1].attribute_type("headline") == "string"


def test_without_inline_types_unknown_type_is_counted():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received, on_message = collector()
    sub = bus.client("node01", "monitor")
    sub.subscribe(">", on_message)
    pub.publish("news.x", DataObject(reg, "story", headline="X"),
                inline_types=False)
    bus.settle()
    assert received == []
    assert sub.decode_errors == 1


def test_anonymous_many_to_many():
    bus = make_bus(4)
    reg = story_registry()
    pubs = [bus.client(f"node0{i}", f"feed{i}", registry=reg)
            for i in (0, 1)]
    boxes = []
    for i in (2, 3):
        received, on_message = collector()
        bus.client(f"node0{i}", f"mon{i}").subscribe("news.>", on_message)
        boxes.append(received)
    for pub in pubs:
        pub.publish("news.equity.gmc",
                    DataObject(reg, "story", headline=pub.name))
    bus.settle()
    for received in boxes:
        assert len(received) == 2
        assert {o.get("headline") for _, o, _ in received} == \
            {"feed0", "feed1"}


def test_same_host_subscriber_receives_local_publish():
    bus = make_bus(1)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received, on_message = collector()
    bus.client("node00", "monitor").subscribe("local.>", on_message)
    pub.publish("local.topic.a", DataObject(reg, "story", headline="X"))
    bus.settle()
    assert len(received) == 1


def test_publisher_does_not_receive_unsubscribed_subjects():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received, on_message = collector()
    sub = bus.client("node01", "monitor")
    sub.subscribe("other.subject", on_message)
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="X"))
    bus.settle()
    assert received == []


def test_fifo_order_per_sender():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received, on_message = collector()
    bus.client("node01", "monitor").subscribe("seq.>", on_message)
    for i in range(50):
        pub.publish("seq.test", DataObject(reg, "story", headline=f"{i:03d}"))
    bus.settle()
    headlines = [o.get("headline") for _, o, _ in received]
    assert headlines == [f"{i:03d}" for i in range(50)]


def test_new_subscriber_gets_only_new_messages():
    """P4: 'A new subscriber ... will start receiving immediately new
    objects' — but not history."""
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    pub.publish("live.a", DataObject(reg, "story", headline="old"))
    bus.settle()
    received, on_message = collector()
    bus.client("node01", "late_monitor").subscribe("live.>", on_message)
    bus.run_for(1.0)   # heartbeats from the old traffic arrive meanwhile
    pub.publish("live.a", DataObject(reg, "story", headline="new"))
    bus.settle()
    assert [o.get("headline") for _, o, _ in received] == ["new"]


def test_new_publisher_reaches_existing_subscribers():
    bus = make_bus()
    received, on_message = collector()
    bus.client("node01", "monitor").subscribe("evt.>", on_message)
    bus.run_for(0.5)
    reg = story_registry()
    late_pub = bus.client("node02", "late_feed", registry=reg)
    late_pub.publish("evt.x", DataObject(reg, "story", headline="hello"))
    bus.settle()
    assert len(received) == 1


def test_unsubscribe_stops_delivery():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received, on_message = collector()
    sub_client = bus.client("node01", "monitor")
    subscription = sub_client.subscribe("x.y", on_message)
    pub.publish("x.y", DataObject(reg, "story", headline="1"))
    bus.settle()
    sub_client.unsubscribe(subscription)
    pub.publish("x.y", DataObject(reg, "story", headline="2"))
    bus.settle()
    assert len(received) == 1
    sub_client.unsubscribe(subscription)   # idempotent


def test_overlapping_subscriptions_fire_separately():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    client = bus.client("node01", "monitor")
    hits = []
    client.subscribe("news.>", lambda s, o, i: hits.append("wild"))
    client.subscribe("news.equity.gmc", lambda s, o, i: hits.append("exact"))
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="X"))
    bus.settle()
    assert sorted(hits) == ["exact", "wild"]
    # one message counted once per client even with two matching patterns
    assert client.messages_received == 1


def test_publish_on_downed_host_raises():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    bus.crash_host("node00")
    with pytest.raises(BusDownError):
        pub.publish("a.b", DataObject(reg, "story", headline="X"))


def test_bad_subject_rejected_at_publish():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    with pytest.raises(Exception):
        pub.publish("news.*", DataObject(reg, "story", headline="X"))


def test_scalar_payloads_work():
    """The bus moves any marshallable value, not just DataObjects."""
    bus = make_bus()
    pub = bus.client("node00", "sensor")
    received, on_message = collector()
    bus.client("node01", "logger").subscribe("temp.>", on_message)
    pub.publish("temp.litho8", {"celsius": 21.5, "ok": True})
    bus.settle()
    assert received[0][1] == {"celsius": 21.5, "ok": True}


def test_client_close_detaches():
    bus = make_bus()
    client = bus.client("node01", "monitor")
    client.subscribe("a.b", lambda *a: None)
    client.close()
    assert bus.daemon("node01").subscription_count() == 0
    assert "monitor" not in bus.daemon("node01").clients


def test_bus_facade_helpers():
    bus = make_bus(3)
    assert len(bus.hosts()) == 3
    assert bus.host("node00").address == "node00"
    assert bus.daemon("node01").up
    with pytest.raises(KeyError):
        bus.client("ghost-host", "app")
    bus.partition({"node00"})
    assert bus.lan.partitioned()
    bus.heal()
    assert not bus.lan.partitioned()


def test_run_until_idle_after_shutdown():
    """The simulator drains once every periodic source is stopped."""
    bus = make_bus(1)
    daemon = bus.daemon("node00")
    daemon._heartbeat.stop()
    daemon._gpub.shutdown()
    bus.sim.run()
    assert bus.sim.pending() == 0
