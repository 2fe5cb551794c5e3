"""Daemon-level tests: tracing, counters, advertisement, edge cases."""

from repro.core import (ADVERT_SUBJECT, BusConfig, InformationBus, QoS,
                        validate_subject)
from repro.core.daemon import SOLICIT_SUBJECT_PREFIX, advert_digest
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Tracer
from tests.core.test_router import poll


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("n", "int")]))
    return reg


def test_tracer_records_publish_events():
    tracer = Tracer(enabled=True)
    bus = InformationBus(seed=1, cost=CostModel.ideal(), tracer=tracer)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    bus.client("node01", "mon").subscribe("t.>", lambda *a: None)
    pub.publish("t.x", DataObject(reg, "story", n=1))
    bus.settle(1.0)
    publishes = tracer.select("publish", subject="t.x")
    assert len(publishes) == 1
    assert publishes[0]["size"] > 0


def test_tracer_records_nack_and_retransmit():
    tracer = Tracer(enabled=True)
    cost = CostModel.ideal()
    bus = InformationBus(seed=2, cost=cost, tracer=tracer)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    bus.client("node01", "mon").subscribe("t.>", lambda *a: None)
    pub.publish("t.x", DataObject(reg, "story", n=0))
    bus.settle(0.5)
    cost.loss_probability = 1.0
    pub.publish("t.x", DataObject(reg, "story", n=1))
    bus.run_for(0.001)
    cost.loss_probability = 0.0
    pub.publish("t.x", DataObject(reg, "story", n=2))
    bus.settle(2.0)
    assert tracer.count("nack") >= 1
    assert tracer.count("retransmit") >= 1


def test_daemon_counters():
    bus = InformationBus(seed=3, cost=CostModel.ideal())
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    bus.client("node01", "mon").subscribe("c.>", lambda *a: None)
    for n in range(3):
        pub.publish("c.x", DataObject(reg, "story", n=n))
    bus.settle(1.0)
    assert bus.daemon("node00").published == 3
    assert bus.daemon("node01").delivered == 3
    assert bus.daemon("node01").subscription_count() == 1


def test_subscription_advertisement_on_wire():
    """Once polled, a plane broadcasts each change to its table."""
    bus = InformationBus(seed=4, cost=CostModel.ideal())
    bus.add_hosts(2)
    adverts = []
    watcher = bus.client("node00", "watcher")
    watcher.subscribe(ADVERT_SUBJECT,
                      lambda s, o, i: adverts.append(o))
    mon = bus.client("node01", "mon")
    mon.subscribe("news.bonds.*", lambda *a: None)  # a table to answer with
    poll(bus, "node00")
    bus.run_for(0.1)
    sub = mon.subscribe("news.equity.*", lambda *a: None)
    bus.run_for(0.5)
    assert any(a["action"] == "add" and "news.equity.*" in a["patterns"]
               for a in adverts)
    mon.unsubscribe(sub)
    bus.run_for(0.5)
    assert any(a["action"] == "remove" and
               "news.equity.*" in a["patterns"] for a in adverts)


def test_a_bus_without_a_router_sends_no_advert_or_solicit():
    """Only a router reads a table, and a router polls before a plane
    says anything: across subscribe, unsubscribe, crash and recover a
    router-less bus publishes nothing on ``_sub.*``."""
    tracer = Tracer(enabled=True)
    bus = InformationBus(seed=4, cost=CostModel.ideal(), tracer=tracer)
    bus.add_hosts(3)
    heard = []
    watcher = bus.client("node00", "watcher")
    for pattern in (ADVERT_SUBJECT, SOLICIT_SUBJECT_PREFIX):
        watcher.subscribe(pattern, lambda s, o, i: heard.append(s))
    mon = bus.client("node01", "mon")
    mon.subscribe("news.>", lambda *a: None)
    quotes = mon.subscribe("quote.*", lambda *a: None)
    bus.run_for(1.0)
    mon.unsubscribe(quotes)
    bus.run_for(1.0)
    bus.crash_host("node01")
    bus.run_for(1.0)
    bus.recover_host("node01")
    bus.run_for(5.0)
    assert bus.daemon("node01").subscription_count() == 1
    assert heard == []
    assert not [r for r in tracer.records if r.category == "publish"
                and r.fields["subject"].startswith("_sub.")]


def test_reserved_patterns_not_advertised():
    bus = InformationBus(seed=5, cost=CostModel.ideal())
    bus.add_hosts(2)
    adverts = []
    bus.client("node00", "watcher").subscribe(
        ADVERT_SUBJECT, lambda s, o, i: adverts.append(o))
    mon = bus.client("node01", "mon")
    mon.subscribe("_private.stuff", lambda *a: None)
    mon.subscribe("public.stuff", lambda *a: None)
    poll(bus, "node00")
    bus.run_for(3.0)   # the first answer is the table
    assert [a["action"] for a in adverts] == ["snapshot"]
    assert all("_private.stuff" not in a.get("patterns", [])
               for a in adverts)


def test_a_poll_gets_the_table_only_where_its_view_is_wrong():
    """A plane answers a poll whose view of it is right with nothing, one
    from its own host with nothing, and one whose view is wrong (or
    missing) with its whole table, at most once per advert interval."""
    config = BusConfig()
    config.advert_interval = 0.5
    bus = InformationBus(seed=6, cost=CostModel.ideal(), config=config)
    bus.add_hosts(2)
    adverts = []
    bus.client("node00", "watcher").subscribe(
        ADVERT_SUBJECT, lambda s, o, i: adverts.append((i.deliver_time, o)))
    bus.client("node01", "mon").subscribe("snap.equity.>", lambda *a: None)
    poll(bus, "node00", every=config.advert_interval,
         views={"node01": ["snap.equity.>"]})
    bus.run_for(2.2)
    assert adverts == []
    asker = bus.client("node00", "asker")
    for host, views in (("node01", {}), ("node00", {}),
                        ("node00", {"node01": advert_digest(["other.>"])})):
        asker.publish(SOLICIT_SUBJECT_PREFIX, {"host": host, "views": views})
    bus.run_for(0.1)
    assert [(a["action"], a["patterns"]) for _, a in adverts] == [
        ("snapshot", ["snap.equity.>"])]
    assert adverts[0][0] < 2.3


def test_flush_forces_batched_messages_out():
    config = BusConfig()
    config.batch.enabled = True
    config.batch.batch_delay = 60.0       # effectively never
    config.batch.batch_bytes = 10**9
    # quiet the heartbeat too: otherwise receivers learn the stamped seq
    # and "repair" the batched message out of retention early
    config.reliable.heartbeat_interval = 120.0
    bus = InformationBus(seed=7, cost=CostModel.ideal(), config=config)
    bus.add_hosts(2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    got = []
    bus.client("node01", "mon").subscribe("f.>",
                                          lambda s, o, i: got.append(o))
    pub.publish("f.x", DataObject(reg, "story", n=1))
    bus.run_for(1.0)
    assert got == []                      # held by the batcher
    bus.daemon("node00").flush()
    bus.run_for(1.0)
    assert len(got) == 1


def test_max_depth_subject_accepted():
    deep = ".".join(["x"] * 32)
    assert validate_subject(deep)
    bus = InformationBus(seed=8, cost=CostModel.ideal())
    bus.add_hosts(2)
    got = []
    bus.client("node01", "mon").subscribe(deep, lambda s, o, i:
                                          got.append(s))
    bus.client("node00", "feed").publish(deep, 1)
    bus.settle(1.0)
    assert got == [deep]


def test_seen_ledger_dedupe_is_bounded():
    """The guaranteed-delivery dedupe memory evicts oldest past the cap.

    Non-durable subscribers never ack, so the publisher keeps
    republishing; the dedupe set must not grow with the number of
    distinct guaranteed messages ever seen.
    """
    config = BusConfig(seen_ledger_cap=10)
    bus = InformationBus(seed=9, cost=CostModel.ideal(), config=config)
    bus.add_hosts(2)
    got = []
    # a NON-durable subscriber: deliveries dedupe through _seen_ledgers
    bus.client("node01", "mon").subscribe("g.>",
                                          lambda s, p, i: got.append(p["n"]))
    pub = bus.client("node00", "feed")
    for n in range(40):
        pub.publish(f"g.{n}", {"n": n}, qos=QoS.GUARANTEED)
    bus.settle(5.0)
    daemon = bus.daemon("node01")
    assert set(got) == set(range(40))           # everything delivered...
    assert len(daemon._seen_ledgers) <= 10      # ...memory stays bounded


def test_seen_ledger_cap_above_working_set_dedupes_exactly():
    """With the cap covering the in-flight window, no duplicates leak."""
    config = BusConfig(seen_ledger_cap=100)
    bus = InformationBus(seed=9, cost=CostModel.ideal(), config=config)
    bus.add_hosts(2)
    got = []
    bus.client("node01", "mon").subscribe("g.>",
                                          lambda s, p, i: got.append(p["n"]))
    pub = bus.client("node00", "feed")
    for n in range(40):
        pub.publish(f"g.{n}", {"n": n}, qos=QoS.GUARANTEED)
    bus.settle(5.0)   # several republish rounds: dedupe absorbs them all
    assert sorted(got) == list(range(40))
    assert len(bus.daemon("node01")._seen_ledgers) <= 100
