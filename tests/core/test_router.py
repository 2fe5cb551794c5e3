"""Tests for information routers bridging buses over WAN links."""

import cProfile
import pstats

import pytest

from repro.core import (BusConfig, InformationBus, MessageInfo, QoS, Router,
                        WanLink)
from repro.core.daemon import ADVERT_SUBJECT, SOLICIT_SUBJECT_PREFIX
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Simulator


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string")]))
    return reg


def fast_config():
    """Short advert interval so routers learn subscriptions quickly."""
    config = BusConfig()
    config.advert_interval = 0.5
    return config


def two_buses(seed=1, link=None):
    sim = Simulator(seed=seed)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=fast_config())
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=fast_config())
    east.add_hosts(3, prefix="e")
    west.add_hosts(3, prefix="w")
    router = Router(link=link)
    router.add_leg(east)
    router.add_leg(west)
    return sim, east, west, router


def test_cross_bus_delivery():
    sim, east, west, router = two_buses()
    reg = story_registry()
    pub = east.client("e00", "feed", registry=reg)
    received = []
    west.client("w00", "monitor").subscribe(
        "news.>", lambda s, o, i: received.append((s, o.get("headline"))))
    sim.run_until(2.0)   # advert propagates; router leg subscribes on east
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="X"))
    sim.run_until(4.0)
    assert received == [("news.equity.gmc", "X")]


def test_no_remote_subscription_no_forwarding():
    """'Messages are only re-published on buses for which there exists a
    subscription on that subject.'"""
    sim, east, west, router = two_buses()
    reg = story_registry()
    pub = east.client("e00", "feed", registry=reg)
    west.client("w00", "monitor").subscribe("sports.>", lambda *a: None)
    sim.run_until(2.0)
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="X"))
    sim.run_until(4.0)
    assert all(leg.messages_forwarded == 0 for leg in router.legs.values())


def test_wildcard_subscription_forwards():
    sim, east, west, router = two_buses()
    reg = story_registry()
    pub = east.client("e00", "feed", registry=reg)
    received = []
    west.client("w00", "monitor").subscribe(
        ">", lambda s, o, i: received.append(s))
    sim.run_until(2.0)
    pub.publish("anything.at.all", DataObject(reg, "story", headline="X"))
    sim.run_until(4.0)
    assert received == ["anything.at.all"]


def test_bidirectional_forwarding_without_loops():
    sim, east, west, router = two_buses()
    reg = story_registry()
    east_box, west_box = [], []
    east.client("e01", "mon").subscribe("chat.>",
                                        lambda s, o, i: east_box.append(s))
    west.client("w01", "mon").subscribe("chat.>",
                                        lambda s, o, i: west_box.append(s))
    sim.run_until(2.0)
    east.client("e00", "a", registry=reg).publish(
        "chat.room1", DataObject(reg, "story", headline="from-east"))
    west.client("w00", "b", registry=reg).publish(
        "chat.room1", DataObject(reg, "story", headline="from-west"))
    sim.run_until(6.0)
    # each side sees both messages exactly once: no ping-pong loop
    assert sorted(east_box) == ["chat.room1", "chat.room1"]
    assert sorted(west_box) == ["chat.room1", "chat.room1"]


def test_overlapping_patterns_forward_once():
    sim, east, west, router = two_buses()
    reg = story_registry()
    received = []
    mon = west.client("w00", "monitor")
    mon.subscribe("news.>", lambda s, o, i: received.append(s))
    mon.subscribe("news.equity.*", lambda s, o, i: received.append(s))
    sim.run_until(2.0)
    east.client("e00", "feed", registry=reg).publish(
        "news.equity.gmc", DataObject(reg, "story", headline="X"))
    sim.run_until(4.0)
    # two local subscription callbacks, but only ONE WAN transfer
    assert len(received) == 2
    east_leg = router.legs["east:router-east"]
    assert east_leg.messages_forwarded == 1


def test_literal_and_wildcard_match_cross_once_per_interested_leg():
    """A message two of one leg's wanted patterns match (one literal,
    one wildcard) crosses once to that leg, once to a leg wanting only
    the wildcard, and not at all to a leg wanting neither."""
    sim = Simulator(seed=5)
    buses = [InformationBus(cost=CostModel.ideal(), name=f"bus{i}", sim=sim,
                            config=fast_config()) for i in range(4)]
    for i, bus in enumerate(buses):
        bus.add_hosts(2, prefix=f"b{i}n")
    router = Router()
    legs = [router.add_leg(bus) for bus in buses]
    reg = story_registry()
    boxes = [[] for _ in buses]
    wants = {1: ("news.equity.gmc", "news.>"), 2: ("news.>",),
             3: ("sports.>",)}
    for i, patterns in wants.items():
        mon = buses[i].client(f"b{i}n00", "mon")
        for pattern in patterns:
            mon.subscribe(pattern,
                          lambda s, o, i_, box=boxes[i]: box.append(s))
    sim.run_until(2.0)
    buses[0].client("b0n00", "feed", registry=reg).publish(
        "news.equity.gmc", DataObject(reg, "story", headline="X"))
    sim.run_until(5.0)
    assert legs[0]._wanted.match("news.equity.gmc") == {
        legs[1].name, legs[2].name}
    assert legs[0].messages_forwarded == 2
    # bus1's two local subscriptions each see the one crossing
    assert boxes[1:] == [["news.equity.gmc"] * 2, ["news.equity.gmc"], []]


def forward_calls(wanted):
    """Python calls one ``_forward`` makes on a leg whose remote leg
    wants ``wanted`` literal patterns, one of which the subject hits."""
    sim, east, west, router = two_buses()
    east_leg = router.legs["east:router-east"]
    west_leg = router.legs["west:router-west"]
    east_leg.remote_wants(west_leg.name, "add",
                          [f"feed.s{n}" for n in range(wanted)])
    info = MessageInfo("feed.s0", "pub", "e00#1", 1, QoS.RELIABLE, 0.0, 0.0,
                       10)
    profile = cProfile.Profile()
    profile.runcall(east_leg._forward, "feed.s0", {"n": 1}, info)
    return pstats.Stats(profile).total_calls


def test_forwarding_cost_does_not_grow_with_the_remote_table():
    """Which legs a subject goes to is one trie match: forwarding a
    message costs the same with 500 remote-wanted patterns as with 1."""
    one, many = forward_calls(1), forward_calls(500)
    assert abs(many - one) <= 5, (one, many)


def test_subject_transform_at_egress():
    sim = Simulator(seed=2)
    plant = InformationBus(cost=CostModel.ideal(), name="plant", sim=sim,
                           config=fast_config())
    hq = InformationBus(cost=CostModel.ideal(), name="hq", sim=sim,
                        config=fast_config())
    plant.add_hosts(2, prefix="p")
    hq.add_hosts(2, prefix="h")
    router = Router()
    router.add_leg(plant)
    router.add_leg(hq, transform=lambda s: f"fab5.{s}")
    reg = story_registry()
    received = []
    hq.client("h00", "dashboard").subscribe(
        "fab5.>", lambda s, o, i: received.append(s))
    # the hq side wants "fab5.>"; the plant side must learn the interest.
    # Transforms are egress-side, so the plant leg needs the *untransformed*
    # interest; subscribe on hq to the transformed name and additionally
    # register the plant-side interest directly:
    router.legs["plant:router-plant"].remote_wants(
        "hq:router-hq", "add", ["cc.>"])
    sim.run_until(1.0)
    plant.client("p00", "cell", registry=reg).publish(
        "cc.litho8.thick", DataObject(reg, "story", headline="9.1um"))
    sim.run_until(3.0)
    assert received == ["fab5.cc.litho8.thick"]


def test_unsubscribe_withdraws_remote_interest():
    sim, east, west, router = two_buses()
    reg = story_registry()
    mon = west.client("w00", "monitor")
    sub = mon.subscribe("news.>", lambda *a: None)
    sim.run_until(2.0)
    east_leg = router.legs["east:router-east"]
    assert "news.>" in east_leg._forwarding
    mon.unsubscribe(sub)
    sim.run_until(4.0)
    assert "news.>" not in east_leg._forwarding


@pytest.mark.parametrize("payload", [
    {"host": "x", "action": "add", "patterns": 5},
    {"host": ["x"], "action": "add", "patterns": ["a"]},
    {"host": "x", "action": "add", "patterns": [1, "a"]},
    {"host": "x", "action": "add", "patterns": ["a..b"]},
    {"host": "x", "action": "add", "patterns": "abc"},
    {"host": "x", "action": ["add"], "patterns": ["a"]},
    {"host": "x", "action": "summary", "digest": "01234567"},
    {"host": "x", "action": "summary", "digest": b"\x00" * 7},
    {"host": "x", "action": "solicit", "patterns": ["a"]},
], ids=["int-patterns", "list-host", "int-pattern", "bad-pattern",
        "string-patterns", "list-action", "string-digest", "short-digest",
        "solicit-action"])
def test_malformed_advert_is_dropped_and_counted(payload):
    """Any application may publish on the advert subject: a payload that
    is not a daemon's advert neither crashes the simulation nor installs
    forwarding, and a well-formed advert after it still takes effect."""
    sim, east, west, router = two_buses()
    rogue = east.client("e01", "rogue")
    sim.run_until(1.0)
    rogue.publish(ADVERT_SUBJECT, payload)
    sim.run_until(2.0)
    west_leg = router.legs["west:router-west"]
    assert west_leg._forwarding == {}
    counter = "router.router.leg.east:router-east.contract.sub_advert.refused"
    assert router.metrics.snapshot()[counter]["value"] == 1
    rogue.publish(ADVERT_SUBJECT,
                  {"host": "x", "action": "add", "patterns": ["news.>"]})
    sim.run_until(3.0)
    assert list(west_leg._forwarding) == ["news.>"]
    assert router.metrics.snapshot()[counter]["value"] == 1


@pytest.mark.parametrize("payload", [
    {"host": 5},
    {"host": ["e01"]},
    {"hosts": "e01"},
    "e01",
], ids=["int-host", "list-host", "no-host", "not-a-dict"])
def test_malformed_solicit_is_dropped_and_counted(payload):
    """Any application may publish on a host's solicit subject: a payload
    that is not a router's solicit is counted in that host's registry and
    sends nothing, and a well-formed one after it gets the table."""
    bus = InformationBus(seed=3, cost=CostModel.ideal(), config=fast_config())
    bus.add_hosts(2, prefix="e")
    snapshots = []
    bus.client("e00", "watcher").subscribe(
        ADVERT_SUBJECT, lambda s, o, i: snapshots.extend(
            [o["patterns"]] if o["action"] == "snapshot" else []))
    bus.client("e01", "mon").subscribe("news.equity.>", lambda *a: None)
    rogue = bus.client("e00", "rogue")
    bus.run_for(0.3)
    rogue.publish(f"{SOLICIT_SUBJECT_PREFIX}.e01", payload)
    bus.run_for(0.1)
    counter = "daemon.e01.contract.sub_solicit.refused"
    assert bus.daemon("e01").metrics.snapshot()[counter]["value"] == 1
    assert snapshots == []
    rogue.publish(f"{SOLICIT_SUBJECT_PREFIX}.e01", {"host": "e01"})
    bus.run_for(0.1)
    assert snapshots == [["news.equity.>"]]


def late_router(east, west, at):
    """A router joining ``east`` and ``west`` at simulated time ``at``."""
    east.sim.run_until(at)
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    return router


def test_late_router_learns_a_large_table_within_one_interval():
    """A router attached after a host holds 500 patterns never heard
    their adds: the next summary disagrees with its empty view, and the
    solicited snapshot teaches it all of them within one advert interval
    plus a round trip."""
    sim = Simulator(seed=4)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=fast_config())
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=fast_config())
    east.add_hosts(2, prefix="e")
    west.add_hosts(2, prefix="w")
    patterns = [f"mkt.s{i}.tick" for i in range(500)]
    mon = east.client("e01", "mon")
    for pattern in patterns:
        mon.subscribe(pattern, lambda *a: None)
    router = late_router(east, west, 1.3)
    east_leg = router.legs["east:router-east"]
    assert east_leg._want_counts == {}
    sim.run_until(1.3 + fast_config().advert_interval + 0.05)
    assert sorted(east_leg._want_counts) == sorted(patterns)
    sim.run_until(sim.now + 0.5)   # the wants cross the WAN
    assert sorted(router.legs["west:router-west"]._forwarding) == \
        sorted(patterns)


@pytest.mark.parametrize("kept", [["keep.>"], []], ids=["one-left", "none-left"])
def test_a_missed_remove_is_corrected_by_the_next_summary(kept):
    """The router's host is down while a remove goes by: the next
    summary disagrees with the stale view, and the solicited snapshot
    withdraws the pattern from the other bus.  A plane whose table the
    remove emptied keeps advertising it, and its periodic advert is the
    empty snapshot itself (smaller than a summary): no solicit needed."""
    sim, east, west, router = two_buses()
    solicits = []
    east.client("e00", "tap").subscribe(
        f"{SOLICIT_SUBJECT_PREFIX}.>", lambda s, o, i: solicits.append(s))
    mon = east.client("e01", "mon")
    for pattern in kept:
        mon.subscribe(pattern, lambda *a: None)
    gone = mon.subscribe("gone.>", lambda *a: None)
    sim.run_until(1.0)
    west_leg = router.legs["west:router-west"]
    assert sorted(west_leg._forwarding) == sorted(kept + ["gone.>"])
    east.crash_host("router-east")
    mon.unsubscribe(gone)
    sim.run_until(2.0)
    east.recover_host("router-east")
    assert solicits == []
    sim.run_until(2.0 + fast_config().advert_interval + 0.1)
    assert solicits == ([f"{SOLICIT_SUBJECT_PREFIX}.e01"] if kept else [])
    assert list(west_leg._forwarding) == kept


def test_advert_bytes_do_not_grow_with_the_table():
    """On a bus with no router, a plane's advert costs the same each
    interval whether its table holds 1 pattern or 500."""
    bus = InformationBus(seed=5, cost=CostModel.ideal(), config=fast_config())
    bus.add_hosts(3)
    sizes = {"node01": [], "node02": []}
    bus.client("node00", "watcher").subscribe(
        ADVERT_SUBJECT, lambda s, o, i: sizes[o["host"]].append(
            (o["action"], i.size)))
    bus.client("node01", "one").subscribe("mkt.s0.tick", lambda *a: None)
    many = bus.client("node02", "many")
    for i in range(500):
        many.subscribe(f"mkt.s{i}.tick", lambda *a: None)
    bus.run_for(0.2)
    for adverts in sizes.values():
        adverts.clear()
    bus.run_for(2.0)
    assert len(sizes["node01"]) == 4
    assert sizes["node01"] == sizes["node02"]
    assert {action for action, _ in sizes["node02"]} == {"summary"}


def test_router_logs_traffic_to_stable_storage():
    sim = Simulator(seed=3)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=fast_config())
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=fast_config())
    east.add_hosts(2, prefix="e")
    west.add_hosts(2, prefix="w")
    router = Router()
    east_leg = router.add_leg(east, log_traffic=True)
    router.add_leg(west)
    reg = story_registry()
    west.client("w00", "mon").subscribe("log.>", lambda *a: None)
    sim.run_until(2.0)
    east.client("e00", "feed", registry=reg).publish(
        "log.me", DataObject(reg, "story", headline="X"))
    sim.run_until(4.0)
    log = east_leg.host.stable.read_log("router.log")
    assert len(log) == 1
    assert log[0]["subject"] == "log.me"


def test_wan_latency_delays_delivery():
    link = WanLink(latency=0.5, bandwidth_bytes_per_sec=1e9)
    sim, east, west, router = two_buses(seed=4, link=link)
    reg = story_registry()
    received = []
    west.client("w00", "mon").subscribe(
        "slow.>", lambda s, o, i: received.append(sim.now))
    sim.run_until(2.0)
    publish_time = sim.now
    east.client("e00", "feed", registry=reg).publish(
        "slow.x", DataObject(reg, "story", headline="X"))
    sim.run_until(5.0)
    assert len(received) == 1
    assert received[0] - publish_time >= 0.5


def test_three_bus_mesh():
    sim = Simulator(seed=5)
    buses = [InformationBus(cost=CostModel.ideal(), name=f"bus{i}", sim=sim,
                            config=fast_config()) for i in range(3)]
    for i, bus in enumerate(buses):
        bus.add_hosts(2, prefix=f"b{i}n")
    router = Router()
    for bus in buses:
        router.add_leg(bus)
    reg = story_registry()
    boxes = [[] for _ in buses]
    for i in (1, 2):
        buses[i].client(f"b{i}n00", "mon").subscribe(
            "m.>", lambda s, o, i_, box=boxes[i]: box.append(s))
    sim.run_until(2.0)
    buses[0].client("b0n00", "feed", registry=reg).publish(
        "m.x", DataObject(reg, "story", headline="X"))
    sim.run_until(5.0)
    assert boxes[1] == ["m.x"]
    assert boxes[2] == ["m.x"]


def test_two_router_chain_forwards_transitively():
    """A -router1- B -router2- C: interest and data cross both hops."""
    sim = Simulator(seed=6)
    buses = {}
    for name in ("a", "b", "c"):
        bus = InformationBus(cost=CostModel.ideal(), name=name, sim=sim,
                             config=fast_config())
        bus.add_hosts(2, prefix=name)
        buses[name] = bus
    router1 = Router(name="router1")
    router1.add_leg(buses["a"])
    router1.add_leg(buses["b"])
    router2 = Router(name="router2")
    router2.add_leg(buses["b"])
    router2.add_leg(buses["c"])

    reg = story_registry()
    received = []
    buses["c"].client("c00", "mon").subscribe(
        "chain.>", lambda s, o, i: received.append((s, i.via)))
    sim.run_until(4.0)   # interest: C -> router2 -> B -> router1 -> A
    buses["a"].client("a00", "feed", registry=reg).publish(
        "chain.x", DataObject(reg, "story", headline="hop hop"))
    sim.run_until(8.0)
    assert len(received) == 1
    subject, via = received[0]
    assert subject == "chain.x"
    assert via == ("router1", "router2")   # the full path, stamped


def test_cyclic_topology_terminates():
    """A triangle of routers must not loop forever; each message stops
    once its via stamp covers the cycle."""
    sim = Simulator(seed=7)
    buses = {}
    for name in ("a", "b", "c"):
        bus = InformationBus(cost=CostModel.ideal(), name=name, sim=sim,
                             config=fast_config())
        bus.add_hosts(2, prefix=name)
        buses[name] = bus
    pairs = [("a", "b"), ("b", "c"), ("c", "a")]
    routers = []
    for index, (left, right) in enumerate(pairs):
        router = Router(name=f"r{index}")
        router.add_leg(buses[left])
        router.add_leg(buses[right])
        routers.append(router)

    reg = story_registry()
    boxes = {name: [] for name in buses}
    for name, bus in buses.items():
        bus.client(f"{name}00", "mon").subscribe(
            "cyc.>", lambda s, o, i, name=name: boxes[name].append(i.via))
    sim.run_until(4.0)
    buses["a"].client("a01", "feed", registry=reg).publish(
        "cyc.x", DataObject(reg, "story", headline="round and round"))
    sim.run_until(12.0)   # would hang/explode if forwarding looped
    # every bus heard the message; copies are bounded by the number of
    # simple paths (a triangle has two directions around), and every
    # copy's via path visits each router at most once — no loops ever
    for name, box in boxes.items():
        assert 1 <= len(box) <= 3, (name, box)
        for via in box:
            assert len(via) == len(set(via))
    assert boxes["a"][0] == ()             # the original publication
    # exactly-once holds on loop-free topologies (the chain test); a
    # cyclic mesh trades duplicates for redundancy, as real deployments
    # of this architecture did when they wanted WAN path redundancy
