"""Tests for information routers bridging buses over WAN links."""

import cProfile
import pstats

import pytest

from repro.core import (BusConfig, Envelope, InformationBus, MessageInfo,
                        Packet, PacketKind, QoS, encode_packet)
from repro.core.router import Router, WanLink
from repro.core.daemon import (ADVERT_SUBJECT, DAEMON_PORT,
                               SOLICIT_SUBJECT_PREFIX, advert_digest)
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor, encode,
                           standard_registry)
from repro.sim import CostModel, Simulator
from repro.sim.kernel import PeriodicTimer
from repro.sim.transport import DatagramSocket


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


def poll(bus, host, every=None, views=None):
    """Poll ``bus`` from ``host`` as a router leg holding ``views``
    (plane key -> patterns; none by default) does: now, and then every
    ``every`` seconds if given."""
    asker = bus.client(host, "poller")

    def fire():
        asker.publish(SOLICIT_SUBJECT_PREFIX, {
            "host": host,
            "views": {key: advert_digest(patterns)
                      for key, patterns in (views or {}).items()}})

    fire()
    if every:
        PeriodicTimer(bus.sim, every, fire)


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
    {"host": "x", "action": "summary", "digest": b"\x00" * 8},
], ids=["int-patterns", "list-host", "int-pattern", "bad-pattern",
        "string-patterns", "list-action", "string-digest", "short-digest",
        "solicit-action", "summary-action"])
def test_malformed_advert_is_dropped_and_counted(payload):
    """Any application may publish on the advert subject: a payload that
    is not a daemon's advert (a table digest is not one: a plane sends
    only changes and tables) neither crashes the simulation nor installs
    forwarding, and a well-formed advert after it takes effect until the
    next poll, whose view the forger's plane corrects."""
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
    sim.run_until(2.3)
    assert list(west_leg._forwarding) == ["news.>"]
    sim.run_until(3.0)
    assert west_leg._forwarding == {}
    assert router.metrics.snapshot()[counter]["value"] == 1


@pytest.mark.parametrize("payload", [
    {"host": 5},
    {"host": ["e01"]},
    {"hosts": "e01"},
    "e01",
    {"host": "e00", "views": "e01"},
    {"host": "e00", "views": {"e01": "01234567"}},
    {"host": "e00", "views": {"e01": b"\x00" * 7}},
], ids=["int-host", "list-host", "no-host", "not-a-dict", "views-not-a-dict",
        "string-view-digest", "short-view-digest"])
def test_malformed_solicit_is_dropped_and_counted(payload):
    """Any application may publish on the poll subject every host hears:
    a payload that is not a router's poll (a host, and a map of plane
    key to 8-byte digest if any views) is counted in each host's
    registry, never raised on, and sends nothing, and a well-formed one
    after it gets the table.  (A map key is a string on the wire: the
    marshal writes and reads no other.)"""
    refused_then_answered(payload)


def refused_then_answered(payload, publish="publish"):
    """Publish ``payload`` on the poll subject (through ``publish``, a
    client method) on a bus where e01 holds a pattern: e01 refuses it,
    and answers a well-formed poll after it with its table."""
    bus = InformationBus(seed=3, cost=CostModel.ideal(), config=fast_config())
    bus.add_hosts(2, prefix="e")
    snapshots = []
    bus.client("e00", "watcher").subscribe(
        ADVERT_SUBJECT, lambda s, o, i: snapshots.extend(
            [o["patterns"]] if o["action"] == "snapshot" else []))
    bus.client("e01", "mon").subscribe("news.equity.>", lambda *a: None)
    rogue = bus.client("e00", "rogue")
    bus.run_for(0.3)
    getattr(rogue, publish)(SOLICIT_SUBJECT_PREFIX, payload)
    bus.run_for(0.1)
    counter = "daemon.e01.contract.sub_solicit.refused"
    assert bus.daemon("e01").metrics.snapshot()[counter]["value"] == 1
    assert snapshots == []
    rogue.publish(SOLICIT_SUBJECT_PREFIX, {"host": "e00"})
    bus.run_for(0.1)
    assert snapshots == [["news.equity.>"]]
    assert bus.daemon("e01").metrics.snapshot()[counter]["value"] == 1


def test_undecodable_solicit_is_dropped_and_counted():
    """A poll payload that does not even unmarshal is refused like a
    misshapen one: nothing raises, it is counted once in that host's
    registry, no table goes out, and a well-formed poll after it is
    answered."""
    refused_then_answered(b"garbage", publish="publish_bytes")


def test_a_poll_stamped_in_the_future_does_not_silence_a_bus():
    """A poll's publish time is its sender's word: one forged frame
    stamped far in the future must not hold the planes' answer windows
    shut, so a router added after it still learns the bus's tables."""
    sim = Simulator(seed=1)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=fast_config())
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=fast_config())
    east.add_hosts(3, prefix="e")
    west.add_hosts(3, prefix="w")
    received = []
    west.client("w01", "mon").subscribe(
        "a.b", lambda s, o, i: received.append(o))
    forged = Envelope(subject=SOLICIT_SUBJECT_PREFIX, sender="evil.app",
                      session="evil#0", seq=1,
                      payload=encode({"host": "evil"}), publish_time=1e9)
    evil = DatagramSocket(sim, west.lan.add_host("evil"), 99,
                          lambda data, size, src: None)
    evil.broadcast(encode_packet(Packet(PacketKind.DATA, "evil#0", [forged],
                                        session_start=0.0)), DAEMON_PORT)
    sim.run_until(0.5)
    assert all(plane._next_poll < 1.0 for daemon in west.daemons.values()
               for plane in daemon.planes)
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    sim.run_until(0.5 + fast_config().advert_interval + 0.1)
    east.client("e00", "feed").publish("a.b", {"n": 1})
    sim.run_until(sim.now + 1.0)
    assert received == [{"n": 1}]


def late_router(east, west, at):
    """A router joining ``east`` and ``west`` at simulated time ``at``."""
    east.sim.run_until(at)
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    return router


def test_late_router_learns_a_large_table_within_one_interval():
    """A router attached after a host holds 500 patterns never heard
    their adds: its poll's view of that plane (none) is wrong, and the
    snapshot it answers with teaches the leg all of them within one
    advert interval plus a round trip."""
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


def test_a_late_router_learns_a_table_another_legs_answer_just_told():
    """A plane answers at most one poll per advert interval, because
    every leg hears every answer.  A router joining just after another
    router's leg was answered did not hear that answer, and its first
    poll finds the window shut: it learns the table at its next poll,
    still within one advert interval plus a round trip."""
    sim = Simulator(seed=4)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=fast_config())
    east.add_hosts(2, prefix="e")
    patterns = [f"mkt.s{i}.tick" for i in range(500)]
    mon = east.client("e01", "mon")
    for pattern in patterns:
        mon.subscribe(pattern, lambda *a: None)
    first = Router("r0")
    first.add_leg(east)
    first.add_leg(InformationBus(cost=CostModel.ideal(), name="west0",
                                 sim=sim, config=fast_config()))
    sim.run_until(0.2)
    assert sorted(first.legs["east:r0-east"]._want_counts) == sorted(patterns)
    late = Router("r1")
    late_leg = late.add_leg(east)
    late.add_leg(InformationBus(cost=CostModel.ideal(), name="west1",
                                sim=sim, config=fast_config()))
    sim.run_until(0.45)
    assert late_leg._want_counts == {}
    sim.run_until(0.2 + fast_config().advert_interval + 0.05)
    assert sorted(late_leg._want_counts) == sorted(patterns)


@pytest.mark.parametrize("kept", [["keep.>"], []], ids=["one-left", "none-left"])
def test_a_missed_remove_is_corrected_by_the_next_poll(kept):
    """The router's host is down while a remove goes by: the next poll
    carries the stale view's digest, and the plane answers with its
    table (the empty one if the remove emptied it), which withdraws the
    pattern from the other bus.  Nothing asks the host a second time."""
    sim, east, west, router = two_buses()
    heard = []
    tap = east.client("e00", "tap")
    tap.subscribe(f"{SOLICIT_SUBJECT_PREFIX}.>",
                  lambda s, o, i: heard.append(s))
    tap.subscribe(ADVERT_SUBJECT, lambda s, o, i: heard.append(
        (o["action"], o.get("patterns"))))
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
    heard.clear()
    sim.run_until(2.0 + fast_config().advert_interval + 0.1)
    assert heard == [("snapshot", kept)]
    assert list(west_leg._forwarding) == kept


def test_an_idle_routed_bus_sends_no_advert_once_converged():
    """A leg's poll carries its view, and a plane answers only a wrong
    one: once the legs have learned every table, two idle buses carry
    their legs' polls and no ``_sub.advert`` at all."""
    sim, east, west, router = two_buses()
    heard = {"east": [], "west": []}
    for bus in (east, west):
        prefix = bus.name[0]
        for n in (1, 2):
            bus.client(f"{prefix}0{n}", "mon").subscribe(
                f"{bus.name}.s{n}.>", lambda *a: None)
        tap = bus.client(f"{prefix}00", "tap")
        for subject in (ADVERT_SUBJECT, SOLICIT_SUBJECT_PREFIX):
            tap.subscribe(subject, lambda s, o, i, box=heard[bus.name]:
                          box.append(s))
    sim.run_until(1.1)
    assert sorted(router.legs["east:router-east"]._want_counts) == \
        ["east.s1.>", "east.s2.>"]
    for box in heard.values():
        box.clear()
    sim.run_until(11.1)
    # polls at 1.5, 2.0 .. 11.0: twenty per bus, and nothing else
    assert heard == {"east": [SOLICIT_SUBJECT_PREFIX] * 20,
                     "west": [SOLICIT_SUBJECT_PREFIX] * 20}


def test_a_host_that_joins_after_a_poll_is_learned_at_the_next():
    """A plane speaks only to a poll, so a host added after the leg's
    last poll is learned at the next one — within one advert interval
    plus a round trip — and not at its first subscribe."""
    sim, east, west, router = two_buses()
    interval = fast_config().advert_interval
    east_leg = router.legs["east:router-east"]
    sim.run_until(1.01)                  # the leg polled at 0, 0.5, 1.0
    east.add_host("e09")
    east.client("e09", "late").subscribe("late.>", lambda *a: None)
    sim.run_until(1.45)
    assert "late.>" not in east_leg._want_counts
    sim.run_until(1.01 + interval + 0.05)
    assert "late.>" in east_leg._want_counts
    sim.run_until(sim.now + 0.5)         # the want crosses the WAN
    assert "late.>" in router.legs["west:router-west"]._forwarding


def test_two_legs_polling_one_bus_cost_one_answer_per_interval():
    """Every leg hears every answer, so a plane answers at most one poll
    per advert interval however many legs poll its bus, and none once
    every leg has its table right: a second router's leg, polling out of
    step, costs each plane one more answer, and then the bus is silent."""

    def answers_per_host(routers):
        sim = Simulator(seed=2)
        east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                              config=fast_config())
        east.add_hosts(3, prefix="e")
        times = {"e01": [], "e02": []}
        east.client("e00", "watcher").subscribe(
            ADVERT_SUBJECT, lambda s, o, i: times[o["host"]].append(
                i.publish_time))
        east.client("e01", "a").subscribe("a.>", lambda *a: None)
        east.client("e02", "b").subscribe("b.>", lambda *a: None)
        for n in range(routers):
            west = InformationBus(cost=CostModel.ideal(), name=f"west{n}",
                                  sim=sim, config=fast_config())
            sim.run_until(0.2 * n)        # the legs poll out of step
            router = Router(f"r{n}")
            router.add_leg(east)
            router.add_leg(west)
        sim.run_until(5.1)
        return times

    one, two = answers_per_host(1), answers_per_host(2)
    assert {host: len(t) for host, t in one.items()} == {"e01": 1, "e02": 1}
    assert {host: len(t) for host, t in two.items()} == {"e01": 2, "e02": 2}
    for first, second in two.values():
        assert second - first >= fast_config().advert_interval
        assert second < 1.0


def test_advert_bytes_do_not_grow_with_the_table():
    """A converged leg's poll carries an 8-byte digest per view, so it
    costs the same whether the plane it names holds 1 pattern or 500,
    and the plane does not answer it."""

    def steady(table):
        sim, east, west, router = two_buses()
        mon = east.client("e01", "mon")
        for n in range(table):
            mon.subscribe(f"mkt.s{n}.tick", lambda *a: None)
        heard = []
        tap = east.client("e00", "tap")
        for subject in (ADVERT_SUBJECT, SOLICIT_SUBJECT_PREFIX):
            tap.subscribe(subject, lambda s, o, i: heard.append((s, i.size)))
        sim.run_until(1.1)
        heard.clear()
        sim.run_until(3.1)
        return heard

    one = steady(1)
    assert [subject for subject, _ in one] == [SOLICIT_SUBJECT_PREFIX] * 4
    assert steady(500) == one


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
