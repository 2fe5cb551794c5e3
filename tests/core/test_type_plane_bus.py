"""End-to-end tests for the session type plane on the simulated bus.

The invariants mirror the string-table ones (PR 6), one layer up:

* receivers with bare registries learn types from typedefs riding the
  wire frames, once per session — not from per-payload metadata;
* a receiver that missed the defining frame hits a typed, repairable
  decode failure (``UnresolvedTypeId`` → drop + NACK arming, never a
  crash), and the RETRANS repair re-defines everything it references;
* guaranteed traffic stays self-contained (ledger entries outlive the
  session the type ids are scoped to);
* ``publish(..., inline_types=True)`` still gets the self-contained
  inline-metadata encoding, and it is the baseline the plane's saving
  is measured against.
"""

from repro.core import BusConfig, InformationBus, QoS
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           decode, standard_registry)
from repro.sim import CostModel


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "source", attributes=[AttributeSpec("name", "string")]))
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("n", "int"),
                             AttributeSpec("source", "source",
                                           required=False)]))
    return reg


def make_bus(seed=1, hosts=3, cost=None, **cfg):
    bus = InformationBus(seed=seed, cost=cost or CostModel.ideal(),
                         config=BusConfig(**cfg))
    bus.add_hosts(hosts)
    return bus


def make_story(reg, n):
    return DataObject(reg, "story", n=n,
                      source=DataObject(reg, "source", name="Reuters"))


def typedef_metric(daemon, leaf):
    """One ``daemon.<host>.wire.typedef.<leaf>`` instrument's value."""
    name = f"daemon.{daemon.host.address}.wire.typedef.{leaf}"
    return daemon.metrics.snapshot()[name]["value"]


def test_bare_receiver_learns_types_from_the_wire():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    got = []
    sub = bus.client("node01", "mon")      # fresh standard registry
    sub.subscribe("news.>", lambda s, o, i: got.append(o))
    for n in range(10):
        pub.publish("news.x", make_story(reg, n))
    bus.settle()
    assert [o.get("n") for o in got] == list(range(10))
    assert got[0].get("source").get("name") == "Reuters"
    assert sub.registry.has("story") and sub.registry.has("source")
    assert sub.decode_errors == 0
    # the definitions travelled once, not in every payload
    recv = bus.daemons["node01"]
    assert typedef_metric(recv, "peer_sessions") == 1
    assert typedef_metric(recv, "peer_types") == 3   # root, source, story
    assert typedef_metric(bus.daemons["node00"], "table_types") == 3


def test_steady_state_payloads_shrink():
    """After the defining frame, typed payloads beat inline ones by far
    more than the 40%% acceptance floor."""
    reg = story_registry()
    sizes = {}
    for inline in (None, True):            # the plane vs inline metadata
        bus = make_bus()
        pub = bus.client("node00", "feed", registry=story_registry())
        seen = []
        bus.client("node01", "mon").subscribe(
            "news.>", lambda s, o, i: seen.append(i.size))
        for n in range(20):
            pub.publish("news.x", make_story(reg, n), inline_types=inline)
        bus.settle()
        assert len(seen) == 20
        sizes[inline] = seen[-1]           # steady-state payload bytes
    assert sizes[None] < sizes[True] * 0.6


def test_lost_defining_frame_is_repaired():
    """The first frame (carrying the typedefs) vanishes; the repair
    re-defines everything, so the receiver decodes all messages."""
    cost = CostModel.ideal()
    bus = make_bus(seed=3, hosts=2, cost=cost)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    got = []
    sub = bus.client("node01", "mon")
    sub.subscribe("news.>", lambda s, o, i: got.append(o.get("n")))
    cost.loss_probability = 1.0            # the defining frame vanishes
    pub.publish("news.x", make_story(reg, 0))
    bus.run_for(0.01)
    cost.loss_probability = 0.0
    for n in range(1, 6):                  # later frames only reference
        pub.publish("news.x", make_story(reg, n))
    bus.run_for(5.0)                       # gap NACKed; RETRANS repairs
    assert got == list(range(6))
    assert sub.decode_errors == 0


def test_unresolved_type_id_drops_and_arms_repair():
    """Deliver a referencing frame to a daemon that never saw the
    defining one: typed failure, counted, repaired — never a crash."""
    cost = CostModel.ideal()
    bus = make_bus(seed=4, hosts=2, cost=cost)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    got = []
    sub = bus.client("node01", "mon")
    sub.subscribe("news.>", lambda s, o, i: got.append(o))
    # teach node01 the header *strings* with an untyped publish, so the
    # later failure is isolated to the type plane (string misses take
    # precedence and would mask it)
    pub.publish("news.x", {"warmup": True})
    bus.settle()
    # the typedef-defining frame exists but node01 never hears it
    bus.partition({"node00"}, {"node01"})
    pub.publish("news.x", make_story(reg, 0))
    bus.run_for(0.5)
    bus.heal()
    for n in range(1, 4):                  # typed region: references only
        pub.publish("news.x", make_story(reg, n))
    bus.run_for(5.0)
    daemon = bus.daemons["node01"]
    assert daemon.typedef_unresolved_dropped > 0
    # repair re-defined everything: warmup dict + all four stories
    stories = [o.get("n") for o in got[1:]]
    assert stories == list(range(4))
    assert sub.decode_errors == 0
    assert typedef_metric(daemon, "unresolved_dropped") == \
        daemon.typedef_unresolved_dropped


def test_late_joiner_catches_the_suffix():
    """A daemon started mid-session never saw the defining frame; the
    repair path must hand it the typedefs too."""
    bus = make_bus(seed=5, hosts=3)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    bus.client("node01", "mon").subscribe("news.>", lambda *a: None)
    for n in range(5):
        pub.publish("news.x", make_story(reg, n))
    bus.settle()
    late_box = []
    late = bus.client("node02", "late")    # joins after the first frames
    late.subscribe("news.>", lambda s, o, i: late_box.append(o.get("n")))
    for n in range(5, 10):
        pub.publish("news.x", make_story(reg, n))
    bus.run_for(10.0)
    assert late_box, "late joiner heard nothing"
    assert late_box == list(range(late_box[0], 10))
    assert late.decode_errors == 0
    assert late.registry.has("story")


def test_guaranteed_payloads_stay_self_contained():
    """Ledgered bytes must decode with a fresh registry and *no*
    resolver: they outlive the session the type ids are scoped to."""
    bus = make_bus(seed=6, hosts=2)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "mon").subscribe(
        "gd.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    pub.publish("gd.data", make_story(reg, 7), qos=QoS.GUARANTEED)
    ledger = bus.host("node00").stable.get("gd.ledger")
    assert len(ledger) == 1
    obj = decode(ledger[0]["payload"], standard_registry())   # no resolver
    assert obj.get("n") == 7
    assert obj.get("source").get("name") == "Reuters"
    bus.settle(3.0)
    assert received == [7]


def test_plane_off_reproduces_inline_baseline():
    """Every publish opting out with ``inline_types=True``: receivers
    learn from the payloads, and the plane carries nothing."""
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    got = []
    sub = bus.client("node01", "mon")
    sub.subscribe("news.>", lambda s, o, i: got.append(o))
    for n in range(5):
        pub.publish("news.x", make_story(reg, n), inline_types=True)
    bus.settle()
    assert [o.get("n") for o in got] == list(range(5))
    assert sub.registry.has("story")       # learned inline, the old way
    assert typedef_metric(bus.daemons["node00"], "table_types") == 0
    assert typedef_metric(bus.daemons["node01"], "peer_sessions") == 0


def test_explicit_inline_types_bypasses_the_plane():
    bus = make_bus()
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    got = []
    bus.client("node01", "mon").subscribe(
        "news.>", lambda s, o, i: got.append(i.size))
    pub.publish("news.x", make_story(reg, 0), inline_types=True)
    pub.publish("news.x", make_story(reg, 1), inline_types=True)
    bus.settle()
    assert typedef_metric(bus.daemons["node00"], "table_types") == 0
    assert got[0] == got[1]                # both self-contained, same size


def test_gated_daemon_still_learns_typedefs():
    """An uninterested daemon skips frame bodies via the interest gate
    but must still accumulate typedefs — a mid-stream subscribe decodes
    from the very next frame without repair."""
    bus = make_bus(seed=8, hosts=2)
    reg = story_registry()
    client = bus.client("node01", "mon")
    client.subscribe("quiet.>", lambda *a: None)   # daemon up, no interest
    pub = bus.client("node00", "feed", registry=reg)
    late_box = []
    for n in range(30):
        bus.sim.schedule(0.01 + n * 0.02, pub.publish,
                         "news.tick", make_story(reg, n))
    bus.sim.schedule(0.35, client.subscribe, "news.>",
                     lambda s, o, i: late_box.append(o.get("n")))
    bus.run_for(30.0)
    daemon = bus.daemons["node01"]
    assert daemon.skipped_frames > 0               # the prefix was gated
    assert late_box and late_box[0] > 0
    assert late_box == list(range(late_box[0], 30))
    assert client.decode_errors == 0
    # the typedefs arrived on skipped frames, before the subscribe
    assert typedef_metric(daemon, "peer_types") == 3
    session = bus.daemons["node00"].session
    assert daemon.peers[session].stats.nacks_sent.value == 0


def test_exactly_once_under_corruption_with_type_plane():
    bus = make_bus(seed=11, hosts=3)
    bus.lan.corrupt_rate = 0.15
    reg = story_registry()
    inbox = []
    bus.client("node01", "mon").subscribe(
        "news.>", lambda s, o, i: inbox.append(o.get("n")))
    pub = bus.client("node00", "feed", registry=reg)
    for n in range(60):
        pub.publish("news.tick", make_story(reg, n))
    bus.run_for(60.0)
    assert bus.lan.frames_corrupted > 0
    assert inbox == list(range(60))


def test_conflicting_preregistered_shape_counts_decode_error():
    """A receiver whose registry already holds a *different* ``story``
    shape fails per-message decode (parity with inline mode) without
    crashing the daemon or poisoning other receivers."""
    bus = make_bus(seed=12, hosts=3)
    reg = story_registry()
    pub = bus.client("node00", "feed", registry=reg)
    conflicted_reg = standard_registry()
    conflicted_reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("totally", "string")]))
    conflicted_box, clean_box = [], []
    conflicted = bus.client("node01", "mon", registry=conflicted_reg)
    conflicted.subscribe("news.>",
                         lambda s, o, i: conflicted_box.append(o))
    clean = bus.client("node02", "mon")
    clean.subscribe("news.>", lambda s, o, i: clean_box.append(o.get("n")))
    for n in range(5):
        pub.publish("news.x", make_story(reg, n))
    bus.settle()
    assert conflicted_box == []
    assert conflicted.decode_errors == 5
    assert clean_box == list(range(5))     # unaffected receiver
    assert clean.decode_errors == 0
