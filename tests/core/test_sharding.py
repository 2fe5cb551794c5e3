"""Subject-space sharding: the shard map, the plane set, and cross-plane
behaviour (discovery, guaranteed delivery, telemetry, routing).

At 4 shards the crc32 map places the first elements used below as
``news``->0, ``feed0``->1, ``alpha``->2, ``beta``->3 and ``svc``->1 —
every plane is exercised, and the discovery tests get a service subject
whose data plane differs from the pinned ``_discovery.*`` control plane.
"""

import zlib

import pytest

from repro.apps import BusBrowser
from repro.core import BusConfig, BusDaemon, InformationBus, QoS, ShardMap
from repro.core.discovery import Inquiry, Responder, inquiry_subject
from repro.core.router import Router
from repro.core.daemon import (DAEMON_PORT, SHARD_PORT_STRIDE, STAT_PORT,
                               shard_data_port, shard_stat_port)
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           encode, standard_registry)
from repro.sim import CostModel, PortInUseError, Simulator, Tracer


def sharded_config(shards=4, **overrides):
    config = BusConfig(subject_shards=shards)
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


def make_bus(shards=4, seed=1, hosts=2, **overrides):
    bus = InformationBus(seed=seed, cost=CostModel.ideal(),
                         config=sharded_config(shards, **overrides))
    bus.add_hosts(hosts)
    return bus


def record_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "record", attributes=[AttributeSpec("n", "int")]))
    return reg


# ----------------------------------------------------------------------
# the shard map
# ----------------------------------------------------------------------

def test_shard_map_is_crc32_of_first_element():
    shard_map = ShardMap(4)
    for subject in ("news.x", "feed0.a.b", "alpha.t", "beta.q"):
        first = subject.split(".", 1)[0]
        expected = zlib.crc32(first.encode()) % 4
        assert shard_map.shard_of(subject) == expected
    # placement ignores everything after the first element
    assert shard_map.shard_of("news.a") == shard_map.shard_of("news.z.9")


def test_reserved_subjects_pin_to_shard_zero():
    shard_map = ShardMap(8)
    assert shard_map.shard_of("_bus.stat.node00.daemon") == 0
    assert shard_map.shard_of("_discovery.svc.quotes") == 0
    assert shard_map.shard_of("_sub.advert") == 0


def test_single_shard_map_is_trivial():
    shard_map = ShardMap(1)
    assert shard_map.shard_of("anything.at.all") == 0
    assert shard_map.shards_for_pattern(">") == (0,)
    with pytest.raises(ValueError):
        ShardMap(0)


def test_pattern_fan_out_rules():
    shard_map = ShardMap(4)
    # literal-first registers on exactly the owning plane
    assert shard_map.shards_for_pattern("news.>") == \
        (shard_map.shard_of("news.x"),)
    assert len(shard_map.shards_for_pattern("feed0.*")) == 1
    # wildcard-first could match any plane's subjects
    assert shard_map.shards_for_pattern(">") == (0, 1, 2, 3)
    assert shard_map.shards_for_pattern("*.prices") == (0, 1, 2, 3)
    # reserved patterns fan too: every plane emits its own control
    # traffic even though client publishes pin to shard 0
    assert shard_map.shards_for_pattern("_bus.stat.>") == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# the plane set
# ----------------------------------------------------------------------

def test_default_config_builds_the_classic_daemon():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(1)
    assert isinstance(bus.daemon("node00"), BusDaemon)


def test_a_default_host_is_a_plane_set_of_one():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(1)
    assert bus.daemon("node00").planes == [bus.daemon("node00")]


def test_sharded_bus_builds_planes_with_per_plane_ports():
    bus = make_bus(shards=4, hosts=1)
    daemon = bus.daemon("node00")
    assert all(type(plane) is BusDaemon for plane in daemon.planes)
    assert daemon is daemon.planes[0]
    assert all(plane.planes is daemon.planes for plane in daemon.planes)
    assert [plane.shard for plane in daemon.planes] == [0, 1, 2, 3]
    assert [shard_data_port(k) for k in range(4)] == \
        [DAEMON_PORT + SHARD_PORT_STRIDE * k for k in range(4)]
    assert [shard_stat_port(k) for k in range(4)] == \
        [STAT_PORT + SHARD_PORT_STRIDE * k for k in range(4)]
    host = bus.host("node00")
    for k in range(4):
        for port in (shard_data_port(k), shard_stat_port(k)):
            with pytest.raises(PortInUseError):
                host.bind(port, lambda frame: None)
    assert shard_data_port(0) == DAEMON_PORT
    assert shard_stat_port(0) == STAT_PORT


def test_shard_sessions_share_host_identity():
    bus = make_bus(shards=3, hosts=1)
    daemon = bus.daemon("node00")
    bus.run_for(0.1)
    base = daemon.session
    assert "~" not in base
    for k in (1, 2):
        session = daemon.planes[k].session
        assert session == f"{base}~{k}"
        # NACK/ACK routing recovers the host address unchanged
        assert session.split("#", 1)[0] == "node00"


def test_publishes_route_to_owning_plane_and_are_counted():
    bus = make_bus(shards=4)
    received = {}
    sub = bus.client("node01", "sub")
    for first in ("news", "feed0", "alpha", "beta"):
        received[first] = []
        sub.subscribe(f"{first}.>",
                      lambda s, o, i, box=received[first]: box.append(s))
    pub = bus.client("node00", "pub")
    for first in ("news", "feed0", "alpha", "beta"):
        for n in range(3):
            pub.publish(f"{first}.m{n}", {"n": n})
    bus.settle(2.0)
    for first in ("news", "feed0", "alpha", "beta"):
        assert received[first] == [f"{first}.m{n}" for n in range(3)]
    planes = bus.daemon("node00").planes
    shard_map = ShardMap(4)
    # each first element landed on exactly one plane, so a plane's own
    # published counter says what was routed to it
    for first in ("news", "feed0", "alpha", "beta"):
        assert planes[shard_map.shard_of(f"{first}.m0")].published >= 3


def test_wildcard_first_subscription_fans_to_all_planes():
    bus = make_bus(shards=4)
    everything = []
    bus.client("node01", "monitor").subscribe(
        ">", lambda s, o, i: everything.append(s))
    pub = bus.client("node00", "pub")
    for first in ("news", "feed0", "alpha", "beta"):
        pub.publish(f"{first}.x", {"n": 1})
    bus.settle(2.0)
    assert sorted(everything) == ["alpha.x", "beta.x", "feed0.x", "news.x"]
    # the fanned pattern occupies a slot on every plane
    assert all(plane.subscription_count() >= 1
               for plane in bus.daemon("node01").planes)


def test_each_plane_counts_its_own_traffic():
    bus = make_bus(shards=4)
    bus.client("node01", "sub").subscribe(">", lambda *a: None)
    pub = bus.client("node00", "pub")
    for first in ("news", "feed0", "alpha", "beta"):
        pub.publish(f"{first}.x", {"n": 1})
    bus.settle(2.0)
    assert sum(p.published for p in bus.daemon("node00").planes) >= 4
    assert [p.delivered for p in bus.daemon("node01").planes] == [1, 1, 1, 1]
    # every plane keeps the per-client deliver[...] keys
    for plane in bus.daemon("node01").planes:
        assert "deliver[sub]" in plane.flow_stats()


def _shard_pivot(shards, messages=80):
    """Literal, wildcard and durable subscribers, a mid-stream subscribe
    and unsubscribe, every 8th publish guaranteed — under a zero-CPU,
    infinite-bandwidth cost model, so event *times* are the same whether
    sends serialize on one lane or four."""
    tracer = Tracer(enabled=True)
    cost = CostModel(bandwidth_bytes_per_sec=float("inf"),
                     cpu_send_per_packet=0.0, cpu_send_per_byte=0.0,
                     cpu_recv_per_packet=0.0, cpu_recv_per_byte=0.0,
                     cpu_jitter=0.0, loss_probability=0.0)
    bus = InformationBus(seed=42, cost=cost, tracer=tracer,
                         config=BusConfig(subject_shards=shards))
    bus.add_hosts(5)
    inboxes = {}

    def collect(address):
        box = inboxes.setdefault(address, {})
        return lambda s, p, info: box.setdefault(s, []).append(p["n"])

    lit = bus.client("node01", "lit")
    lit.subscribe("news.>", collect("node01"))        # one plane
    lit.subscribe("alpha.>", collect("node01"))       # another plane
    bus.client("node02", "wild").subscribe(">", collect("node02"))
    bus.client("node03", "db").subscribe("feed0.>", collect("node03"),
                                         durable=True)
    late = bus.client("node04", "late")
    state = {}
    bus.sim.schedule(0.8, lambda: state.update(
        sub=late.subscribe(">", collect("node04"))))
    bus.sim.schedule(1.8, lambda: late.unsubscribe(state["sub"]))

    publisher = bus.client("node00", "pub")
    firsts = ("news", "feed0", "alpha", "beta")       # planes 0..3
    for n in range(messages):
        # the guaranteed ones ride the plane the durable consumer
        # covers (feed0): its acks must drain the ledger
        qos = QoS.GUARANTEED if n & 7 == 1 else QoS.RELIABLE
        bus.sim.schedule(0.01 + n * 2.5 / messages, publisher.publish,
                         f"{firsts[n & 3]}.s{n & 7}", {"n": n}, qos)
    bus.run_for(30.0)
    planes = [plane for daemon in bus.daemons.values()
              for plane in daemon.planes]
    counters = {name: sum(getattr(plane, name) for plane in planes)
                for name in ("published", "delivered", "acks_sent",
                             "corrupt_dropped")}
    publishing = bus.daemon("node00").planes
    counters["pending"] = sum(len(plane.guaranteed_pending())
                              for plane in publishing)
    counters["retransmissions"] = sum(plane.sender_retransmissions()
                                      for plane in publishing)
    # per-plane sequence counters renumber and session strings differ by
    # plane, so seq and size are masked out of the trace
    trace = [(r.time, r.category,
              {k: v for k, v in r.fields.items() if k not in ("seq", "size")})
             for r in tracer.records]
    return inboxes, counters, trace


def test_four_planes_are_observably_one_daemon():
    """Same seed, ``subject_shards`` 4 vs 1: sharding relocates work; it
    must not reorder, drop or duplicate anything.  Per-subject delivery
    sequences, summed daemon counters and the seq/size-masked trace are
    identical."""
    inboxes, counters, trace = _shard_pivot(shards=4)
    assert (inboxes, counters, trace) == _shard_pivot(shards=1)
    assert counters["acks_sent"] > 0          # the guaranteed path ran
    assert counters["pending"] == 0           # ... and its ledger drained
    assert inboxes["node04"], "mid-stream subscriber heard nothing"


@pytest.mark.parametrize("shards, last, wire_bytes, frames, published", [
    (1, 0.04127457121985925, 30_332, 742, [600]),
    (4, 0.013419097213378531, 88_816, 2_904, [150, 150, 150, 150]),
])
def test_fan_out_drain_is_pinned(shards, last, wire_bytes, frames,
                                 published):
    """The drain of ``benchmarks/test_shard_scaling.py`` under the
    default ``CostModel`` (jitter and loss on), pinned bit for bit: the
    ledger has no sharded workload, so this is what shows that a change
    to how a host's planes are built, routed to or recovered left a
    sharded run exactly alone in simulated time.  Only a deliberate
    change to the data path or the wire format may move the literals."""
    bus = InformationBus(seed=7, config=BusConfig(subject_shards=shards))
    bus.add_hosts(5)
    done = {"count": 0, "last": 0.0}

    def on_message(subject, obj, info):
        done["count"] += 1
        done["last"] = bus.sim.now

    for i in range(4):
        bus.client(f"node{i + 1:02d}", "consumer").subscribe(">", on_message)
    publisher = bus.client("node00", "pub")
    payload = encode({"tick": 1}, publisher.registry, inline_types=False)
    firsts = ("news", "feed0", "alpha", "beta")       # planes 0..3
    for n in range(600):
        publisher.publish_bytes(f"{firsts[n & 3]}.tick{n & 7}", payload)
    bus.settle(180.0)
    assert done == {"count": 2_400, "last": last}
    assert bus.lan.bytes_transmitted == wire_bytes
    assert bus.lan.frames_transmitted == frames
    assert [plane.published
            for plane in bus.daemon("node00").planes] == published


@pytest.mark.parametrize("shards, beta_at", [(1, 20), (2, 0)])
def test_fifo_holds_per_sender_and_plane(shards, beta_at):
    """What a sharded host owes P1: FIFO per (sender, plane).  At two
    planes ``alpha.x`` and ``beta.x`` hash apart, so a small message on
    ``beta.x`` overtakes twenty 1 KB ones the same client published
    before it on ``alpha.x``; at one plane it arrives last."""
    assert ShardMap(2).shard_of("alpha.x") != ShardMap(2).shard_of("beta.x")
    bus = InformationBus(seed=1, config=BusConfig(subject_shards=shards))
    bus.add_hosts(2)
    got = []
    bus.client("node01", "mon").subscribe(
        ">", lambda subject, obj, info: got.append(subject))
    pub = bus.client("node00", "pub")
    for _ in range(20):
        pub.publish("alpha.x", "a" * 1024)
    pub.publish("beta.x", "b")
    bus.settle()
    assert len(got) == 21 and got.index("beta.x") == beta_at


# ----------------------------------------------------------------------
# discovery across shards (service and inquiry subjects on different
# planes: ``_discovery.*`` pins to shard 0, ``svc.*`` hashes to plane 1)
# ----------------------------------------------------------------------

def test_discovery_spans_control_and_data_planes():
    bus = make_bus(shards=4, hosts=3)
    shard_map = ShardMap(4)
    service = "svc.quotes"
    assert shard_map.shard_of(service) != 0
    assert shard_map.shard_of(inquiry_subject(service)) == 0
    servers = {i: bus.client(f"node0{i}", f"server{i}") for i in (1, 2)}
    for i, server in servers.items():
        Responder(server, service, info={"member": i})
    results = []
    caller = bus.client("node00", "client")
    Inquiry(caller, service, results.append, window=0.3)
    bus.run_for(1.0)
    assert len(results) == 1
    assert {d.responder for d in results[0]} == \
        {"node01.server1", "node02.server2"}
    # ...and the discovered service is reachable on its own data plane
    answered = []
    servers[1].subscribe(
        f"{service}.req", lambda s, o, i: answered.append(o["n"]))
    caller.publish(f"{service}.req", {"n": 7})
    bus.settle(1.0)
    assert answered == [7]


def test_discovery_works_whichever_plane_the_service_hashes_to():
    bus = make_bus(shards=2, hosts=2)
    shard_map = ShardMap(2)
    # one service per plane (svc -> 1, news -> 0 at two shards)
    services = {"svc.quotes": None, "news.wire": None}
    assert {shard_map.shard_of(s) for s in services} == {0, 1}
    for subject in services:
        Responder(bus.client("node01", f"srv.{subject}"), subject)
    for subject in services:
        box = []
        services[subject] = box
        Inquiry(bus.client("node00", f"c.{subject}"), subject, box.append,
                window=0.3)
    bus.run_for(1.0)
    for subject, box in services.items():
        assert len(box) == 1 and len(box[0]) == 1, subject


# ----------------------------------------------------------------------
# guaranteed delivery per plane
# ----------------------------------------------------------------------

def test_guaranteed_ledgers_are_namespaced_per_plane():
    bus = make_bus(shards=4, hosts=2)
    reg = record_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "db").subscribe(
        ">", lambda s, o, i: received.append((s, o.get("n"))), durable=True)
    # gd -> plane 2 and news -> plane 0 at four shards: two ledgers
    pub.publish("gd.data", DataObject(reg, "record", n=1),
                qos=QoS.GUARANTEED)
    pub.publish("news.data", DataObject(reg, "record", n=2),
                qos=QoS.GUARANTEED)
    stable = bus.host("node00").stable
    shard_map = ShardMap(4)
    assert shard_map.shard_of("gd.data") == 2
    assert shard_map.shard_of("news.data") == 0
    # shard 0 uses the classic key, other planes suffix their namespace
    assert len(stable.get("gd.ledger")) == 1
    assert len(stable.get("gd.ledgers2")) == 1
    assert stable.get("gd.ledgers2")[0]["ledger_id"].startswith(
        "node00/s2.")
    bus.settle(3.0)
    assert sorted(received) == [("gd.data", 1), ("news.data", 2)]
    assert all(plane.guaranteed_pending() == []
               for plane in bus.daemon("node00").planes)


def test_guaranteed_survives_publisher_crash_on_nonzero_plane():
    bus = make_bus(shards=4, hosts=3, seed=3)
    reg = record_registry()
    pub = bus.client("node00", "feed", registry=reg)
    received = []
    bus.client("node01", "db").subscribe(
        "gd.>", lambda s, o, i: received.append(o.get("n")), durable=True)
    bus.partition({"node00"}, {"node01", "node02"})
    pub.publish("gd.data", DataObject(reg, "record", n=1),
                qos=QoS.GUARANTEED)
    bus.settle(1.0)
    bus.crash_host("node00")
    bus.heal()
    bus.run_for(1.0)
    assert received == []
    bus.recover_host("node00")   # plane 2's ledger reloads from stable
    bus.settle(5.0)
    assert received == [1]
    assert all(plane.guaranteed_pending() == []
               for plane in bus.daemon("node00").planes)


def test_recovery_reattaches_subscriptions_on_every_plane():
    bus = make_bus(shards=4, hosts=2, seed=5)
    received = []
    bus.client("node01", "monitor").subscribe(
        ">", lambda s, o, i: received.append(s))
    pub = bus.client("node00", "pub")
    bus.run_for(0.2)
    bus.crash_host("node01")
    bus.run_for(0.5)
    bus.recover_host("node01")
    bus.run_for(0.5)
    for first in ("news", "feed0", "alpha", "beta"):
        pub.publish(f"{first}.x", {"n": 1})
    bus.settle(2.0)
    assert sorted(received) == ["alpha.x", "beta.x", "feed0.x", "news.x"]


# ----------------------------------------------------------------------
# telemetry across planes
# ----------------------------------------------------------------------

def test_browser_labels_shard_planes():
    bus = make_bus(shards=2, hosts=2, seed=2,
                   stat_interval=0.1, advert_interval=0.5)
    bus.client("node01", "sub").subscribe("feed0.>", lambda *a: None)
    pub = bus.client("node00", "pub")
    for n in range(10):
        pub.publish("feed0.x", {"n": n})      # plane 1 traffic
    browser = BusBrowser(bus.client("node01", "browser"))
    bus.run_for(1.0)
    sources = {t.source: t for t in browser.telemetry()}
    # every plane is its own snapshot source, shard 0 included
    assert set(sources) == {"node00.daemon.s0", "node00.daemon.s1",
                            "node01.daemon.s0", "node01.daemon.s1"}
    assert sources["node00.daemon.s0"].shard == 0
    assert sources["node00.daemon.s1"].shard == 1
    # the traffic ran on plane 1; plane 0 never saw it
    plane1 = sources["node00.daemon.s1"].metrics
    assert plane1["daemon.node00.published"]["value"] >= 10
    assert plane1["daemon.node00.shard.id"]["value"] == 1
    assert plane1["daemon.node00.shard.count"]["value"] == 2
    # bus_top sums planes without double counting
    top = browser.bus_top()
    assert top["hosts"] == 4   # one source per plane
    assert top["published"] >= 10
    assert "shard=1" in browser.report()


# ----------------------------------------------------------------------
# routers bridge sharded buses
# ----------------------------------------------------------------------

def test_router_bridges_two_sharded_buses():
    sim = Simulator(seed=6)
    config = sharded_config(4, advert_interval=0.5)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=config)
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=sharded_config(2, advert_interval=0.5))
    east.add_hosts(2, prefix="e")
    west.add_hosts(2, prefix="w")
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    received = []
    west.client("w00", "sub").subscribe(
        "feed0.>", lambda s, o, i: received.append(o["n"]))
    sim.run_until(2.0)
    pub = east.client("e00", "pub")
    for n in range(5):
        pub.publish("feed0.x", {"n": n})
    sim.run_until(5.0)
    assert received == list(range(5))
    # the leg forwarded across planes with its usual counters
    assert any(leg.messages_forwarded >= 5 for leg in router.legs.values())


def test_router_keeps_one_view_per_plane_of_a_sharded_host():
    """Each plane of a sharded host adverts its own table: a router that
    kept one view per host let each plane's snapshot replace the other's,
    flapping remove/add every interval and losing half the traffic."""
    sim = Simulator(seed=8)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=BusConfig(advert_interval=0.5))
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=sharded_config(2, advert_interval=0.5))
    east.add_hosts(2, prefix="e")
    west.add_hosts(2, prefix="w")
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    received = []
    sub = west.client("w00", "sub")
    for pattern in ("feed4.>", "feed0.>"):   # plane 0 and plane 1
        sub.subscribe(pattern, lambda s, o, i: received.append(s))
    sim.run_until(2.0)
    pub = east.client("e00", "pub")
    for n in range(20):
        pub.publish(f"feed{4 * (n % 2)}.x", {"n": n})
        sim.run_until(sim.now + 0.25)   # across several advert intervals
    sim.run_until(sim.now + 1.0)
    assert len(received) == 20
    assert received.count("feed4.x") == 10
