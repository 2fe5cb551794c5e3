"""Flow control on the WAN link: bounded store-and-forward queues,
observable drops, and backpressure on the router leg."""

from repro.adapters import Adapter
from repro.core import Admission, BusConfig, InformationBus, MetricsRegistry
from repro.core.router import Router, WanLink
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Simulator
from repro.sim.trace import Tracer


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string")]))
    return reg


def fast_config():
    config = BusConfig()
    config.advert_interval = 0.5
    return config


def two_buses(seed=1, link=None, tracer=None):
    sim = Simulator(seed=seed)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=fast_config(), tracer=tracer)
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=fast_config(), tracer=tracer)
    east.add_hosts(2, prefix="e")
    west.add_hosts(2, prefix="w")
    router = Router(link=link)
    router.add_leg(east)
    router.add_leg(west)
    return sim, east, west, router


def test_down_link_drops_are_counted_and_traced():
    tracer = Tracer(enabled=True)
    sim, east, west, router = two_buses(link=WanLink(), tracer=tracer)
    reg = story_registry()
    pub = east.client("e00", "feed", registry=reg)
    received = []
    west.client("w00", "monitor").subscribe(
        "news.>", lambda s, *_: received.append(s))
    sim.run_until(2.0)
    router.link.fail()
    for i in range(4):
        pub.publish(f"news.n{i}", DataObject(reg, "story", headline="X"))
    sim.run_until(4.0)
    assert received == []
    counts = router.metrics.snapshot()
    assert counts["router.router.wan.messages_dropped"]["value"] >= 4
    drops = tracer.select("flow.drop", reason="link-down")
    assert len(drops) >= 4
    assert drops[0]["queue"].startswith("wan[")
    # the leg noticed its forwards were shed
    assert any(counts[f"router.router.leg.{leg}.shed"]["value"] >= 4
               for leg in router.legs)


def test_saturated_link_queues_within_bounds_then_defers():
    # a 1-message queue on a slow link: back-to-back forwards past the
    # bound are deferred back to the leg, visibly, and never shed
    slow = WanLink(latency=0.01, bandwidth_bytes_per_sec=500.0,
                   queue_capacity=1)
    sim, east, west, router = two_buses(link=slow)
    reg = story_registry()
    pub = east.client("e00", "feed", registry=reg)
    received = []
    west.client("w00", "monitor").subscribe(
        "news.>", lambda s, *_: received.append(s))
    sim.run_until(2.0)
    for i in range(6):
        pub.publish(f"news.n{i}", DataObject(reg, "story", headline="X"))
    sim.run_until(20.0)
    counts = router.metrics.snapshot()
    deferred = sum(counts[f"router.router.leg.{leg}.deferred"]["value"]
                   for leg in router.legs)
    assert deferred > 0
    assert sum(counts[f"router.router.leg.{leg}.shed"]["value"]
               for leg in router.legs) == 0
    assert 0 < len(received) < 6
    # per-direction queue instruments live in the router's registry
    flow = {name: row["value"]
            for name, row in router.metrics.snapshot().items()
            if name.startswith("router.router.flow.wan[")}
    watermarks = [v for k, v in flow.items() if k.endswith(".high_watermark")]
    assert watermarks
    assert all(mark <= slow.queue_capacity for mark in watermarks)
    assert sum(v for k, v in flow.items() if k.endswith(".deferred")) \
        == deferred
    assert sum(v for k, v in flow.items()
               if k.endswith((".dropped_newest", ".dropped_oldest"))) == 0


def test_link_send_returns_admission():
    link = WanLink(queue_capacity=1, bandwidth_bytes_per_sec=10.0)
    registry = MetricsRegistry()
    link.attach_metrics(registry)
    sim = Simulator(seed=1)
    delivered = []
    # first transfer starts immediately; second queues; third defers
    assert link.send(sim, "a", "b", 100,
                     lambda: delivered.append(1)) is Admission.ACCEPTED
    assert link.send(sim, "a", "b", 100,
                     lambda: delivered.append(2)) is Admission.ACCEPTED
    assert link.send(sim, "a", "b", 100,
                     lambda: delivered.append(3)) is Admission.DEFERRED
    sim.run()
    assert delivered == [1, 2]
    assert registry.counter("flow.wan[a->b].deferred").value == 1
    assert registry.counter("flow.wan[a->b].dropped_newest").value == 0
    # the deferred direction drained and admits again
    assert link.send(sim, "a", "b", 100,
                     lambda: delivered.append(4)) is Admission.ACCEPTED
    sim.run()
    assert delivered == [1, 2, 4]


def test_deprecated_stats_aliases_are_gone():
    # the PR-7 `stats()` shims, and since PR 20 the dict copies that
    # replaced them: counters are read from the registry and the int
    # views (docs/OBSERVABILITY.md, "Where to read it")
    sim, east, west, router = two_buses()
    sim.run_until(1.0)
    leg = next(iter(router.legs.values()))
    daemon = leg.client.daemon
    retired = [
        (router, ("stats", "leg_stats", "flow_stats")),
        (router.link, ("stats", "link_stats", "messages_dropped")),
        (leg, ("messages_republished", "forwards_deferred",
               "forwards_shed")),
        (east, ("flow_stats",)),
        (leg.client, ("delivery_stats",)),
        (daemon, ("wire_stats", "shard_stats", "publish_stats",
                  "guaranteed_deferred", "skipped_envelopes",
                  "bad_subjects", "on_publish_credit")),
        (leg.client, ("on_flow_credit",)),
        (daemon._sender, ("retention_stats",)),
        (Adapter, ("stats",)),
        # the router's telemetry publisher and stat bridge, and the
        # flow credits nothing waited on
        (router, ("stat_interval", "bridge_stats", "_publish_stats",
                  "_ship_stat")),
        (leg, ("_on_stat", "_stat_receive")),
        (daemon._outbound, ("credits", "resume_at")),
    ]
    for owner, names in retired:
        for name in names:
            assert not hasattr(owner, name), (owner, name)
    assert len(router.legs) == 2
    assert router.metrics.snapshot()[
        "router.router.wan.messages_dropped"]["value"] == 0
