"""Store-and-forward routing: guaranteed QoS across the WAN.

Section 3.1 lists "logging messages to non-volatile storage" among the
router's functions.  With ``Router(store_and_forward=True)``:

* the ingress leg's forwarding subscription is durable, so the original
  publisher's guaranteed-delivery ack means "stably logged at the
  router";
* shipments retry across WAN link failures and router crashes until the
  egress leg durably confirms;
* the egress leg republishes with guaranteed QoS, extending the chain to
  durable consumers on the far bus.
"""

import pytest

from repro.core import BusConfig, InformationBus, QoS
from repro.core.router import Router, WanLink
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.repository import CaptureServer
from repro.sim import CostModel, Simulator


def sf_pending(leg):
    """Shipments the leg's stable store holds until every target
    confirms them."""
    return len(leg.host.stable.get("router.sf.pending", {}))


def story_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "alarm", attributes=[AttributeSpec("n", "int")]))
    return reg


@pytest.fixture
def world():
    return build_world(WanLink(latency=0.02))


def build_world(link):
    sim = Simulator(seed=1)
    config = BusConfig()
    config.advert_interval = 0.4
    plant = InformationBus(cost=CostModel.ideal(), name="plant", sim=sim,
                           config=config)
    hq = InformationBus(cost=CostModel.ideal(), name="hq", sim=sim,
                        config=config)
    plant.add_hosts(3, prefix="p")
    hq.add_hosts(3, prefix="h")
    router = Router(store_and_forward=True, link=link)
    plant_leg = router.add_leg(plant)
    hq_leg = router.add_leg(hq)
    reg = story_registry()
    publisher = plant.client("p00", "alarms", registry=reg)
    # the far-side durable consumer (the HQ alarm database)
    capture = CaptureServer(hq.client("h00", "alarm_db"), ["alarms.>"])
    sim.run_until(2.0)   # interest propagates
    return (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
            capture)


def counter(router, name):
    """One counter of the router's registry, by its name under the router."""
    return router.metrics.snapshot()[f"router.{router.name}.{name}"]["value"]


def publish(sim, publisher, reg, values):
    for n in values:
        publisher.publish("alarms.drill",
                          DataObject(reg, "alarm", n=n),
                          qos=QoS.GUARANTEED)
    sim.run_until(sim.now + 4.0)


def test_guaranteed_crosses_the_wan(world):
    (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
     capture) = world
    publish(sim, publisher, reg, range(3))
    # the publisher's ledger is clear: the router's durable leg acked
    assert plant.daemon("p00").guaranteed_pending() == []
    # the far-side database stored everything, exactly once
    assert sorted(o.get("n") for o in capture.store.query("alarm")) == \
        [0, 1, 2]
    # and the router's own pending log is clear
    assert sf_pending(plant_leg) == 0


def test_wan_link_failure_is_ridden_out(world):
    (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
     capture) = world
    router.link.fail()
    publish(sim, publisher, reg, [7])
    # the publisher is already acked (logged at the router) ...
    assert plant.daemon("p00").guaranteed_pending() == []
    # ... but the shipment is parked, surviving in stable storage
    assert sf_pending(plant_leg) == 1
    assert capture.captured == 0
    assert counter(router, "wan.messages_dropped") > 0
    router.link.restore()
    sim.run_until(sim.now + 3.0)
    assert sf_pending(plant_leg) == 0
    assert capture.store.count("alarm") == 1


def test_router_crash_resumes_from_pending_log(world):
    (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
     capture) = world
    router.link.fail()
    publish(sim, publisher, reg, [1, 2])
    assert sf_pending(plant_leg) == 2
    plant_leg.host.crash()
    router.link.restore()
    sim.run_until(sim.now + 2.0)
    assert capture.captured == 0               # router was down
    plant_leg.host.recover()
    sim.run_until(sim.now + 5.0)
    assert sf_pending(plant_leg) == 0
    assert sorted(o.get("n") for o in capture.store.query("alarm")) == \
        [1, 2]


def test_retries_do_not_duplicate(world):
    """A flapping link causes repeated shipments; the egress leg's
    durable dedupe keeps far-side delivery exactly-once."""
    (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
     capture) = world
    # flap the link: acks get lost, shipments repeat
    for k in range(6):
        sim.schedule_at(2.0 + k * 0.3,
                        router.link.fail if k % 2 == 0
                        else router.link.restore)
    publish(sim, publisher, reg, range(5))
    router.link.restore()
    sim.run_until(sim.now + 6.0)
    assert sf_pending(plant_leg) == 0
    assert sorted(o.get("n") for o in capture.store.query("alarm")) == \
        [0, 1, 2, 3, 4]
    assert capture.store.count("alarm") == 5   # exactly once each


def test_egress_crash_before_the_ack_reships_without_republishing(world):
    """The egress leg republishes a record, then its host crashes and
    the ack dies on the wire.  After recovery the origin's retry
    re-ships the record: the egress's durable seen-log acks it without
    republishing, and holds the record's id exactly once."""
    (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
     capture) = world
    publisher.publish("alarms.drill", DataObject(reg, "alarm", n=1),
                      qos=QoS.GUARANTEED)
    for _ in range(100_000):
        if counter(router, f"leg.{hq_leg.name}.republished"):
            break
        sim.step()
    assert counter(router, f"leg.{hq_leg.name}.republished") == 1
    hq_leg.host.crash()
    router.link.fail()                      # the ack is lost mid-transfer
    sim.run_until(sim.now + 1.0)
    assert sf_pending(plant_leg) == 1      # the origin never heard it
    hq_leg.host.recover()
    router.link.restore()
    sim.run_until(sim.now + 5.0)
    assert sf_pending(plant_leg) == 0      # re-shipped and acked ...
    assert counter(router, f"leg.{hq_leg.name}.republished") == 1   # ... not republished
    assert capture.store.count("alarm") == 1
    assert hq_leg.host.stable.read_log("router.sf.seen") == \
        [f"{plant_leg.name}/1"]


def test_reliable_messages_skip_the_stable_path(world):
    (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
     capture) = world
    before = plant_leg.host.stable.write_count
    publisher.publish("alarms.info", DataObject(reg, "alarm", n=99))
    sim.run_until(sim.now + 3.0)
    assert capture.store.count("alarm") == 1   # forwarded and stored
    # no store-and-forward records were written for reliable traffic
    assert sf_pending(plant_leg) == 0


def test_a_failed_link_drops_its_queued_transfers_and_the_retry_reships():
    """A slow link holds a backlog of shipments when it fails: every
    queued transfer is lost with it, counted in ``wan.messages_dropped``,
    and once the link is back the retry timer ships each record again,
    so the far side stores every message exactly once."""
    (sim, plant, hq, router, plant_leg, hq_leg, publisher, reg,
     capture) = build_world(WanLink(latency=0.02,
                                    bandwidth_bytes_per_sec=20_000))
    link = router.link
    for n in range(30):
        publisher.publish("alarms.drill", DataObject(reg, "alarm", n=n),
                          qos=QoS.GUARANTEED)
    start = sim.now
    sim.run_until(start + 0.05)
    queued = sum(len(queue) for queue in link._queues.values())
    assert queued > 0
    before = counter(router, "wan.messages_dropped")
    link.fail()
    assert counter(router, "wan.messages_dropped") - before == queued
    assert not any(link._queues.values())
    sim.run_until(start + 3.0)
    link.restore()
    sim.run_until(sim.now + 10.0)
    assert sorted(o.get("n") for o in capture.store.query("alarm")) == \
        list(range(30))
    assert sf_pending(plant_leg) == 0
