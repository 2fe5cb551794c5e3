"""Requirement R1: continuous operation through scheduled maintenance.

    "It is unacceptable to bring down the system for upgrades or
    maintenance. ... it must continue running even during scheduled
    maintenance periods or hardware upgrades."

This test performs a *rolling restart*: every infrastructure host is
taken down and brought back, one at a time, while publishers keep
publishing.  Afterwards the system must be fully caught up: guaranteed
data all stored, services answering, monitors live.
"""

from repro.apps import KeywordGenerator, NewsMonitor
from repro.core import InformationBus, QoS
from repro.core.rmi import RmiClient
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.repository import CaptureServer, QueryServer


def test_rolling_restart_of_every_infrastructure_host():
    bus = InformationBus(seed=77)   # realistic cost model
    hosts = [f"node{i:02d}" for i in range(5)]
    for address in hosts:
        bus.add_host(address)

    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string"),
                             AttributeSpec("n", "int")]))
    publisher = bus.client("node00", "feed", registry=reg)

    monitor = NewsMonitor(bus.client("node01", "monitor"))
    generator = KeywordGenerator(bus.client("node02", "kwgen"))
    repository = bus.client("node03", "repository")
    capture = CaptureServer(repository, ["news.>"])
    QueryServer(repository, capture.store, "svc.repository")

    published = {"n": 0}

    def publish_tick():
        if bus.host("node00").up:
            publisher.publish(
                "news.equity.gmc",
                DataObject(reg, "story",
                           headline=f"chip story {published['n']}",
                           n=published["n"]),
                qos=QoS.GUARANTEED)
            published["n"] += 1

    for step in range(100):
        bus.sim.schedule_at(step * 0.3, publish_tick)

    # the maintenance schedule: each non-publisher host gets a 2-second
    # window, strictly one at a time (as an operator would do it)
    window = 2.0
    for index, address in enumerate(["node01", "node02", "node03",
                                     "node04"]):
        down_at = 3.0 + index * 4.0
        bus.sim.schedule_at(down_at, bus.crash_host, address)
        bus.sim.schedule_at(down_at + window, bus.recover_host, address)

    bus.run_for(32.0)
    bus.settle(20.0)

    total = published["n"]
    assert total == 100

    # guaranteed data: every story is in the repository exactly once,
    # including those published while the repository host was down
    assert bus.daemon("node00").guaranteed_pending() == []
    stored = sorted(o.get("n") for o in capture.store.query("story"))
    assert stored == list(range(total))

    # the monitor missed only what flowed during its own 2s window
    assert monitor.stories_received >= total - 12
    assert monitor.stories_received <= total

    # the keyword generator kept annotating after its restart
    assert generator.properties_published > 0

    # and the query service answers normally at the end
    rmi = RmiClient(bus.client("node04", "analyst"), "svc.repository")
    out = []
    rmi.call("tally", {"type_name": "story"},
             lambda v, e: out.append((v, e)))
    bus.run_for(3.0)
    assert out == [(total, None)]
