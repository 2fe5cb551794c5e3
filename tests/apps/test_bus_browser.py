"""Tests for the bus browser: service directory + traffic monitor."""

import pytest

from repro.apps import BusBrowser
from repro.core import InformationBus
from repro.core.rmi import RmiServer
from repro.objects import (OperationSpec, ParamSpec, TypeDescriptor,
                           standard_registry)
from repro.objects.service import ServiceObject
from repro.sim import CostModel


def make_service(reg, name="quote_service"):
    if not reg.has(name):
        reg.register(TypeDescriptor(
            name,
            operations=[OperationSpec("last",
                                      params=(ParamSpec("s", "string"),),
                                      result_type="float"),
                        OperationSpec("symbols",
                                      result_type="list<string>")]))
    svc = ServiceObject(reg, name)
    svc.implement("last", lambda s: 1.0)
    svc.implement("symbols", lambda: ["GM"])
    return svc


def service_subjects(browser):
    """Distinct subjects with at least one live server."""
    return sorted({e.service_subject for e in browser.live_services()})


def total_messages(browser):
    return sum(s.messages for s in browser.subjects.values())


@pytest.fixture
def world():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(4)
    browser = BusBrowser(bus.client("node03", "browser"))
    return bus, browser


def test_directory_lists_advertised_services(world):
    bus, browser = world
    reg = standard_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
              make_service(reg))
    bus.run_for(1.0)
    services = browser.live_services()
    assert len(services) == 1
    entry = services[0]
    assert entry.service_subject == "svc.quotes"
    assert entry.server == "node01.qsvc"
    assert entry.operations == ["last", "symbols"]
    assert service_subjects(browser) == ["svc.quotes"]


def test_stopped_service_leaves_the_directory(world):
    bus, browser = world
    reg = standard_registry()
    server = RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
                       make_service(reg))
    bus.run_for(1.0)
    assert service_subjects(browser) == ["svc.quotes"]
    server.stop()
    bus.run_for(0.5)
    assert service_subjects(browser) == []


def test_crashed_service_goes_stale(world):
    bus, browser = world
    reg = standard_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
              make_service(reg))
    bus.run_for(1.0)
    bus.crash_host("node01")
    bus.run_for(5.0)   # presence lapses
    assert service_subjects(browser) == []


def test_multiple_servers_one_subject(world):
    bus, browser = world
    reg = standard_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
              make_service(reg))
    RmiServer(bus.client("node02", "qsvc"), "svc.quotes",
              make_service(reg))
    bus.run_for(1.0)
    assert len(browser.live_services()) == 2
    assert service_subjects(browser) == ["svc.quotes"]


def test_inspect_returns_interface_metadata(world):
    bus, browser = world
    reg = standard_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
              make_service(reg))
    bus.run_for(0.5)
    out = []
    browser.inspect("svc.quotes", out.append)
    bus.run_for(1.0)
    assert len(out) == 1
    interfaces = out[0]
    assert len(interfaces) == 1
    ops = {o["name"] for o in interfaces[0]["operations"]}
    assert ops == {"last", "symbols"}


def test_traffic_accounting(world):
    bus, browser = world
    feed = bus.client("node00", "feed")
    for i in range(5):
        feed.publish("news.equity.gmc", {"n": i})
    feed.publish("news.bond.us10y", {"n": 99})
    bus.settle(1.0)
    assert total_messages(browser) == 6
    top = browser.top_subjects(1)[0]
    assert top.subject == "news.equity.gmc"
    assert top.messages == 5
    assert top.bytes > 0
    assert top.senders == {"node00.feed"}


def test_admin_chatter_not_counted_as_traffic(world):
    """Discovery and advert messages ride reserved subjects; the '>'
    traffic watcher must not see them."""
    bus, browser = world
    reg = standard_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
              make_service(reg))
    bus.run_for(2.0)
    assert total_messages(browser) == 0
    assert len(browser.live_services()) == 1   # directory still populated


def test_report_renders(world):
    bus, browser = world
    reg = standard_registry()
    RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
              make_service(reg))
    bus.client("node00", "feed").publish("x.y", 1)
    bus.settle(1.0)
    text = browser.report()
    assert "svc.quotes" in text
    assert "x.y" in text


GOOD_ADVERT = {"action": "up", "service": "svc.good", "server": "node00.pub",
               "interface_name": "quote_service", "operations": ["last"]}


def counter_snapshot(value):
    """A snapshot whose one counter reads ``value``."""
    return {"metrics": {"daemon.evil.published":
                        {"type": "counter", "value": value}},
            "interval": 1.0}


#: hostile payloads on the reserved subjects the browser reads
HOSTILE = [
    ("_svc.advert", {"service": ["x"]}),
    ("_svc.advert", {"service": "s", "server": {}}),
    ("_svc.advert", {"service": "s", "operations": 5}),
    ("_bus.stat.evil.daemon", {"metrics": 5, "interval": "a"}),
    # a counter bus_top() cannot sum
    ("_bus.stat.evil.daemon", counter_snapshot("a")),
    ("_bus.stat.evil.daemon", counter_snapshot(None)),
    ("_bus.stat.evil.daemon", counter_snapshot([1])),
    ("_bus.stat.evil.daemon", counter_snapshot({"x": 1})),
    ("_bus.stat.evil.daemon", counter_snapshot(True)),
    # an interval that would keep the source fresh forever, or never
    ("_bus.stat.evil.daemon", {"metrics": {}, "interval": float("inf")}),
    ("_bus.stat.evil.daemon", {"metrics": {}, "interval": float("nan")}),
    ("_bus.stat.evil.daemon", {"metrics": {}, "interval": 0}),
]


@pytest.mark.parametrize("subject, payload", HOSTILE)
def test_malformed_payloads_are_counted_not_raised(world, subject, payload):
    """Any application may publish on the reserved subjects the browser
    reads: a payload of the wrong shape is dropped and counted, and a
    well-formed advert and snapshot after it still register."""
    bus, browser = world
    pub = bus.client("node00", "pub")
    pub.publish(subject, payload)
    bus.run_for(1.0)
    assert browser.live_services() == [] and browser.telemetry() == []
    advert = subject == "_svc.advert"
    registry = bus.daemons["node03"].metrics.snapshot()
    assert tuple(
        registry.get(f"client.browser.contract.{name}.refused",
                     {"value": 0})["value"]
        for name in ("svc_advert", "stat_snapshot")) == \
        ((1, 0) if advert else (0, 1))
    pub.publish("_svc.advert", GOOD_ADVERT)
    pub.publish("_bus.stat.good.daemon", {"metrics": {}, "interval": 1.0})
    bus.run_for(1.0)
    assert [e.service_subject for e in browser.live_services()] == \
        ["svc.good"]
    assert [t.source for t in browser.telemetry()] == ["good.daemon"]
    assert browser.bus_top()["hosts"] == 1


def test_stop_detaches(world):
    bus, browser = world
    browser.stop()
    bus.client("node00", "feed").publish("x.y", 1)
    bus.settle(1.0)
    assert total_messages(browser) == 0
