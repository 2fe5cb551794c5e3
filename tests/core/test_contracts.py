"""The control-message contracts (:mod:`repro.core.contracts`).

Two directions: every hostile payload the listener tests publish is
refused by the contract its listener admits through, and a federation
running every control protocol the bus has refuses nothing, while every
reserved subject it publishes on maps to a contract its payloads meet.
"""

import pytest

from repro.apps import BusBrowser
from repro.core import (ADVERT_SUBJECT, BusConfig, InformationBus,
                        MetricsRegistry)
from repro.core.rmi import RmiClient, RmiServer
from repro.core.router import Router
from repro.core.contracts import CONTRACTS, conforms, of, one_of
from repro.core.daemon import SOLICIT_SUBJECT_PREFIX
from repro.core.rmi import SERVICE_ADVERT_SUBJECT
from repro.objects import decode, encode, standard_registry
from repro.sim import CostModel, Simulator
from repro.sim.trace import Tracer
from tests.apps.test_bus_browser import HOSTILE
from tests.core import test_hostile_discovery, test_router
from tests.core.test_hostile_discovery import hostile
from tests.core.test_rmi import make_service, quote_registry


def wire(payload):
    """``payload`` as a listener sees it: marshalled and decoded."""
    return decode(encode(payload), standard_registry())


def rows(test):
    """The argument rows of ``test``'s parametrize mark."""
    [mark] = [m for m in test.pytestmark if m.name == "parametrize"]
    return mark.args[1]


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("daemon.node00.published").inc(3)
    registry.gauge("daemon.node00.clients").value = 2
    registry.histogram("client.app.latency").observe(0.001)
    return registry.snapshot()


#: one payload per contract, shaped as its producer builds it
PRODUCED = {
    "sub_advert": {"action": "add", "patterns": ["news.>", "q.*"],
                   "host": "node00"},
    "sub_solicit": {"host": "node00", "views": {"e01": b"\x00" * 8,
                                                "e01~1": b"\x01" * 8}},
    "svc_advert": {"action": "up", "service": "svc.q",
                   "server": "node01.qsvc", "interface_name": "quote_service",
                   "operations": ["last", "symbols"]},
    "stat_snapshot": {"host": "node00", "time": 1.5, "interval": 0.1,
                      "metrics": _snapshot(), "shard": 1},
    "discovery_who": {"kind": "who", "inquiry_id": "node00.client?1",
                      "service": "svc.q"},
    "discovery_iam": {"kind": "iam", "inquiry_id": "node00.client?1",
                      "service": "svc.q", "responder": "node01.qsvc",
                      "info": {"rank": 0}},
    "rmi_server_info": {"endpoint": ["node01", 20000], "rank": 0,
                        "load": 0.0, "interface": {"name": "quote_service"}},
    "rmi_presence": {"member": "node01.qsvc", "rank": 0},
    "rmi_call": {"kind": "call", "request_id": "node00.trader#1",
                 "op": "symbols", "args": encode({})},
    "rmi_reply": {"kind": "reply", "request_id": "node00.trader#1",
                  "ok": True, "value": encode(["GM"])},
    "rmi_result": {"kind": "reply", "request_id": "node00.trader#1",
                   "ok": True, "value": encode(["GM"])},
    "rmi_error": {"kind": "reply", "request_id": "node00.trader#1",
                  "ok": False, "error": "ZeroDivisionError: division by zero"},
}

#: test_hostile_discovery's scenarios -> the contract and the
#: well-formed payload each one's changes are applied to
DISCOVERY_BASES = {
    "inquiry_answer": ("discovery_iam", PRODUCED["discovery_iam"]),
    "group_presence": ("rmi_presence", {"member": "node02.evil", "rank": 0}),
    "rmi_answer": ("rmi_server_info", {"endpoint": ["node02", 1],
                                       "load": -1.0}),
}


def hostile_cases():
    for payload in rows(
            test_router.test_malformed_advert_is_dropped_and_counted):
        yield "sub_advert", payload
    for payload in rows(
            test_router.test_malformed_solicit_is_dropped_and_counted):
        yield "sub_solicit", payload
    for subject, payload in HOSTILE:
        yield ("svc_advert" if subject == SERVICE_ADVERT_SUBJECT
               else "stat_snapshot"), payload
    for run, change in rows(test_hostile_discovery
                            .test_a_hostile_payload_is_dropped_and_the_next_one_counts):
        name, base = DISCOVERY_BASES[run.__name__]
        assert conforms(base, name)
        yield name, hostile(base, change)


def test_every_hostile_payload_is_refused_by_its_contract():
    cases = list(hostile_cases())
    assert len(cases) == 10 + 7 + 12 + 11
    for name, payload in cases:
        assert not conforms(wire(payload), name), (name, payload)


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_a_produced_payload_conforms(name):
    assert conforms(wire(PRODUCED[name]), name)


def test_types_are_compared_exactly():
    assert not one_of(True)(1) and one_of(True)(True)
    assert not of(int)(True) and of(int)(1)
    assert not conforms([PRODUCED["rmi_presence"]], "rmi_presence")


#: reserved subject prefix -> the contracts its payloads may meet (the
#: map lives here: nothing in the bus needs it)
SUBJECT_CONTRACTS = {
    ADVERT_SUBJECT: ("sub_advert",),
    SOLICIT_SUBJECT_PREFIX: ("sub_solicit",),
    SERVICE_ADVERT_SUBJECT: ("svc_advert",),
    "_bus.stat.": ("stat_snapshot",),
    "_discovery.": ("discovery_who", "discovery_iam"),
    "_rmi.group.": ("rmi_presence",),
}


def contracts_for(subject):
    [names] = [names for prefix, names in SUBJECT_CONTRACTS.items()
               if subject.startswith(prefix)]
    return names


def test_a_clean_federation_refuses_nothing():
    """Two buses (one sharded) with stat publishing, a router, an
    exclusive server group, a browser on each side and an
    ``RmiClient(policy="all")``: every real producer conforms."""
    sim = Simulator(seed=7)
    tracer = Tracer(enabled=True)
    published = set()

    def note_publish(record):
        if record.category == "publish":
            published.add(record.fields["subject"])

    tracer.subscribe(note_publish)
    east = InformationBus(cost=CostModel.ideal(), name="east", sim=sim,
                          config=BusConfig(stat_interval=0.2,
                                           advert_interval=0.5),
                          tracer=tracer)
    west = InformationBus(cost=CostModel.ideal(), name="west", sim=sim,
                          config=BusConfig(stat_interval=0.2,
                                           advert_interval=0.5,
                                           subject_shards=2),
                          tracer=tracer)
    east.add_hosts(3, prefix="e")
    west.add_hosts(2, prefix="w")
    # a table the router joins too late to hear: its first poll gets it
    west.client("w00", "sub").subscribe("feed.>", lambda *a: None)
    sim.run_until(0.1)
    router = Router()
    router.add_leg(east)
    router.add_leg(west)
    taps = []
    for bus, host in ((east, "e00"), (west, "w00")):
        tap = bus.client(host, "tap")
        for pattern in (ADVERT_SUBJECT, SERVICE_ADVERT_SUBJECT, "_bus.stat.>",
                        "_discovery.>", "_rmi.group.>",
                        SOLICIT_SUBJECT_PREFIX):
            tap.subscribe(pattern, lambda s, payload, i: taps.append(
                (s, payload)))
    reg = quote_registry()
    for rank, host in enumerate(("e01", "e02")):
        RmiServer(east.client(host, "qsvc"), "svc.quotes",
                  make_service(reg), rank=rank, exclusive=True)
    browsers = [BusBrowser(east.client("e00", "browser")),
                BusBrowser(west.client("w01", "browser"))]
    rmi = RmiClient(east.client("e00", "trader"), "svc.quotes",
                    policy="all")
    sim.run_until(1.0)
    feed = east.client("e01", "feed")
    for n in range(5):
        feed.publish("feed.x", {"n": n})
    results = []
    for op in ("symbols", "boom"):
        rmi.call(op, {}, lambda value, error: results.append((value, error)))
    browsers[0].inspect("svc.quotes", results.append)
    sim.run_until(3.0)

    # a call and a reply conform, and so does an error reply: a refused
    # one would have failed the call as "malformed reply"
    symbols, boom, interfaces = results
    assert symbols == (["GM", "IBM"], None)
    assert boom[1].startswith("ZeroDivisionError")
    assert [i["name"] for i in interfaces] == ["quote_service"]
    subjects = published | {subject for subject, _ in taps}
    reserved = {s for s in subjects if s.startswith("_")}
    assert {contracts_for(s) for s in reserved} == \
        set(SUBJECT_CONTRACTS.values())
    met = set()
    for subject, payload in taps:
        [name] = [n for n in contracts_for(subject) if conforms(payload, n)]
        met.add(name)
        if name == "discovery_iam":
            assert conforms(payload["info"], "rmi_server_info")
            met.add("rmi_server_info")
    assert met == set(CONTRACTS) - {"rmi_call", "rmi_reply", "rmi_result",
                                    "rmi_error"}
    assert any("shard" in payload for _, payload in taps)
    registries = [router.metrics] + [
        plane.metrics for bus in (east, west)
        for daemon in bus.daemons.values() for plane in daemon.planes]
    assert not [name for registry in registries for name in registry.names()
                if ".contract." in name]
