"""Discovery answers and server-group presence are ordinary publications
that any application may make, and inquiry ids are predictable
(``<client id>?<n>``).  A hostile payload must not raise out of the
simulator: an :class:`Inquiry` and a :class:`ServerGroup` drop it and
count it, an :class:`RmiClient` never connects to it, and the next
well-formed answer or presence still takes effect."""

import pytest

from repro.core import InformationBus
from repro.core.discovery import Inquiry, Responder, inquiry_subject
from repro.core.rmi import RmiClient, RmiServer, ServerGroup
from repro.sim import CostModel
from tests.core.test_rmi import make_service, quote_registry

#: marks a key the hostile payload leaves out
MISSING = object()


def make_bus():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(3)
    return bus


def refused(bus, host, client, contract):
    """How many payloads ``client`` on ``host`` refused by ``contract``."""
    name = f"client.{client}.contract.{contract}.refused"
    return bus.daemons[host].metrics.snapshot()[name]["value"]


def hostile(base, change):
    payload = dict(base)
    for key, value in change.items():
        if value is MISSING:
            del payload[key]
        else:
            payload[key] = value
    return payload


def inquiry_answer(change):
    """A forged "I am" reaches a live inquiry before the real one."""
    bus = make_bus()
    Responder(bus.client("node01", "server"), "svc.q", info={"shard": 1})
    results = []
    inquiry = Inquiry(bus.client("node00", "client"), "svc.q",
                      results.append, window=0.3)
    bus.client("node02", "evil").publish(
        inquiry_subject("svc.q"),
        hostile({"kind": "iam", "inquiry_id": inquiry.inquiry_id,
                 "service": "svc.q", "responder": "node02.evil",
                 "info": {}}, change))
    bus.run_for(1.0)
    [discovered] = results
    assert [(d.responder, d.info) for d in discovered] == \
        [("node01.server", {"shard": 1})]
    assert refused(bus, "node00", "client", "discovery_iam") == 1


def group_presence(change):
    """A forged presence, then a well-formed rival that outranks us."""
    bus = make_bus()
    group = ServerGroup(bus.client("node01", "server"), "svc.q",
                        "node01.server", rank=0)
    evil = bus.client("node02", "evil")
    evil.publish("_rmi.group.svc.q",
                 hostile({"member": "node02.evil", "rank": 0}, change))
    evil.publish("_rmi.group.svc.q", {"member": "node02.rival", "rank": -1})
    bus.run_for(0.3)
    assert not group.is_leader()
    assert refused(bus, "node01", "server", "rmi_presence") == 1


def rmi_answer(change):
    """A forged, least-loaded answer beside the real server's."""
    bus = make_bus()
    reg = quote_registry()
    server = RmiServer(bus.client("node01", "qsvc"), "svc.quotes",
                       make_service(reg))
    evil = bus.client("node02", "evil")

    def answer(subject, payload, _info):
        if payload.get("kind") == "who":
            evil.publish(subject, {
                "kind": "iam", "inquiry_id": payload["inquiry_id"],
                "service": "svc.quotes", "responder": evil.id,
                "info": hostile({"endpoint": ["node02", 1], "load": -1.0},
                                change)})

    evil.subscribe(inquiry_subject("svc.quotes"), answer)
    rmi = RmiClient(bus.client("node00", "trader"), "svc.quotes",
                    policy="all")
    out = []
    rmi.call("symbols", {}, lambda value, error: out.append((value, error)))
    bus.run_for(2.0)
    assert out == [(["GM", "IBM"], None)]
    assert server.calls_served == 1


@pytest.mark.parametrize("run, change", [
    (inquiry_answer, {"responder": ["x"]}),
    (inquiry_answer, {"service": MISSING}),
    (inquiry_answer, {"info": 5}),
    (group_presence, {"member": ["x"]}),
    (group_presence, {"rank": "z"}),
    (group_presence, {"rank": None}),
    (rmi_answer, {"endpoint": 5}),
    (rmi_answer, {"endpoint": ["node01"]}),
    # ``policy="all"`` ranks the candidates by load
    (rmi_answer, {"load": "z"}),
    (rmi_answer, {"load": None}),
    (rmi_answer, {"load": [1]}),
], ids=["iam-responder-list", "iam-no-service", "iam-info-int",
        "presence-member-list", "presence-rank-str", "presence-rank-none",
        "rmi-endpoint-int", "rmi-endpoint-short", "rmi-load-str",
        "rmi-load-none", "rmi-load-list"])
def test_a_hostile_payload_is_dropped_and_the_next_one_counts(run, change):
    run(change)
