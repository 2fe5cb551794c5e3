"""Integration tests: capture server and query server on the live bus."""

import pytest

from repro.core import InformationBus, QoS
from repro.core.rmi import RmiClient
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.repository import CaptureServer, QueryServer
from repro.sim import CostModel


@pytest.fixture
def world():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(4)
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string"),
                             AttributeSpec("topic", "string",
                                           required=False)]))
    pub = bus.client("node00", "feed", registry=reg)
    repo_client = bus.client("node01", "repository")
    capture = CaptureServer(repo_client, ["news.>"])
    return bus, reg, pub, repo_client, capture


def test_capture_server_stores_published_objects(world):
    bus, reg, pub, repo_client, capture = world
    for i in range(5):
        pub.publish("news.equity.gmc",
                    DataObject(reg, "story", headline=f"s{i}"))
    bus.settle(2.0)
    assert capture.captured == 5
    assert capture.store.count("story") == 5


def test_capture_learns_types_dynamically(world):
    """The capture server starts with a bare registry; the published
    type arrives via inline metadata and the schema is generated."""
    bus, reg, pub, repo_client, capture = world
    assert not repo_client.registry.has("story")
    pub.publish("news.x", DataObject(reg, "story", headline="h"))
    bus.settle(2.0)
    assert repo_client.registry.has("story")
    assert capture.store.db.has_table("obj_story")


def test_capture_records_arrival_subject(world):
    bus, reg, pub, repo_client, capture = world
    pub.publish("news.equity.ibm", DataObject(reg, "story", headline="h"))
    bus.settle(2.0)
    assert capture.store.count("story") == 1
    wal = repo_client.host.stable.read_log("repo.wal")
    assert [record["subject"] for record in wal] == ["news.equity.ibm"]


def test_capture_with_guaranteed_delivery(world):
    bus, reg, pub, repo_client, capture = world
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="h"),
                qos=QoS.GUARANTEED)
    bus.settle(3.0)
    assert capture.captured == 1
    assert bus.daemon("node00").guaranteed_pending() == []   # acked


def test_capture_skips_scalar_payloads(world):
    bus, reg, pub, repo_client, capture = world
    pub.publish("news.tick", {"price": 41.5})
    bus.settle(2.0)
    assert capture.captured == 0
    assert capture.skipped == 1


def test_capture_stop(world):
    bus, reg, pub, repo_client, capture = world
    capture.stop()
    pub.publish("news.x", DataObject(reg, "story", headline="h"))
    bus.settle(2.0)
    assert capture.captured == 0


def test_query_server_end_to_end(world):
    bus, reg, pub, repo_client, capture = world
    server = QueryServer(repo_client, capture.store, "svc.repo")
    pub.publish("news.equity.gmc",
                DataObject(reg, "story", headline="up", topic="gmc"))
    pub.publish("news.equity.ibm",
                DataObject(reg, "story", headline="down", topic="ibm"))
    bus.settle(2.0)

    rmi = RmiClient(bus.client("node02", "analyst"), "svc.repo")
    results = {}
    rmi.call("find", {"type_name": "story", "attribute": "topic",
                      "value": "gmc"},
             lambda v, e: results.update(find=(v, e)))
    bus.run_for(2.0)
    value, error = results["find"]
    assert error is None
    assert len(value) == 1
    assert value[0].get("headline") == "up"

    rmi.call("tally", {"type_name": "story"},
             lambda v, e: results.update(tally=(v, e)))
    bus.run_for(2.0)
    assert results["tally"] == (2, None)

    rmi.call("find_all", {"type_name": "story"},
             lambda v, e: results.update(all=(v, e)))
    bus.run_for(2.0)
    assert len(results["all"][0]) == 2

    oid = value[0].oid
    rmi.call("fetch", {"oid": oid},
             lambda v, e: results.update(fetch=(v, e)))
    bus.run_for(2.0)
    assert results["fetch"][0].oid == oid

    rmi.call("stored_types", {},
             lambda v, e: results.update(types=(v, e)))
    bus.run_for(2.0)
    assert "story" in results["types"][0]


def test_query_server_error_for_missing_oid(world):
    bus, reg, pub, repo_client, capture = world
    QueryServer(repo_client, capture.store, "svc.repo")
    rmi = RmiClient(bus.client("node02", "analyst"), "svc.repo")
    out = []
    rmi.call("fetch", {"oid": "story:ghost"},
             lambda v, e: out.append((v, e)))
    bus.run_for(2.0)
    assert out[0][0] is None
    assert "StoreError" in out[0][1]


def test_capture_survives_crash_via_write_ahead_log(world):
    """The guaranteed-delivery contract end to end: the publisher's ack
    means the data is durable, even if the capture host crashes right
    after."""
    bus, reg, pub, repo_client, capture = world
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="h1"),
                qos=QoS.GUARANTEED)
    bus.settle(2.0)
    assert bus.daemon("node00").guaranteed_pending() == []   # acked
    bus.crash_host("node01")
    bus.run_for(1.0)
    bus.recover_host("node01")
    bus.settle(3.0)
    # the in-memory database was rebuilt from the stable WAL
    assert capture.replayed == 1
    assert capture.store.count("story") == 1
    stored = capture.store.query("story", headline="h1")
    assert len(stored) == 1
    # and no duplicate arrived via guaranteed redelivery
    pub.publish("news.equity.gmc", DataObject(reg, "story", headline="h2"),
                qos=QoS.GUARANTEED)
    bus.settle(3.0)
    assert capture.store.count("story") == 2


def test_find_where_with_serialized_predicate(world):
    from repro.repository import Contains, Or, predicate_to_wire
    bus, reg, pub, repo_client, capture = world
    QueryServer(repo_client, capture.store, "svc.repo")
    for headline, topic in [("alpha up", "gmc"), ("beta down", "ibm"),
                            ("gamma up", "tsm")]:
        pub.publish("news.x", DataObject(reg, "story", headline=headline,
                                         topic=topic))
    bus.settle(2.0)
    rmi = RmiClient(bus.client("node02", "analyst"), "svc.repo")
    predicate = Or(Contains("headline", "up"), Contains("topic", "ibm"))
    out = {}
    rmi.call("find_where",
             {"type_name": "story",
              "predicate": predicate_to_wire(predicate),
              "order_by": "headline", "limit": 2},
             lambda v, e: out.update(r=(v, e)))
    bus.run_for(2.0)
    value, error = out["r"]
    assert error is None
    assert [s.get("headline") for s in value] == ["alpha up", "beta down"]


def test_find_where_malformed_predicate_reports_error(world):
    bus, reg, pub, repo_client, capture = world
    QueryServer(repo_client, capture.store, "svc.repo")
    rmi = RmiClient(bus.client("node02", "analyst"), "svc.repo")
    out = {}
    rmi.call("find_where",
             {"type_name": "story", "predicate": {"op": "explode"},
              "order_by": "", "limit": 0},
             lambda v, e: out.update(r=(v, e)))
    bus.run_for(2.0)
    assert out["r"][0] is None
    assert "unknown predicate op" in out["r"][1]
