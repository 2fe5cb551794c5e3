"""A fault-tolerant Object Repository, composed from existing primitives.

The paper: "Service objects typically contain extensive state and may be
fault-tolerant" (Section 3) and "several server objects can be used to
provide load balancing or fault-tolerance" (Section 3.3).  This test
builds that, with no new mechanism:

* two capture servers on different hosts, both durable subscribers;
* publishers use guaranteed delivery with ``ack_quorum=2`` — a publish
  is only considered done once *both* replicas have stored it;
* two query servers in an exclusive group (rank 0 primary, rank 1
  backup): only the leader answers discovery.

Crash the primary: queries fail over to the backup, which has the full
data set; recover it, and it resumes leadership with its write-ahead
log intact.
"""

import pytest

from repro.core import BusConfig, InformationBus, QoS
from repro.core.rmi import RmiClient
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.repository import CaptureServer, QueryServer
from repro.sim import CostModel


@pytest.fixture
def world():
    config = BusConfig()
    config.ack_quorum = 2           # both replicas must confirm
    bus = InformationBus(seed=1, cost=CostModel.ideal(), config=config)
    bus.add_hosts(4)
    reg = standard_registry()
    reg.register(TypeDescriptor(
        "trade", attributes=[AttributeSpec("n", "int")]))
    publisher = bus.client("node00", "feed", registry=reg)

    replicas = []
    for index, address in enumerate(("node01", "node02")):
        client = bus.client(address, "repository")
        capture = CaptureServer(client, ["trades.>"])
        query = QueryServer(client, capture.store, "svc.trades",
                            rank=index, exclusive=True)
        replicas.append((client, capture, query))
    bus.run_for(1.0)    # group presence converges
    return bus, reg, publisher, replicas


def publish_trades(bus, reg, publisher, values):
    for n in values:
        publisher.publish("trades.exec", DataObject(reg, "trade", n=n),
                          qos=QoS.GUARANTEED)
    bus.settle(3.0)


def tally(bus, client_host, out):
    rmi = RmiClient(bus.client(client_host, f"analyst{len(out)}"),
                    "svc.trades")
    result = []
    rmi.call("tally", {"type_name": "trade"},
             lambda v, e: result.append((v, e)))
    bus.run_for(3.0)
    out.append(result[0])
    return result[0]


def test_quorum_means_both_replicas_have_the_data(world):
    bus, reg, publisher, replicas = world
    publish_trades(bus, reg, publisher, range(5))
    assert bus.daemon("node00").guaranteed_pending() == []
    for _, capture, _query in replicas:
        assert capture.store.count("trade") == 5


def test_only_the_primary_answers_queries(world):
    bus, reg, publisher, replicas = world
    publish_trades(bus, reg, publisher, range(3))
    out = []
    value, error = tally(bus, "node03", out)
    assert error is None and value == 3
    primary, backup = replicas[0][2], replicas[1][2]
    assert primary.rmi.calls_served == 1
    assert backup.rmi.calls_served == 0


def test_failover_and_recovery(world):
    bus, reg, publisher, replicas = world
    publish_trades(bus, reg, publisher, range(4))
    out = []
    assert tally(bus, "node03", out) == (4, None)

    # primary replica host dies
    bus.crash_host("node01")
    bus.run_for(2.0)     # presence lapses; rank-1 becomes leader
    publish_trades(bus, reg, publisher, range(4, 6))
    # quorum cannot be met with one replica down: entries stay pending
    assert len(bus.daemon("node00").guaranteed_pending()) == 2
    # but queries keep working against the backup, fully caught up
    assert tally(bus, "node03", out) == (6, None)

    # the primary returns: WAL replay + guaranteed redelivery catch it up
    bus.recover_host("node01")
    bus.settle(8.0)
    assert bus.daemon("node00").guaranteed_pending() == []
    assert replicas[0][1].store.count("trade") == 6
    assert tally(bus, "node03", out) == (6, None)
