#!/usr/bin/env python3
"""Quickstart: the Information Bus in five minutes.

Covers the model of computation from Figure 1 of the paper:

1. publish/subscribe with subject-based addressing (P4);
2. self-describing objects — the subscriber learns a type it has never
   seen off the wire and introspects it (P2);
3. the generic print utility that renders any object from metadata;
4. request/reply: a service discovered by subject and invoked over RMI,
   with two replicas of the server sharing the load.

Run:  python examples/quickstart.py
"""

from repro import (AttributeSpec, DataObject, InformationBus, OperationSpec,
                   ParamSpec, TypeDescriptor, standard_registry)
from repro.core.rmi import RmiClient, RmiServer
from repro.objects.printer import render
from repro.objects.service import ServiceObject


def main() -> None:
    # ------------------------------------------------------------------
    # a simulated LAN of workstations, each running a bus daemon
    # ------------------------------------------------------------------
    bus = InformationBus(seed=42)
    bus.add_hosts(4)

    # ------------------------------------------------------------------
    # 1. anonymous publish/subscribe
    # ------------------------------------------------------------------
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "trade",
        attributes=[AttributeSpec("symbol", "string"),
                    AttributeSpec("price", "float"),
                    AttributeSpec("size", "int")],
        doc="one executed trade"))

    feed = bus.client("node00", "trade_feed", registry=registry)
    monitor = bus.client("node01", "monitor")   # fresh, empty registry!

    received = []
    monitor.subscribe("trades.equity.*",
                      lambda subject, obj, info: received.append((subject,
                                                                  obj)))

    feed.publish("trades.equity.gmc",
                 DataObject(registry, "trade", symbol="GMC", price=41.5,
                            size=200))
    feed.publish("trades.bond.us10y",      # nobody subscribed to bonds
                 DataObject(registry, "trade", symbol="US10Y",
                            price=99.2, size=50))
    bus.settle()

    print("== publish/subscribe ==")
    for subject, trade in received:
        print(f"  received on {subject!r}: {trade!r}")
    assert len(received) == 1   # the bond trade matched no subscription

    # ------------------------------------------------------------------
    # 2 & 3. self-describing objects: the monitor never declared 'trade',
    # yet it can introspect and print what it received
    # ------------------------------------------------------------------
    subject, trade = received[0]
    print("\n== the meta-object protocol, on a just-learned type ==")
    print(f"  type: {trade.type_name}")
    print(f"  attributes: {trade.attribute_names()}")
    print(f"  attribute_type('price') = {trade.attribute_type('price')}")
    print("\n== the generic print utility ==")
    print(render(trade))

    # ------------------------------------------------------------------
    # 4. request/reply: discovery by subject, then point-to-point RMI
    # ------------------------------------------------------------------
    registry.register(TypeDescriptor(
        "position_service",
        operations=[OperationSpec("position",
                                  params=(ParamSpec("symbol", "string"),),
                                  result_type="int",
                                  doc="net position in a symbol")]))
    service = ServiceObject(registry, "position_service")
    book = {"GMC": 1200, "IBM": -300}
    service.implement("position", lambda symbol: book.get(symbol, 0))
    servers = [RmiServer(bus.client(host, "position_server"),
                         "svc.positions", service)
               for host in ("node02", "node01")]

    # policy="all": hear every server for the discovery window, then bind
    # to the least loaded one ("several server objects can be used to
    # provide load balancing", Section 3.3)
    answers = []
    for trader in ("trader", "trader2"):
        rmi = RmiClient(bus.client("node03", trader), "svc.positions",
                        policy="all")
        rmi.call("position", {"symbol": "GMC"},
                 lambda value, error: answers.append((value, error)))
        bus.run_for(2.0)

    print("\n== RMI (discovered by subject, no name service) ==")
    value, error = answers[0]
    print(f"  position(GMC) -> {value} (error={error})")
    served = [server.calls_served for server in servers]
    print(f"  calls served per replica: {served}")
    assert value == 1200 and answers[1] == answers[0]
    assert served == [1, 1]

    print("\nquickstart OK")


if __name__ == "__main__":
    main()
