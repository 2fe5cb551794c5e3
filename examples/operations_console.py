#!/usr/bin/env python3
"""An operator's console for a running Information Bus.

Shows the operational tooling the paper gestures at in Section 5.1
("it is possible to examine the list of available services on the
Information Bus ... users can inspect the interface description for
each service"), built entirely from bus metadata:

1. the BusBrowser's live service directory, per-subject traffic
   monitor, and telemetry console: every daemon publishes its metrics
   registry on ``_bus.stat.<host>.daemon`` once a second
   (``BusConfig(stat_interval=1.0)``), so the console learns the state
   of every host over the bus itself;
2. interface inspection over the discovery protocol;
3. an exactly-once invocation surviving a server crash mid-flight.

Run:  python examples/operations_console.py
"""

from repro import InformationBus
from repro.apps import BusBrowser, Equipment
from repro.core import BusConfig
from repro.core.rmi import ExactlyOnceRmiClient, RmiServer
from repro.objects import OperationSpec, ParamSpec, TypeDescriptor, standard_registry
from repro.objects.service import ServiceObject


def main() -> None:
    bus = InformationBus(seed=21, config=BusConfig(stat_interval=1.0))
    hosts = bus.add_hosts(6)

    # ------------------------------------------------------------------
    # a floor with some traffic and two services
    # ------------------------------------------------------------------
    litho = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                      {"thick": (9.0, 0.2, "um")}, interval=0.4)

    reg = standard_registry()
    reg.register(TypeDescriptor(
        "lot_dispatch_service",
        operations=[OperationSpec(
            "dispatch", params=(ParamSpec("station", "string"),),
            result_type="string", doc="assign the next lot to a station")]))

    dispatched = {"count": 0}

    def make_dispatcher(client):
        svc = ServiceObject(client.registry, "lot_dispatch_service")

        def dispatch(station):
            dispatched["count"] += 1
            return f"LOT-{dispatched['count']:04d}->{station.upper()}"

        svc.implement("dispatch", dispatch)
        return svc

    client1 = bus.client("node01", "dispatcher")
    client1.registry.register(reg.get("lot_dispatch_service"))
    server = RmiServer(client1, "svc.dispatch", make_dispatcher(client1),
                       durable_replies=True)

    # ------------------------------------------------------------------
    # 1. the console comes up and discovers the world from metadata
    # ------------------------------------------------------------------
    console = BusBrowser(bus.client("node05", "console"))
    bus.run_for(4.0)
    print("== operator console snapshot ==")
    print(console.report())
    # every host is a live telemetry source, and the fleet totals are
    # snapshots: they may lag the daemons' own counters, never lead them
    sources = {t.source for t in console.telemetry()}
    assert sources == {f"{host.address}.daemon" for host in hosts}, sources
    top = console.bus_top()
    published = sum(d.published for d in bus.daemons.values())
    assert 0 < top["published"] <= published, (top, published)

    # ------------------------------------------------------------------
    # 2. inspect a service interface through discovery
    # ------------------------------------------------------------------
    print("\n== inspecting svc.dispatch ==")
    interfaces = []
    console.inspect("svc.dispatch", interfaces.extend)
    bus.run_for(1.0)
    for op in interfaces[0]["operations"]:
        params = ", ".join(f"{p['name']}: {p['type']}"
                           for p in op["params"])
        print(f"  {op['name']}({params}) -> {op['result']}   # {op['doc']}")

    # ------------------------------------------------------------------
    # 3. exactly-once dispatch across a server crash
    # ------------------------------------------------------------------
    print("\n== exactly-once call through a server crash ==")
    operator = bus.client("node04", "operator")
    eo = ExactlyOnceRmiClient(operator, "svc.dispatch",
                              retry_delay=0.5, call_timeout=1.0)
    bus.crash_host("node01")          # the dispatcher is down right now
    results = []
    eo.call("dispatch", {"station": "litho8"},
            lambda v, e: results.append((v, e)))
    bus.sim.schedule(2.0, bus.recover_host, "node01")
    bus.run_for(10.0)
    value, error = results[0]
    print(f"  result: {value!r} (error={error}, retries={eo.retries})")
    print(f"  dispatch executed {dispatched['count']} time(s)")
    assert error is None
    assert eo.retries >= 1            # it had to wait out the outage
    assert dispatched["count"] == 1   # and still executed exactly once

    litho.stop()
    print("\noperations console OK")


if __name__ == "__main__":
    main()
