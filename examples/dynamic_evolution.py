#!/usr/bin/env python3
"""Dynamic system evolution — requirement R2, exercised live.

Three evolution scenarios from Sections 3 and 5.2, all performed on a
running system with no restarts, no recompilation, no relinking:

1. **A new type, defined at run time in TDL (P3).**  A ``recipe`` class
   is defined interactively; instances are published; the Object
   Repository generates fresh database tables on the fly; a generic
   monitor renders them through the meta-object protocol (P2).

2. **A live software upgrade (P4 + R1).**  A v2 server joins the subject
   an old v1 server is serving; the old server retires after draining;
   clients calling the same subject never notice.

3. **A UI for a service nobody wrote a UI for.**  The application
   builder generates a working form from the upgraded server's interface
   metadata alone (Section 5.1).

Run:  python examples/dynamic_evolution.py
"""

from repro import InformationBus
from repro.apps import ApplicationBuilder
from repro.core.rmi import RmiClient, RmiServer
from repro.objects import OperationSpec, ParamSpec, TypeDescriptor
from repro.objects.printer import render
from repro.objects.service import ServiceObject
from repro.repository import CaptureServer
from repro.tdl import Interpreter


def main() -> None:
    bus = InformationBus(seed=9)
    bus.add_hosts(6)

    # ------------------------------------------------------------------
    # scenario 1: dynamic classing feeds the whole pipeline
    # ------------------------------------------------------------------
    print("== 1. a new type enters a running system ==")
    repository = bus.client("node01", "repository")
    capture = CaptureServer(repository, ["fab5.>"])
    inbox = []
    monitor = bus.client("node02", "generic_monitor")
    monitor.subscribe("fab5.>", lambda s, o, i: inbox.append(o))
    bus.run_for(0.5)

    # an engineer defines a class interactively, in TDL, on node00
    engineer = bus.client("node00", "engineer")
    tdl = Interpreter(engineer.registry)
    tdl.eval_text("""
        (defclass recipe (object)
          ((name    :type string)
           (station :type string)
           (steps   :type (list string))
           (max-temp :type float :required nil))
          :doc "a process recipe for IC equipment")
    """)
    print("  defined type 'recipe' in TDL on node00")
    print("  repository knows it yet?",
          repository.registry.has("recipe"))

    recipe = tdl.eval_text("""
        (make-instance 'recipe
          :name "deep-uv-9um" :station "litho8"
          :steps (list "clean" "coat" "expose" "develop")
          :max-temp 180.0)
    """)
    engineer.publish("fab5.recipes.litho8", recipe)
    bus.settle(2.0)

    print("  after one publication:")
    print("    repository knows 'recipe':",
          repository.registry.has("recipe"))
    print("    repository generated tables:",
          [t for t in capture.store.db.tables() if "recipe" in t])
    print("    monitor renders the never-before-seen object:")
    for line in render(inbox[0]).splitlines():
        print("     ", line)
    stored = capture.store.query("recipe", name="deep-uv-9um")
    assert stored and stored[0].get("steps")[1] == "coat"
    print("    repository query by attribute returns it: OK")

    # ------------------------------------------------------------------
    # scenario 2: replace a live server under its clients
    # ------------------------------------------------------------------
    print("\n== 2. live server upgrade on subject svc.lot-scheduler ==")
    iface = TypeDescriptor(
        "lot_scheduler",
        operations=[OperationSpec("next_lot",
                                  params=(ParamSpec("station", "string"),),
                                  result_type="string")])

    def make_server(client, version, rank):
        client.registry.register(iface)
        service = ServiceObject(client.registry, "lot_scheduler")
        service.implement(
            "next_lot", lambda station: f"LOT-{version}-{station.upper()}")
        return RmiServer(client, "svc.lot-scheduler", service, rank=rank,
                         exclusive=True)

    v1 = make_server(bus.client("node03", "scheduler_v1"), "v1", rank=1)
    bus.run_for(1.0)

    trader = bus.client("node04", "dispatcher")

    def call_once():
        rmi = RmiClient(trader, "svc.lot-scheduler")
        out = []
        rmi.call("next_lot", {"station": "litho8"},
                 lambda v, e: out.append((v, e)))
        bus.run_for(2.0)
        rmi.close()
        return out[0]

    value, error = call_once()
    print(f"  before upgrade: next_lot -> {value!r}")
    assert value == "LOT-v1-LITHO8"

    # the v2 implementation comes on-line at rank 0: it wins the group
    # election; v1 stops answering discovery, drains, and retires
    v2 = make_server(bus.client("node05", "scheduler_v2"), "v2", rank=0)
    bus.run_for(1.5)   # presence converges
    value, error = call_once()
    print(f"  after v2 joins : next_lot -> {value!r}")
    assert value == "LOT-v2-LITHO8"
    v1.stop()          # the obsolete server is taken off-line
    value, error = call_once()
    print(f"  after v1 retires: next_lot -> {value!r}")
    assert value == "LOT-v2-LITHO8"
    print("  clients used the same subject throughout; no name service, "
          "no reconfiguration")

    # ------------------------------------------------------------------
    # scenario 3: generate a UI from interface metadata alone
    # ------------------------------------------------------------------
    print("\n== 3. application builder: a UI from metadata ==")
    ui_client = bus.client("node04", "ui")
    rmi = RmiClient(ui_client, "svc.lot-scheduler")
    primed = []
    rmi.call("next_lot", {"station": "etch3"},
             lambda v, e: primed.append(v))
    bus.run_for(2.0)

    builder = ApplicationBuilder()
    form = builder.form_for_service(rmi)
    form.set_field("next_lot.station", "litho8")
    form.press("next_lot.call")
    bus.run_for(2.0)
    print("  generated form after one interaction:")
    for line in form.render()[:8]:
        print("   ", line)
    assert form.widget("next_lot.result").text == "LOT-v2-LITHO8"

    print("\ndynamic evolution OK")


if __name__ == "__main__":
    main()
