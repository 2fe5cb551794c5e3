#!/usr/bin/env python3
"""The IC fabrication plant — the paper's other flagship deployment.

A "24 by 7" fab5 floor on one bus:

* process equipment publishing sensor readings on hierarchical subjects
  (``fab5.cc.litho8.thick`` — the paper's own example subject);
* the cell controller watching every station via a wildcard and raising
  alarms on limit violations;
* the legacy Cobol WIP tracking system, integrated through the
  virtual-user terminal adapter (requirement R3);
* the Factory Configuration System storing control recipes in the
  Object Repository and serving them over RMI;
* guaranteed delivery feeding every alarm into a capture server — the
  "sending data to a database over an unreliable network" use case —
  demonstrated across a network partition.

Run:  python examples/fab_floor.py
"""

from repro import DataObject, InformationBus, QoS
from repro.adapters import (COMMAND_SUBJECT, WipAdapter, WipLotRecord,
                            WipTerminal, register_wip_types)
from repro.apps import (CellController, Equipment, FactoryConfigSystem,
                        register_config_types)
from repro.core.rmi import RmiClient
from repro.repository import CaptureServer


def main() -> None:
    bus = InformationBus(seed=5)
    bus.add_hosts(8)

    # ------------------------------------------------------------------
    # equipment and the cell controller
    # ------------------------------------------------------------------
    litho8 = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                       {"thick": (9.0, 0.4, "um"),
                        "dose": (21.5, 0.3, "mJ")}, interval=0.5)
    etch3 = Equipment(bus.client("node01", "etch3"), "fab5", "etch3",
                      {"temp": (350.0, 6.0, "C")}, interval=0.5)
    controller = CellController(bus.client("node02", "cell_controller"),
                                "fab5",
                                limits={"thick": (8.7, 9.3),
                                        "temp": (340.0, 360.0)})

    # alarms are precious: guaranteed delivery into the alarm database
    alarm_db_client = bus.client("node03", "alarm_db")
    alarm_capture = CaptureServer(alarm_db_client, ["fab5.alarm.>"])

    print("== phase 1: the floor is running ==")
    bus.run_for(8.0)
    bus.settle()
    print(f"  readings published: litho8={litho8.readings_published} "
          f"etch3={etch3.readings_published}")
    print(f"  cell controller saw: {controller.readings_seen} readings, "
          f"raised {controller.alarms_raised} alarms")
    print(f"  latest fab5.cc.litho8.thick = "
          f"{controller.reading('litho8', 'thick'):.3f} um")
    print(f"  alarms captured to the database: {alarm_capture.captured}")

    # ------------------------------------------------------------------
    # the legacy WIP system behind its terminal adapter
    # ------------------------------------------------------------------
    print("\n== phase 2: driving the legacy WIP system over the bus ==")
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT42", "DRAM64", "LITHO", 25,
                                   "QUEUED"))
    WipAdapter(bus.client("node04", "wip_adapter"), terminal)

    cell = bus.client("node02", "lot_commander")
    register_wip_types(cell.registry)
    statuses = []
    bus.client("node05", "wip_dashboard").subscribe(
        "fab5.wip.status.>",
        lambda s, o, i: statuses.append(o))

    def wip(verb, **fields):
        cell.publish(COMMAND_SUBJECT,
                     DataObject(cell.registry, "wip_command",
                                dict({"verb": verb}, **fields)))
        bus.settle(1.0)

    wip("track_in", lot_id="LOT42")
    wip("track_out", lot_id="LOT42", step="ETCH")
    wip("inquire", lot_id="LOT42")
    for lot in statuses:
        print(f"  WIP status: lot={lot.get('lot_id')} "
              f"step={lot.get('step')} status={lot.get('status')}")
    assert statuses[-1].get("step") == "ETCH"
    print(f"  (the 1979 terminal processed "
          f"{terminal.commands_processed} keystroke lines)")

    # ------------------------------------------------------------------
    # factory configuration system over RMI
    # ------------------------------------------------------------------
    print("\n== phase 3: factory configuration system ==")
    FactoryConfigSystem(bus.client("node06", "config_system"), "fab5")
    operator = bus.client("node07", "operator")
    register_config_types(operator.registry)
    rmi = RmiClient(operator, "svc.fab5.config")
    out = {}
    config = DataObject(operator.registry, "equipment_config", {
        "plant": "fab5", "station": "litho8", "equipment_type": "litho",
        "recipe": "deep-uv-9um", "online": True,
        "parameters": {"dose": 21.5, "focus": 0.02}})
    rmi.call("set_config", {"config": config},
             lambda v, e: out.update(set=e))
    bus.run_for(2.0)
    rmi.call("get_config", {"station": "litho8"},
             lambda v, e: out.update(got=v))
    bus.run_for(2.0)
    print(f"  stored recipe: {out['got'].get('recipe')} "
          f"params={out['got'].get('parameters')}")

    # ------------------------------------------------------------------
    # guaranteed delivery across a partition: the alarm database host
    # is cut off, alarms keep flowing, nothing is lost
    # ------------------------------------------------------------------
    print("\n== phase 4: partition the alarm database away ==")
    alarm_publisher = bus.client("node02", "alarm_forwarder")
    captured_before = alarm_capture.captured
    bus.partition({"node03"})   # everyone else forms the implicit group
    for n in range(3):
        alarm_publisher.publish(
            "fab5.alarm.manual.drill",
            {"drill": n, "note": "partition test"}, qos=QoS.GUARANTEED)
    bus.settle(2.0)
    pending = len(bus.daemon("node02").guaranteed_pending())
    print(f"  during partition: database captured +"
          f"{alarm_capture.captured - captured_before}, "
          f"{pending} alarms pending in the stable ledger")
    bus.heal()
    bus.settle(5.0)
    print(f"  after heal: pending="
          f"{len(bus.daemon('node02').guaranteed_pending())}, "
          f"database skipped={alarm_capture.skipped} "
          f"(scalar drill payloads)")
    assert not bus.daemon("node02").guaranteed_pending()

    litho8.stop()
    etch3.stop()
    print("\nfab floor OK")


if __name__ == "__main__":
    main()
