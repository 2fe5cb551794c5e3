"""Tests for the legacy WIP terminal and the virtual-user adapter."""

import pytest

from repro.adapters import (COMMAND_SUBJECT, WipAdapter, WipLotRecord,
                            WipTerminal, register_wip_types, status_subject)
from repro.core import InformationBus
from repro.objects import DataObject
from repro.sim import CostModel


# ----------------------------------------------------------------------
# the legacy terminal by itself
# ----------------------------------------------------------------------

def screen_text(terminal):
    return "\n".join(terminal.screen())


def test_menu_screen():
    terminal = WipTerminal()
    text = screen_text(terminal)
    assert "MAIN MENU" in text
    assert "1. LOT INQUIRY" in text


def test_inquiry_found_and_not_found():
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT42", "DRAM64", "LITHO", 25, "QUEUED"))
    terminal.send("1")
    assert "ENTER LOT ID" in screen_text(terminal)
    terminal.send("lot42")                      # case-insensitive input
    text = screen_text(terminal)
    assert "LOT ID  : LOT42" in text
    assert "STATUS  : QUEUED" in text
    terminal.send("")                           # back to menu
    terminal.send("1")
    terminal.send("GHOST")
    assert "ERROR 404" in screen_text(terminal)


def test_new_lot_track_in_track_out_cycle():
    terminal = WipTerminal()
    terminal.send("5")
    terminal.send("LOT1,DRAM64,LITHO,25")
    assert "LOT CREATED" in screen_text(terminal)
    terminal.send("")
    terminal.send("2")
    terminal.send("LOT1")
    assert "TRACK-IN COMPLETE" in screen_text(terminal)
    assert "STATUS  : PROC" in screen_text(terminal)
    terminal.send("")
    terminal.send("3")
    terminal.send("LOT1,ETCH")
    text = screen_text(terminal)
    assert "TRACK-OUT COMPLETE" in text
    assert "STEP    : ETCH" in text
    assert "STATUS  : QUEUED" in text


def test_hold_blocks_track_in():
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT2", "SRAM", "ETCH", 10, "QUEUED"))
    terminal.send("4")
    terminal.send("LOT2")
    assert "LOT PLACED ON HOLD" in screen_text(terminal)
    terminal.send("")
    terminal.send("2")
    terminal.send("LOT2")
    assert "ERROR 409" in screen_text(terminal)


def test_ship_step_completes_lot():
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT3", "SRAM", "TEST", 10, "QUEUED"))
    terminal.send("3")
    terminal.send("LOT3,SHIP")
    assert "STATUS  : DONE" in screen_text(terminal)


def test_duplicate_lot_rejected():
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT4", "SRAM", "ETCH", 10, "QUEUED"))
    terminal.send("5")
    terminal.send("LOT4,SRAM,ETCH,10")
    assert "ERROR 409" in screen_text(terminal)


@pytest.mark.parametrize("bad", ["LOT5,SRAM,ETCH", "LOT5,SRAM,ETCH,ten",
                                 ",,,"])
def test_bad_newlot_input(bad):
    terminal = WipTerminal()
    terminal.send("5")
    terminal.send(bad)
    assert "ERROR 400" in screen_text(terminal)


def test_invalid_menu_selection():
    terminal = WipTerminal()
    terminal.send("9")
    assert "INVALID SELECTION" in screen_text(terminal)


# ----------------------------------------------------------------------
# the adapter as a virtual user
# ----------------------------------------------------------------------

@pytest.fixture
def world():
    bus = InformationBus(seed=1, cost=CostModel.ideal())
    bus.add_hosts(3)
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT42", "DRAM64", "LITHO", 25, "QUEUED"))
    adapter = WipAdapter(bus.client("node00", "wip"), terminal)
    commander = bus.client("node01", "cell_controller")
    register_wip_types(commander.registry)
    status = []
    bus.client("node02", "dashboard").subscribe(
        "fab5.wip.status.>", lambda s, o, i: status.append((s, o)))
    return bus, terminal, adapter, commander, status


def command(bus, commander, verb, **fields):
    obj = DataObject(commander.registry, "wip_command",
                     dict({"verb": verb}, **fields))
    commander.publish(COMMAND_SUBJECT, obj)
    bus.settle(1.0)


def test_inquire_publishes_lot_object(world):
    bus, terminal, adapter, commander, status = world
    command(bus, commander, "inquire", lot_id="LOT42")
    assert len(status) == 1
    subject, lot = status[0]
    assert subject == status_subject("LOT42")
    assert lot.is_a("wip_lot")
    assert lot.get("product") == "DRAM64"
    assert lot.get("qty") == 25
    assert adapter.inbound == 1 and adapter.outbound == 1


def test_full_lifecycle_via_bus(world):
    bus, terminal, adapter, commander, status = world
    command(bus, commander, "new_lot", lot_id="LOT9", product="SRAM",
            step="LITHO", qty=50)
    command(bus, commander, "track_in", lot_id="LOT9")
    command(bus, commander, "track_out", lot_id="LOT9", step="ETCH")
    statuses = [o.get("status") for _, o in status]
    assert statuses == ["QUEUED", "PROC", "QUEUED"]
    steps = [o.get("step") for _, o in status]
    assert steps == ["LITHO", "LITHO", "ETCH"]
    terminal.send("6")                      # the terminal's own report
    assert "TOTAL LOTS: 2" in screen_text(terminal)
    terminal.send("")


def test_error_screen_becomes_error_message(world):
    bus, terminal, adapter, commander, status = world
    command(bus, commander, "inquire", lot_id="GHOST")
    subject, payload = status[0]
    assert subject == status_subject("GHOST")
    assert "ERROR 404" in payload["error"]
    assert adapter.errors == 1


def test_unknown_verb_reports_error(world):
    bus, terminal, adapter, commander, status = world
    command(bus, commander, "explode", lot_id="LOT42")
    _, payload = status[0]
    assert "unknown verb" in payload["error"]


def test_terminal_stays_usable_after_adapter_traffic(world):
    """The adapter always returns the terminal to the menu."""
    bus, terminal, adapter, commander, status = world
    command(bus, commander, "inquire", lot_id="LOT42")
    assert "MAIN MENU" in screen_text(terminal)


def test_lot_list_report_screen():
    terminal = WipTerminal()
    terminal.seed_lot(WipLotRecord("LOT1", "DRAM64", "LITHO", 25, "QUEUED"))
    terminal.seed_lot(WipLotRecord("LOT2", "SRAM", "ETCH", 10, "HOLD"))
    terminal.send("6")
    text = screen_text(terminal)
    assert "LOT LIST REPORT" in text
    assert "LOT1" in text and "LOT2" in text
    assert "TOTAL LOTS: 2" in text
    terminal.send("")
    assert "MAIN MENU" in screen_text(terminal)


def test_empty_lot_list_report():
    terminal = WipTerminal()
    terminal.send("6")
    assert "NO LOTS ON FILE" in screen_text(terminal)


def test_list_lots_verb_publishes_every_lot(world):
    bus, terminal, adapter, commander, status = world
    terminal.seed_lot(WipLotRecord("LOT77", "SRAM", "ETCH", 10, "HOLD"))
    reports = []
    bus.client("node01", "report_listener").subscribe(
        "fab5.wip.report", lambda s, o, i: reports.append(o))
    command(bus, commander, "list_lots")
    lots = [o for _, o in status]
    assert {lot.get("lot_id") for lot in lots} == {"LOT42", "LOT77"}
    assert all(lot.is_a("wip_lot") for lot in lots)
    assert reports == [{"lots": 2}]
    assert "MAIN MENU" in screen_text(terminal)
