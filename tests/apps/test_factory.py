"""Tests for factory equipment, the cell controller, and the config system."""

import pytest

from repro.apps import (CellController, Equipment, FactoryConfigSystem,
                        register_config_types, sensor_subject)
from repro.core import InformationBus
from repro.core.rmi import RmiClient
from repro.objects import DataObject
from repro.sim import CostModel


@pytest.fixture
def bus():
    b = InformationBus(seed=1, cost=CostModel.ideal())
    b.add_hosts(4)
    return b


def test_sensor_subject_matches_paper_example():
    assert sensor_subject("fab5", "litho8", "thick") == \
        "fab5.cc.litho8.thick"


def test_equipment_publishes_readings(bus):
    equipment = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                          {"thick": (9.0, 0.2, "um")}, interval=0.5)
    received = []
    bus.client("node01", "logger").subscribe(
        "fab5.cc.litho8.*", lambda s, o, i: received.append(o))
    bus.run_for(3.0)
    equipment.stop()
    bus.settle()
    assert len(received) == 6
    assert all(o.is_a("sensor_reading") for o in received)
    assert all(8.5 < o.get("value") < 9.5 for o in received)


def test_cell_controller_tracks_latest_and_new_stations(bus):
    controller = CellController(bus.client("node01", "cc"), "fab5")
    eq1 = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                    {"thick": (9.0, 0.1, "um")}, interval=0.5)
    bus.run_for(1.2)
    assert controller.reading("litho8", "thick") is not None
    # a station added later is picked up with zero reconfiguration (P4)
    eq2 = Equipment(bus.client("node02", "etch3"), "fab5", "etch3",
                    {"temp": (350.0, 5.0, "C")}, interval=0.5)
    bus.run_for(1.2)
    assert controller.reading("etch3", "temp") is not None
    eq1.stop()
    eq2.stop()


def test_alarms_on_limit_breach(bus):
    controller = CellController(bus.client("node01", "cc"), "fab5",
                                limits={"thick": (8.9, 9.1)})
    alarms = []
    bus.client("node02", "pager").subscribe(
        "fab5.alarm.>", lambda s, o, i: alarms.append(o))
    equipment = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                          {"thick": (9.0, 0.5, "um")},   # noisy: breaches
                          interval=0.25)
    bus.run_for(5.0)
    equipment.stop()
    bus.settle()
    assert controller.alarms_raised > 0
    assert len(alarms) == controller.alarms_raised
    alarm = alarms[0]
    assert alarm.is_a("equipment_alarm")
    assert alarm.get("direction") in ("low", "high")


def test_no_alarms_within_limits(bus):
    controller = CellController(bus.client("node01", "cc"), "fab5",
                                limits={"thick": (8.0, 10.0)})
    equipment = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                          {"thick": (9.0, 0.1, "um")}, interval=0.25)
    bus.run_for(3.0)
    equipment.stop()
    assert controller.alarms_raised == 0
    assert controller.readings_seen > 0


def config_obj(registry, station, recipe="std", online=True):
    register_config_types(registry)
    return DataObject(registry, "equipment_config", {
        "plant": "fab5", "station": station, "equipment_type": "litho",
        "recipe": recipe, "online": online,
        "parameters": {"dose": 21.5}})


def test_config_system_rmi_roundtrip(bus):
    system = FactoryConfigSystem(bus.client("node01", "config"), "fab5")
    operator = bus.client("node02", "operator")
    register_config_types(operator.registry)
    rmi = RmiClient(operator, "svc.fab5.config")
    out = {}
    rmi.call("set_config", {"config": config_obj(operator.registry,
                                                 "litho8")},
             lambda v, e: out.update(set=(v, e)))
    bus.run_for(2.0)
    assert out["set"][1] is None
    rmi.call("stations", {}, lambda v, e: out.update(stations=(v, e)))
    bus.run_for(2.0)
    assert out["stations"][0] == ["litho8"]
    rmi.call("get_config", {"station": "litho8"},
             lambda v, e: out.update(get=(v, e)))
    bus.run_for(2.0)
    config = out["get"][0]
    assert config.get("recipe") == "std"
    assert config.get("parameters")["dose"] == 21.5


def test_config_changes_are_published(bus):
    system = FactoryConfigSystem(bus.client("node01", "config"), "fab5")
    changes = []
    bus.client("node03", "station-agent").subscribe(
        "fab5.config.*", lambda s, o, i: changes.append((s, o)))
    operator = bus.client("node02", "operator")
    register_config_types(operator.registry)
    rmi = RmiClient(operator, "svc.fab5.config")
    out = {}
    rmi.call("set_config",
             {"config": config_obj(operator.registry, "litho8")},
             lambda v, e: out.update(set=(v, e)))
    bus.run_for(2.0)
    rmi.call("take_offline", {"station": "litho8"},
             lambda v, e: out.update(off=(v, e)))
    bus.run_for(2.0)
    assert out["off"][1] is None
    assert [s for s, _ in changes] == ["fab5.config.litho8"] * 2
    assert changes[-1][1].get("online") is False


def test_get_unknown_station_errors(bus):
    FactoryConfigSystem(bus.client("node01", "config"), "fab5")
    rmi = RmiClient(bus.client("node02", "operator"), "svc.fab5.config")
    out = {}
    rmi.call("get_config", {"station": "ghost"},
             lambda v, e: out.update(r=(v, e)))
    bus.run_for(2.0)
    assert out["r"][0] is None
    assert "KeyError" in out["r"][1]


def test_set_config_replaces_existing(bus):
    system = FactoryConfigSystem(bus.client("node01", "config"), "fab5")
    operator = bus.client("node02", "operator")
    register_config_types(operator.registry)
    rmi = RmiClient(operator, "svc.fab5.config")
    out = {}
    rmi.call("set_config",
             {"config": config_obj(operator.registry, "litho8", "std")},
             lambda v, e: out.update(a=(v, e)))
    bus.run_for(2.0)
    rmi.call("set_config",
             {"config": config_obj(operator.registry, "litho8", "deep-uv")},
             lambda v, e: out.update(b=(v, e)))
    bus.run_for(2.0)
    rmi.call("get_config", {"station": "litho8"},
             lambda v, e: out.update(get=(v, e)))
    bus.run_for(2.0)
    assert out["get"][0].get("recipe") == "deep-uv"
    assert system.store.count("equipment_config") == 1


def test_equipment_follows_published_config(bus):
    """Live recipe distribution: a config change retunes a running
    station with no restart."""
    system = FactoryConfigSystem(bus.client("node01", "config"), "fab5")
    equipment = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                          {"thick": (9.0, 0.01, "um")}, interval=0.25)
    readings = []
    bus.client("node03", "probe").subscribe(
        "fab5.cc.litho8.thick", lambda s, o, i: readings.append(
            o.get("value")))
    bus.run_for(2.0)
    assert all(8.9 < v < 9.1 for v in readings)
    before = len(readings)

    operator = bus.client("node02", "operator")
    register_config_types(operator.registry)
    rmi = RmiClient(operator, "svc.fab5.config")
    out = {}
    new_config = DataObject(operator.registry, "equipment_config", {
        "plant": "fab5", "station": "litho8", "equipment_type": "litho",
        "recipe": "deep-uv-12um", "online": True,
        "parameters": {"thick": 12.0}})
    rmi.call("set_config", {"config": new_config},
             lambda v, e: out.update(set=e))
    bus.run_for(2.0)
    assert out["set"] is None
    assert equipment.recipe == "deep-uv-12um"
    assert equipment.config_updates == 1
    bus.run_for(2.0)
    equipment.stop()
    bus.settle(1.0)
    assert any(11.9 < v < 12.1 for v in readings[before:])


def test_take_offline_stops_publication(bus):
    FactoryConfigSystem(bus.client("node01", "config"), "fab5")
    equipment = Equipment(bus.client("node00", "litho8"), "fab5", "litho8",
                          {"thick": (9.0, 0.01, "um")}, interval=0.25)
    operator = bus.client("node02", "operator")
    register_config_types(operator.registry)
    rmi = RmiClient(operator, "svc.fab5.config")
    out = {}
    config = DataObject(operator.registry, "equipment_config", {
        "plant": "fab5", "station": "litho8", "equipment_type": "litho",
        "recipe": "std", "online": True})
    rmi.call("set_config", {"config": config},
             lambda v, e: out.update(a=e))
    bus.run_for(1.5)
    rmi.call("take_offline", {"station": "litho8"},
             lambda v, e: out.update(b=e))
    bus.run_for(1.5)
    assert equipment.online is False
    count = equipment.readings_published
    bus.run_for(2.0)
    assert equipment.readings_published == count   # silent while offline
    equipment.stop()
