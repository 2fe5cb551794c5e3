"""Factory-floor equipment and the cell controller.

The paper's motivating subject "fab5.cc.litho8.thick" translates to
"plant fab5, cell controller, lithography station litho8, wafer
thickness" — so this module publishes exactly that traffic: simulated
process equipment emitting sensor readings on hierarchical subjects, and
a cell controller that watches them and raises alarms.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ...core import BusClient, MessageInfo
from ...objects import (AttributeSpec, DataObject, TypeDescriptor,
                        TypeRegistry)
from ...sim.kernel import PeriodicTimer

__all__ = ["Equipment", "CellController", "SENSOR_READING_TYPE",
           "ALARM_TYPE", "register_factory_types", "sensor_subject"]

SENSOR_READING_TYPE = "sensor_reading"
ALARM_TYPE = "equipment_alarm"


def register_factory_types(registry: TypeRegistry) -> None:
    """Register the factory data types (idempotent)."""
    if not registry.has(SENSOR_READING_TYPE):
        registry.register(TypeDescriptor(
            SENSOR_READING_TYPE,
            attributes=[
                AttributeSpec("plant", "string"),
                AttributeSpec("station", "string"),
                AttributeSpec("metric", "string"),
                AttributeSpec("value", "float"),
                AttributeSpec("units", "string", required=False),
            ],
            doc="one sensor sample from a piece of process equipment"))
    if not registry.has(ALARM_TYPE):
        registry.register(TypeDescriptor(
            ALARM_TYPE,
            attributes=[
                AttributeSpec("plant", "string"),
                AttributeSpec("station", "string"),
                AttributeSpec("metric", "string"),
                AttributeSpec("value", "float"),
                AttributeSpec("limit", "float"),
                AttributeSpec("direction", "string",
                              doc="'high' or 'low'"),
            ],
            doc="a threshold violation raised by the cell controller"))


def sensor_subject(plant: str, station: str, metric: str) -> str:
    """E.g. ``fab5.cc.litho8.thick`` — straight from the paper."""
    return f"{plant}.cc.{station}.{metric}"


class Equipment:
    """One station publishing sensor readings on a timer.

    ``metrics`` maps metric name to (nominal value, noise amplitude,
    units); readings wander deterministically around nominal using the
    simulator's seeded RNG.
    """

    def __init__(self, client: BusClient, plant: str, station: str,
                 metrics: Dict[str, Tuple[float, float, str]],
                 interval: float = 1.0):
        self.client = client
        self.plant = plant
        self.station = station
        self.metrics = dict(metrics)
        self.readings_published = 0
        self.recipe: Optional[str] = None
        self.online = True
        self.config_updates = 0
        register_factory_types(client.registry)
        self._rng = client.sim.rng(f"equipment.{plant}.{station}")
        # live recipe distribution: the Factory Configuration System
        # publishes changes on <plant>.config.<station>; equipment applies
        # them without restarting (R2 on the factory floor)
        self._config_subscription = client.subscribe(
            f"{plant}.config.{station}", self._on_config)
        self._timer: Optional[PeriodicTimer] = PeriodicTimer(
            client.sim, interval, self._sample,
            name=f"equipment.{station}")

    def _on_config(self, subject: str, obj: Any,
                   info: MessageInfo) -> None:
        if not (isinstance(obj, DataObject)
                and obj.is_a("equipment_config")):
            return
        self.config_updates += 1
        self.recipe = obj.get("recipe")
        self.online = bool(obj.get("online"))
        # recipe parameters named after metrics retune their nominals
        for metric, value in (obj.get("parameters") or {}).items():
            if metric in self.metrics:
                _, noise, units = self.metrics[metric]
                self.metrics[metric] = (float(value), noise, units)

    def _sample(self) -> None:
        if not self.client.daemon.up or not self.online:
            return
        for metric, (nominal, noise, units) in self.metrics.items():
            value = nominal + (self._rng.random() * 2 - 1) * noise
            reading = DataObject(self.client.registry, SENSOR_READING_TYPE, {
                "plant": self.plant, "station": self.station,
                "metric": metric, "value": value, "units": units})
            self.client.publish(
                sensor_subject(self.plant, self.station, metric), reading)
            self.readings_published += 1

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        if self._config_subscription is not None:
            self.client.unsubscribe(self._config_subscription)
            self._config_subscription = None


class CellController:
    """Watches every station in a plant; raises alarms on limit breaches.

    Subscribes with a wildcard (``<plant>.cc.*.*``), so stations added to
    the plant later are monitored with no reconfiguration (P4 again).
    """

    def __init__(self, client: BusClient, plant: str,
                 limits: Optional[Dict[str, Tuple[float, float]]] = None):
        self.client = client
        self.plant = plant
        #: metric -> (low limit, high limit)
        self.limits: Dict[str, Tuple[float, float]] = dict(limits or {})
        self.latest: Dict[Tuple[str, str], float] = {}
        self.readings_seen = 0
        self.alarms_raised = 0
        register_factory_types(client.registry)
        self._subscription = client.subscribe(f"{plant}.cc.*.*",
                                              self._on_reading)

    def _on_reading(self, subject: str, obj: Any,
                    info: MessageInfo) -> None:
        if not (isinstance(obj, DataObject)
                and obj.is_a(SENSOR_READING_TYPE)):
            return
        station, metric = obj.get("station"), obj.get("metric")
        value = obj.get("value")
        self.latest[(station, metric)] = value
        self.readings_seen += 1
        bounds = self.limits.get(metric)
        if bounds is None:
            return
        low, high = bounds
        direction = "low" if value < low else "high" if value > high \
            else None
        if direction is None:
            return
        self.alarms_raised += 1
        alarm = DataObject(self.client.registry, ALARM_TYPE, {
            "plant": self.plant, "station": station, "metric": metric,
            "value": value, "limit": low if direction == "low" else high,
            "direction": direction})
        self.client.publish(f"{self.plant}.alarm.{station}.{metric}",
                            alarm)

    def reading(self, station: str, metric: str) -> Optional[float]:
        return self.latest.get((station, metric))

    def stop(self) -> None:
        self.client.unsubscribe(self._subscription)
