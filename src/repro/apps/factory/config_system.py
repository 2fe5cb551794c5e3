"""The Factory Configuration System (mentioned in Section 5.1).

"The system for storing factory control information": equipment
configurations live in an Object Repository store and are served over
RMI, so the application builder can generate its front-end from the
interface metadata — which is precisely what the paper says it was used
for ("the frontend to a Factory Configuration System").

Configuration changes are also *published* (on
``<plant>.config.<station>``), so running equipment picks up new recipes
without polling.
"""

from __future__ import annotations

from typing import List, Optional

from ...core import BusClient
from ...core.rmi import RmiServer
from ...objects import (AttributeSpec, DataObject, OperationSpec, ParamSpec,
                        TypeDescriptor, TypeRegistry)
from ...objects.service import ServiceObject
from ...repository import Database, ObjectStore

__all__ = ["EQUIPMENT_CONFIG_TYPE", "FACTORY_CONFIG_SERVICE_TYPE",
           "FactoryConfigSystem", "register_config_types"]

EQUIPMENT_CONFIG_TYPE = "equipment_config"
FACTORY_CONFIG_SERVICE_TYPE = "factory_config_service"


def register_config_types(registry: TypeRegistry) -> None:
    """Register config object + service types (idempotent)."""
    if not registry.has(EQUIPMENT_CONFIG_TYPE):
        registry.register(TypeDescriptor(
            EQUIPMENT_CONFIG_TYPE,
            attributes=[
                AttributeSpec("plant", "string"),
                AttributeSpec("station", "string"),
                AttributeSpec("equipment_type", "string",
                              doc="e.g. 'litho', 'etch'"),
                AttributeSpec("recipe", "string",
                              doc="the active process recipe name"),
                AttributeSpec("parameters", "map<float>", required=False),
                AttributeSpec("online", "bool"),
            ],
            doc="control configuration for one station"))
    if not registry.has(FACTORY_CONFIG_SERVICE_TYPE):
        registry.register(TypeDescriptor(
            FACTORY_CONFIG_SERVICE_TYPE,
            operations=[
                OperationSpec("get_config",
                              params=(ParamSpec("station", "string"),),
                              result_type=EQUIPMENT_CONFIG_TYPE),
                OperationSpec("set_config",
                              params=(ParamSpec(
                                  "config", EQUIPMENT_CONFIG_TYPE),)),
                OperationSpec("stations", result_type="list<string>"),
                OperationSpec("take_offline",
                              params=(ParamSpec("station", "string"),)),
            ],
            doc="store and serve factory control information"))


class FactoryConfigSystem:
    """Stores equipment configs; serves them over RMI; publishes changes."""

    def __init__(self, client: BusClient, plant: str):
        self.client = client
        self.plant = plant
        register_config_types(client.registry)
        self.store = ObjectStore(Database(f"{plant}.config"),
                                 client.registry)
        service = ServiceObject(client.registry,
                                FACTORY_CONFIG_SERVICE_TYPE)
        service.implement("get_config", self._get_config)
        service.implement("set_config", self._set_config)
        service.implement("stations", self._stations)
        service.implement("take_offline", self._take_offline)
        self.rmi = RmiServer(client, f"svc.{plant}.config", service)
        self.changes_published = 0

    # ------------------------------------------------------------------
    def _find(self, station: str) -> Optional[DataObject]:
        hits = self.store.query(EQUIPMENT_CONFIG_TYPE, station=station,
                                plant=self.plant)
        return hits[0] if hits else None

    def _get_config(self, station: str) -> DataObject:
        config = self._find(station)
        if config is None:
            raise KeyError(f"no configuration for station {station!r}")
        return config

    def _set_config(self, config: DataObject) -> None:
        existing = self._find(config.get("station"))
        if existing is not None and existing.oid != config.oid:
            self.store.delete(existing.oid)
        self.store.store(config)
        self._announce(config)

    def _stations(self) -> List[str]:
        return sorted(c.get("station")
                      for c in self.store.query(EQUIPMENT_CONFIG_TYPE,
                                                plant=self.plant))

    def _take_offline(self, station: str) -> None:
        config = self._get_config(station)
        config.set("online", False)
        self.store.store(config)
        self._announce(config)

    def _announce(self, config: DataObject) -> None:
        self.changes_published += 1
        self.client.publish(
            f"{self.plant}.config.{config.get('station')}", config)

    def stop(self) -> None:
        self.rmi.stop()
