"""The Object Repository's query-server configuration.

Exposes the store over RMI as a self-describing service: clients discover
it by subject, browse its interface through the meta-object protocol, and
query objects back — including instances of subtypes introduced after the
server started (Section 5.2's evolution scenario).
"""

from __future__ import annotations

from ..core import BusClient
from ..core.rmi import RmiServer
from ..objects import OperationSpec, ParamSpec, TypeDescriptor
from ..objects.service import ServiceObject
from .object_store import ObjectStore

__all__ = ["QUERY_SERVICE_TYPE", "QueryServer", "register_query_interface"]

#: The service type name under which query servers describe themselves.
QUERY_SERVICE_TYPE = "repository_query_service"


def register_query_interface(registry) -> None:
    """Register the query service's interface type (idempotent)."""
    if registry.has(QUERY_SERVICE_TYPE):
        return
    registry.register(TypeDescriptor(
        QUERY_SERVICE_TYPE,
        operations=[
            OperationSpec(
                "find",
                params=(ParamSpec("type_name", "string"),
                        ParamSpec("attribute", "string"),
                        ParamSpec("value", "any")),
                result_type="list<object>",
                doc="objects of type_name (or subtypes) whose attribute "
                    "equals value"),
            OperationSpec(
                "find_all",
                params=(ParamSpec("type_name", "string"),),
                result_type="list<object>",
                doc="every stored object of type_name (or subtypes)"),
            OperationSpec(
                "find_where",
                params=(ParamSpec("type_name", "string"),
                        ParamSpec("predicate", "map<any>"),
                        ParamSpec("order_by", "string"),
                        ParamSpec("limit", "int")),
                result_type="list<object>",
                doc="objects matching a serialized predicate tree "
                    "(see repro.repository.predicate_to_wire); "
                    "order_by '' for unordered, limit 0 for no limit"),
            OperationSpec(
                "fetch",
                params=(ParamSpec("oid", "string"),),
                result_type="object",
                doc="the object stored under oid"),
            OperationSpec(
                "tally",
                params=(ParamSpec("type_name", "string"),),
                result_type="int",
                doc="how many objects of type_name (or subtypes) exist"),
            OperationSpec(
                "stored_types",
                result_type="list<string>",
                doc="type names with at least one materialized schema"),
        ],
        doc="query access to the Object Repository"))


class QueryServer:
    """Wraps an :class:`ObjectStore` in an RMI service on a subject."""

    def __init__(self, client: BusClient, store: ObjectStore,
                 service_subject: str = "svc.repository",
                 rank: int = 0, exclusive: bool = False):
        self.client = client
        self.store = store
        register_query_interface(client.registry)
        service = ServiceObject(client.registry, QUERY_SERVICE_TYPE)
        service.implement("find", self._find)
        service.implement("find_all", self._find_all)
        service.implement("find_where", self._find_where)
        service.implement("fetch", self._fetch)
        service.implement("tally", self._tally)
        service.implement("stored_types", self._stored_types)
        self.rmi = RmiServer(client, service_subject, service, rank=rank,
                             exclusive=exclusive)

    def _find(self, type_name: str, attribute: str, value):
        return self.store.query(type_name, **{attribute: value})

    def _find_all(self, type_name: str):
        return self.store.query(type_name)

    def _find_where(self, type_name: str, predicate: dict,
                    order_by: str, limit: int):
        from .query import predicate_from_wire
        return self.store.query(
            type_name, predicate=predicate_from_wire(predicate),
            order_by=order_by or None,
            limit=limit if limit > 0 else None)

    def _fetch(self, oid: str):
        return self.store.load(oid)

    def _tally(self, type_name: str) -> int:
        return self.store.count(type_name)

    def _stored_types(self):
        return self.store.mapper.known_schemas()

    def stop(self) -> None:
        self.rmi.stop()
