"""Self-describing object model (design principle P2).

Types are metadata (:class:`TypeDescriptor`), organized in a supertype/
subtype hierarchy inside a :class:`TypeRegistry` that supports dynamic
registration (P3).  :class:`DataObject` instances validate against their
descriptors and answer the meta-object protocol; :mod:`~repro.objects.
marshal` moves them (and, optionally, their type metadata) across the
wire.  Only what the bus uses is exported here; the layers above it
are imported from their modules: :mod:`~repro.objects.service`
(``ServiceObject``, invocable interfaces), :mod:`~repro.objects.printer`
(``render``) and :mod:`~repro.objects.properties`.
"""

from .types import (AttributeSpec, FUNDAMENTAL_TYPES, OperationSpec,
                    ParamSpec, ROOT_TYPE, TypeDescriptor, TypeError_,
                    parse_type_name)
from .registry import TypeRegistry
from .data_object import DataObject, ValidationError, check_value
from .builtin_types import PROPERTY_TYPE, standard_registry
from .marshal import (MarshalError, UnknownTypeError, decode, encode,
                      encode_typed, encoded_size, type_closure)

__all__ = [
    "AttributeSpec", "DataObject", "FUNDAMENTAL_TYPES", "MarshalError",
    "OperationSpec", "PROPERTY_TYPE", "ParamSpec", "ROOT_TYPE",
    "TypeDescriptor", "TypeError_", "TypeRegistry", "UnknownTypeError",
    "ValidationError", "check_value", "decode", "encode", "encode_typed",
    "encoded_size", "parse_type_name", "standard_registry", "type_closure",
]
