"""Type descriptors: the vocabulary of the meta-object protocol (P2).

A *type* is "an abstraction whose behavior is defined by an interface that
is completely specified by a set of operations"; types form a supertype/
subtype hierarchy (paper, footnote 2).  Data types additionally declare
attributes.  Everything here is plain metadata — instances live in
:mod:`repro.objects.data_object`, implementations of service operations in
:mod:`repro.objects.service`.

Type names are strings.  Attribute/parameter types may be:

* a fundamental type: ``int``, ``float``, ``bool``, ``string``, ``bytes``,
  ``any``, ``void`` (operations only);
* a registered object type name (e.g. ``story``), meaning a nested
  :class:`~repro.objects.data_object.DataObject` of that type or a subtype;
* a parameterized container: ``list<T>`` or ``map<T>`` (string-keyed).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FUNDAMENTAL_TYPES", "ROOT_TYPE", "AttributeSpec", "OperationSpec",
    "ParamSpec", "TypeDescriptor", "TypeError_", "parse_type_name",
]

#: The root of the object hierarchy; every object type descends from it.
ROOT_TYPE = "object"

#: What satisfies each fundamental (non-object) type, stated once for
#: the validator and the decoder alike: ``(the Python classes a value
#: may be, the classes it may not be, the wire tags that carry it)``.
#: bool is an int subclass in Python, so int and float reject it; ``any``
#: has no tags, since no tag proves a value of it.
_FUNDAMENTALS = {
    "int": (int, bool, b"i"),
    "float": ((int, float), bool, b"di"),
    "bool": (bool, (), b"TF"),
    "string": (str, (), b"s"),
    "bytes": (bytes, (), b"b"),
    "any": (object, (), b""),
}

#: Fundamental (non-object) types the generic tools must understand.
FUNDAMENTAL_TYPES = tuple(_FUNDAMENTALS)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


class TypeError_(Exception):
    """Raised for malformed descriptors or type-check failures.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


def parse_type_name(type_name: str) -> Tuple[str, Optional[str]]:
    """Split ``"list<story>"`` into ``("list", "story")``.

    Plain names return ``(name, None)``.  Raises :class:`TypeError_` on
    malformed parameterizations like ``"list<"`` or ``"map<a><b>"``.
    """
    if "<" not in type_name:
        if not _NAME_RE.match(type_name):
            raise TypeError_(f"malformed type name: {type_name!r}")
        return type_name, None
    match = re.match(r"^(list|map)<(.+)>$", type_name)
    if not match:
        raise TypeError_(f"malformed parameterized type: {type_name!r}")
    outer, inner = match.group(1), match.group(2)
    # validate the inner type recursively (supports list<list<int>>)
    parse_type_name(inner)
    return outer, inner


@dataclass(frozen=True)
class AttributeSpec:
    """One named, typed attribute of a data type."""

    name: str
    type_name: str
    required: bool = True
    doc: str = ""

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise TypeError_(f"malformed attribute name: {self.name!r}")
        parse_type_name(self.type_name)


@dataclass(frozen=True)
class ParamSpec:
    """One named, typed operation parameter."""

    name: str
    type_name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise TypeError_(f"malformed parameter name: {self.name!r}")
        parse_type_name(self.type_name)


@dataclass(frozen=True)
class OperationSpec:
    """One operation in a type's interface.

    The signature — parameter names/types and result type — is part of the
    meta-object protocol: generic tools (the application builder, Section
    5.1) build interaction dialogs from it without compiled stubs.
    """

    name: str
    params: Tuple[ParamSpec, ...] = ()
    result_type: str = "void"
    doc: str = ""

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise TypeError_(f"malformed operation name: {self.name!r}")
        if self.result_type != "void":
            parse_type_name(self.result_type)
        object.__setattr__(self, "params", tuple(self.params))
        seen = set()
        for param in self.params:
            if param.name in seen:
                raise TypeError_(
                    f"operation {self.name!r}: duplicate parameter "
                    f"{param.name!r}")
            seen.add(param.name)

    def signature(self) -> str:
        """Human-readable signature, e.g. ``lookup(category: string) -> list<string>``."""
        params = ", ".join(f"{p.name}: {p.type_name}" for p in self.params)
        return f"{self.name}({params}) -> {self.result_type}"


class TypeDescriptor:
    """The self-description of one type: supertype, attributes, operations.

    Descriptors are immutable after construction; evolution happens by
    registering *new* types (P3), never by mutating existing ones —
    matching the paper's model where old software keeps working because
    descriptors it already holds never change underneath it.
    """

    def __init__(self, name: str, supertype: Optional[str] = ROOT_TYPE,
                 attributes: Optional[List[AttributeSpec]] = None,
                 operations: Optional[List[OperationSpec]] = None,
                 doc: str = ""):
        if not _NAME_RE.match(name):
            raise TypeError_(f"malformed type name: {name!r}")
        if name in FUNDAMENTAL_TYPES:
            raise TypeError_(f"cannot redefine fundamental type {name!r}")
        self.name = name
        self.supertype = supertype if name != ROOT_TYPE else None
        if self.supertype is not None and not _NAME_RE.match(self.supertype):
            raise TypeError_(f"malformed supertype name: {supertype!r}")
        self.doc = doc
        self._attributes: Dict[str, AttributeSpec] = {}
        for attr in attributes or []:
            if attr.name in self._attributes:
                raise TypeError_(
                    f"type {name!r}: duplicate attribute {attr.name!r}")
            self._attributes[attr.name] = attr
        self._operations: Dict[str, OperationSpec] = {}
        for op in operations or []:
            if op.name in self._operations:
                raise TypeError_(
                    f"type {name!r}: duplicate operation {op.name!r}")
            self._operations[op.name] = op
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # meta-object protocol (own declarations only; see TypeRegistry for
    # the inherited view)
    # ------------------------------------------------------------------
    def own_attributes(self) -> List[AttributeSpec]:
        return list(self._attributes.values())

    def own_attribute(self, name: str) -> Optional[AttributeSpec]:
        return self._attributes.get(name)

    def own_operations(self) -> List[OperationSpec]:
        return list(self._operations.values())

    def own_operation(self, name: str) -> Optional[OperationSpec]:
        return self._operations.get(name)

    def describe(self) -> Dict:
        """Plain-data self-description (what travels in inline metadata)."""
        return {
            "name": self.name,
            "supertype": self.supertype,
            "doc": self.doc,
            "attributes": [
                {"name": a.name, "type": a.type_name,
                 "required": a.required, "doc": a.doc}
                for a in self._attributes.values()
            ],
            "operations": [
                {"name": o.name, "result": o.result_type, "doc": o.doc,
                 "params": [{"name": p.name, "type": p.type_name}
                            for p in o.params]}
                for o in self._operations.values()
            ],
        }

    @classmethod
    def from_description(cls, desc: Dict) -> "TypeDescriptor":
        """Inverse of :meth:`describe` — rebuild a descriptor from the wire.

        ``desc`` is untrusted: anything that is not the shape
        :meth:`describe` produces raises :class:`TypeError_`.
        """
        try:
            descriptor = cls(
                name=desc["name"],
                supertype=desc.get("supertype"),
                attributes=[
                    AttributeSpec(a["name"], a["type"],
                                  required=a.get("required", True),
                                  doc=a.get("doc", ""))
                    for a in desc.get("attributes", [])
                ],
                operations=[
                    OperationSpec(
                        o["name"],
                        params=tuple(ParamSpec(p["name"], p["type"])
                                     for p in o.get("params", [])),
                        result_type=o.get("result", "void"),
                        doc=o.get("doc", ""))
                    for o in desc.get("operations", [])
                ],
                doc=desc.get("doc", ""),
            )
            # the canonical-JSON rendering refuses what describe() could
            # never have produced (bytes, objects); the registry compares
            # fingerprints next anyway
            descriptor.fingerprint()
            return descriptor
        except (KeyError, TypeError, AttributeError) as error:
            raise TypeError_(
                f"malformed type description: {error!r}") from None

    def fingerprint(self) -> str:
        """Stable content hash of :meth:`describe`.

        Two descriptors share a fingerprint iff they declare the same
        interface; the hash is over a canonical (sorted-key) JSON
        rendering, so attribute/operation *declaration order* matters —
        it is part of the wire format — while dict iteration quirks do
        not.  The session type plane (:mod:`repro.core.typeplane`) keys
        its dense wire ids on this value, which is how a TDL
        ``defclass`` that changes a type's shape mid-session propagates:
        the new shape hashes differently, gets a fresh id, and is
        re-defined in-band on next use.  Memoized — descriptors are
        immutable after construction.
        """
        if self._fingerprint is None:
            canonical = json.dumps(
                self.describe(), sort_keys=True, separators=(",", ":"))
            self._fingerprint = hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()
        return self._fingerprint

    def same_shape(self, other: "TypeDescriptor") -> bool:
        """True if ``other`` declares an identical interface (idempotent
        re-registration check for dynamically distributed types)."""
        return self.fingerprint() == other.fingerprint()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TypeDescriptor {self.name} : {self.supertype} "
                f"attrs={len(self._attributes)} ops={len(self._operations)}>")
