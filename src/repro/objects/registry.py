"""The type registry: dynamic classing support (P3).

A :class:`TypeRegistry` holds every :class:`~repro.objects.types.
TypeDescriptor` known to one process.  New types may be registered at any
time — by TDL ``defclass`` forms, by the marshalling layer when a message
arrives carrying inline metadata (or references session type-plane
typedefs, see :mod:`~repro.core.typeplane`) for a type this process has
never seen, or directly through the API.  The Object Repository extends
its database schema on the fly (Section 5.2) by making a new type's
tables the first time it stores an instance.

Idempotent re-registration is decided by descriptor *fingerprint*
(:meth:`~repro.objects.types.TypeDescriptor.same_shape`): two processes
that independently learn the same type off the wire converge, while a
conflicting shape for an already-registered name raises — whether the
conflict arrives inline or through the type plane.

The registry is append-only and descriptors are immutable, so anything
that depends only on *(registry, type)* is derived once and never goes
stale: the supertype chain and the merged attribute table are filled in
at registration; the instance plan and attribute-type rules
(:mod:`~repro.objects.data_object`) and the dependency closures
(:mod:`~repro.objects.marshal`) are memoised here on first use.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from .types import (FUNDAMENTAL_TYPES, ROOT_TYPE, AttributeSpec,
                    TypeDescriptor, TypeError_, parse_type_name)

__all__ = ["TypeRegistry"]


class TypeRegistry:
    """All types known to one process, with hierarchy-aware queries."""

    def __init__(self) -> None:
        self._types: Dict[str, TypeDescriptor] = {}
        self._subtypes: Dict[str, List[str]] = {}
        # derived views, valid for the registry's lifetime (see module doc)
        #: name -> itself and its ancestors, most-derived first
        self._chains: Dict[str, Tuple[str, ...]] = {}
        #: name -> every attribute including inherited, supertype's first
        self._attributes: Dict[str, Dict[str, AttributeSpec]] = {}
        #: memos owned here, compiled by data_object (instance plan per
        #: type name, rule per attribute-type name: the one statement of
        #: which values satisfy it, read by the validator and the decoder)
        #: and marshal (reader per object type, dependency closure per set
        #: of instance types, session descriptors already accepted)
        self._plans: Dict[str, object] = {}
        self._rules: Dict[str, object] = {}
        self._readers: Dict[str, object] = {}
        self._closures: Dict[frozenset, Tuple[TypeDescriptor, ...]] = {}
        self._accepted: Set[TypeDescriptor] = set()
        self.register(TypeDescriptor(ROOT_TYPE, supertype=None,
                                     doc="root of the object hierarchy"))

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, descriptor: TypeDescriptor) -> TypeDescriptor:
        """Register a new type.

        Re-registering a type with an *identical* interface is a no-op
        (two processes can independently learn the same type off the
        wire); re-registering with a different interface raises.
        """
        existing = self._types.get(descriptor.name)
        if existing is not None:
            if existing.same_shape(descriptor):
                return existing
            raise TypeError_(
                f"type {descriptor.name!r} already registered with a "
                f"different interface")
        if descriptor.supertype is not None:
            if descriptor.supertype not in self._types:
                raise TypeError_(
                    f"type {descriptor.name!r}: unknown supertype "
                    f"{descriptor.supertype!r}")
        for attr in descriptor.own_attributes():
            self._check_type_ref(descriptor.name, attr.type_name)
        for op in descriptor.own_operations():
            if op.result_type != "void":
                self._check_type_ref(descriptor.name, op.result_type)
            for param in op.params:
                self._check_type_ref(descriptor.name, param.type_name)
        inherited = self._attributes.get(descriptor.supertype, {})
        for attr in descriptor.own_attributes():
            # a subtype may not redeclare an inherited attribute name
            if attr.name in inherited:
                raise TypeError_(
                    f"type {descriptor.name!r} redeclares inherited "
                    f"attribute {attr.name!r}")
        self._types[descriptor.name] = descriptor
        self._chains[descriptor.name] = (
            (descriptor.name,) + self._chains.get(descriptor.supertype, ()))
        self._attributes[descriptor.name] = {
            **inherited, **{a.name: a for a in descriptor.own_attributes()}}
        if descriptor.supertype is not None:
            self._subtypes.setdefault(descriptor.supertype, []).append(
                descriptor.name)
        return descriptor

    def _check_type_ref(self, owner: str, type_name: str) -> None:
        outer, inner = parse_type_name(type_name)
        if inner is not None:
            self._check_type_ref(owner, inner)
            return
        if outer in FUNDAMENTAL_TYPES or outer == owner:
            return
        if outer not in self._types:
            raise TypeError_(
                f"type {owner!r} references unknown type {outer!r}")

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @staticmethod
    def _lookup(table: Dict, name: str):
        try:
            return table[name]
        except KeyError:
            raise TypeError_(f"unknown type: {name!r}") from None

    def get(self, name: str) -> TypeDescriptor:
        return self._lookup(self._types, name)

    def has(self, name: str) -> bool:
        return name in self._types

    def names(self) -> List[str]:
        return sorted(self._types)

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[TypeDescriptor]:
        return iter(self._types.values())

    # ------------------------------------------------------------------
    # hierarchy queries
    # ------------------------------------------------------------------
    def supertype_chain(self, name: str) -> List[str]:
        """``name`` and its ancestors, most-derived first, ending at root."""
        return list(self._lookup(self._chains, name))

    def is_subtype(self, name: str, ancestor: str) -> bool:
        """True if ``name`` equals or descends from ``ancestor``."""
        return ancestor in self._lookup(self._chains, name)

    def subtypes_of(self, name: str, transitive: bool = True) -> List[str]:
        """Direct (or all transitive) subtypes of ``name``, sorted."""
        self.get(name)   # raise on unknown
        direct = self._subtypes.get(name, [])
        if not transitive:
            return sorted(direct)
        out = []
        stack = list(direct)
        while stack:
            child = stack.pop()
            out.append(child)
            stack.extend(self._subtypes.get(child, []))
        return sorted(out)

    # ------------------------------------------------------------------
    # inherited views (the MOP answers merged declarations)
    # ------------------------------------------------------------------
    def all_attributes(self, name: str) -> List[AttributeSpec]:
        """Every attribute of ``name`` including inherited ones.

        Supertype attributes come first, matching the paper's repository
        mapping where supertype columns are shared across subtypes.
        """
        return list(self._lookup(self._attributes, name).values())

    def attribute(self, name: str, attr_name: str):
        return self._lookup(self._attributes, name).get(attr_name)

    def all_operations(self, name: str) -> List:
        """Every operation of ``name``; subtype declarations override."""
        merged: Dict[str, object] = {}
        for type_name in reversed(self._lookup(self._chains, name)):
            for op in self._types[type_name].own_operations():
                merged[op.name] = op
        return list(merged.values())

    def operation(self, name: str, op_name: str):
        for type_name in self._lookup(self._chains, name):
            op = self._types[type_name].own_operation(op_name)
            if op is not None:
                return op
        return None
