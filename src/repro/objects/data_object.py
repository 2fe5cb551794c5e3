"""Self-describing data objects (P2).

A :class:`DataObject` is an instance of a registered type: a bag of typed,
validated attributes plus the meta-object protocol — ``type_name``,
``attribute_names()``, ``attribute_type()``, ``operations()`` — that lets
generic tools (the print utility, the repository's schema mapper, the
application builder) operate on objects of types they were never compiled
against.

Every object carries an ``oid``, a process-unique identity used by the
repository as the primary key and by :class:`~repro.objects.properties`
Property objects to reference the object they annotate.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from .registry import TypeRegistry
from .types import (_FUNDAMENTALS, AttributeSpec, OperationSpec,
                    TypeDescriptor, TypeError_, parse_type_name)

__all__ = ["DataObject", "check_value", "ValidationError"]

_oid_counter = itertools.count(1)
_new_instance = object.__new__


def _new_oid(type_name: str) -> str:
    return f"{type_name}:{next(_oid_counter):08d}"


class ValidationError(TypeError_):
    """An attribute value does not conform to its declared type."""


class _Rule:
    """Which values satisfy one declared attribute type, compiled once per
    (registry, type name) and memoised on the registry: the classes a
    value may (``accepted``) and may not (``rejected``) be, the wire tags
    that can carry such a value (``tags``), the rule each item of a
    ``list<T>`` or ``map<T>`` obeys (``items``), and the object type a
    value must equal or descend from (``type_name``; the registry is asked
    per value, so a subtype registered later is accepted).  :meth:`check`
    validates a Python value; the decoder reads the same fields to prove
    a value from its tags (:mod:`~repro.objects.marshal`)."""

    __slots__ = ("kind", "accepted", "rejected", "tags", "items",
                 "type_name", "registry")

    def __init__(self, kind: str, accepted, rejected, tags: bytes,
                 items: Optional["_Rule"] = None,
                 type_name: Optional[str] = None,
                 registry: Optional[TypeRegistry] = None) -> None:
        self.kind = kind
        self.accepted = accepted
        self.rejected = rejected
        self.tags = tags
        self.items = items
        self.type_name = type_name
        self.registry = registry

    def check(self, value: Any) -> None:
        """Raise :class:`ValidationError` unless ``value`` obeys the rule."""
        if not isinstance(value, self.accepted) or isinstance(
                value, self.rejected):
            raise ValidationError(f"expected {self.kind}, got {value!r}")
        items = self.items
        if items is None:
            if self.type_name is not None and not self.registry.is_subtype(
                    value._type_name, self.type_name):
                raise ValidationError(
                    f"expected {self.kind}, got {value._type_name!r}")
        elif isinstance(value, dict):
            for key, item in value.items():
                if not isinstance(key, str):
                    raise ValidationError(
                        f"map keys must be strings, got {key!r}")
                items.check(item)
        else:
            for item in value:
                items.check(item)


def _rule(registry: TypeRegistry, type_name: str) -> _Rule:
    """The compiled rule for ``type_name``, built on first use:
    ``parse_type_name`` runs here, once per distinct type name per
    registry, and the rule only tests values."""
    rule = registry._rules.get(type_name)
    if rule is None:
        outer, inner = parse_type_name(type_name)
        if inner is not None:
            accepted, tags = (list, b"l") if outer == "list" else (dict, b"m")
            rule = _Rule(outer, accepted, (), tags,
                         items=_rule(registry, inner))
        elif outer in _FUNDAMENTALS:
            rule = _Rule(outer, *_FUNDAMENTALS[outer])
        else:
            rule = _Rule(f"object of type {outer!r}", DataObject, (), b"Oo",
                         type_name=outer, registry=registry)
        registry._rules[type_name] = rule
    return rule


def check_value(registry: TypeRegistry, type_name: str, value: Any) -> None:
    """Validate ``value`` against ``type_name``; raise :class:`ValidationError`.

    Implements the full attribute-type vocabulary: fundamentals, ``any``,
    object types (subtype instances accepted), ``list<T>`` and ``map<T>``.
    """
    _rule(registry, type_name).check(value)


class _InstancePlan:
    """What constructing and reading an instance of one type needs,
    derived once per (registry, type) and memoised on the registry."""

    __slots__ = ("descriptor", "specs", "rules", "required")

    def __init__(self, registry: TypeRegistry, type_name: str) -> None:
        self.descriptor = registry.get(type_name)   # raises on unknown type
        #: attribute name -> spec, inherited first (the registry's table)
        self.specs: Dict[str, AttributeSpec] = registry._attributes[type_name]
        self.rules = {name: _rule(registry, spec.type_name)
                      for name, spec in self.specs.items()}
        self.required = tuple(name for name, spec in self.specs.items()
                              if spec.required)


def _plan_for(registry: TypeRegistry, type_name: str) -> _InstancePlan:
    plan = registry._plans.get(type_name)
    if plan is None:
        plan = registry._plans[type_name] = _InstancePlan(registry, type_name)
    return plan


def _prevalidated(registry: TypeRegistry, plan: _InstancePlan, type_name: str,
                  attrs: Dict[str, Any], oid: str) -> "DataObject":
    """An instance of ``plan``'s type owning ``attrs``, which the caller
    has already proven: every name declared, every value of its declared
    type, every required name present.  The oid is generated exactly as
    the constructor would."""
    obj = _new_instance(DataObject)
    obj._registry = registry
    obj._plan = plan
    obj._type_name = type_name
    obj._attrs = attrs
    obj.oid = oid or _new_oid(type_name)
    return obj


class DataObject:
    """An instance of a registered type, validated against its descriptor."""

    __slots__ = ("_registry", "_plan", "_type_name", "_attrs", "oid")

    def __init__(self, registry: TypeRegistry, type_name: str,
                 attributes: Optional[Dict[str, Any]] = None,
                 oid: Optional[str] = None, **kwargs: Any):
        plan = _plan_for(registry, type_name)
        self._registry = registry
        self._plan = plan
        self._type_name = type_name
        self._attrs: Dict[str, Any] = {}
        self.oid = oid or _new_oid(type_name)
        values = {**attributes, **kwargs} if attributes else kwargs
        attrs, rules = self._attrs, plan.rules
        for name, value in values.items():
            rule = rules.get(name)
            if rule is None:
                raise ValidationError(
                    f"type {type_name!r} has no attribute {name!r}")
            rule.check(value)
            attrs[name] = value
        for name in plan.required:
            if name not in attrs:
                missing = [n for n in plan.required if n not in attrs]
                raise ValidationError(
                    f"type {type_name!r}: missing required attributes "
                    f"{missing}")

    # ------------------------------------------------------------------
    # meta-object protocol
    # ------------------------------------------------------------------
    @property
    def type_name(self) -> str:
        return self._type_name

    @property
    def registry(self) -> TypeRegistry:
        return self._registry

    def descriptor(self) -> TypeDescriptor:
        return self._plan.descriptor

    def attribute_names(self) -> List[str]:
        """Declared attribute names (inherited first), set or not."""
        return list(self._plan.specs)

    def _declared(self, name: str) -> AttributeSpec:
        spec = self._plan.specs.get(name)
        if spec is None:
            raise ValidationError(
                f"type {self._type_name!r} has no attribute {name!r}")
        return spec

    def attribute_type(self, name: str) -> str:
        return self._declared(name).type_name

    def attribute_specs(self) -> List[AttributeSpec]:
        return list(self._plan.specs.values())

    def operations(self) -> List[OperationSpec]:
        return self._registry.all_operations(self._type_name)

    def is_a(self, type_name: str) -> bool:
        """True if this object's type equals or descends from ``type_name``."""
        return self._registry.is_subtype(self._type_name, type_name)

    # ------------------------------------------------------------------
    # attribute access
    # ------------------------------------------------------------------
    def get(self, name: str, default: Any = None) -> Any:
        self._declared(name)   # raise on undeclared name
        return self._attrs.get(name, default)

    def set(self, name: str, value: Any) -> None:
        self._declared(name)
        self._plan.rules[name].check(value)
        self._attrs[name] = value

    def has(self, name: str) -> bool:
        return name in self._attrs

    def as_dict(self) -> Dict[str, Any]:
        """Shallow copy of the set attributes (no recursion into children)."""
        return dict(self._attrs)

    def __eq__(self, other: Any) -> bool:
        """Structural equality: same type, same attribute values.

        The oid is identity, not state, so it does not participate — an
        object decoded off the wire equals the one that was published.
        """
        return (isinstance(other, DataObject)
                and other._type_name == self._type_name
                and other._attrs == self._attrs)

    def __hash__(self) -> int:
        return hash(self._type_name)     # equal objects share a type

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self._attrs.items()))
        return f"{self._type_name}({attrs})"
