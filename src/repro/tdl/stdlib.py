"""TDL built-in functions.

Everything here is an ordinary first-class value in the global
environment, callable from TDL code.  The object-model builtins
(``make-instance``, ``slot-value``, ``attribute-names`` ...) surface the
meta-object protocol so TDL scripts — e.g. application-builder views —
can introspect and manipulate objects of types they have never seen.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, List

from ..objects import DataObject
from ..objects.printer import render
from ..objects.properties import make_property
from .errors import TdlArityError, TdlError
from .evaluator import is_nil
from .reader import Keyword, Symbol, to_source

__all__ = ["install_stdlib"]


def _sym_or_str(value: Any, what: str) -> str:
    if isinstance(value, (Symbol, str)):
        return str(value)
    raise TdlError(f"{what}: expected a symbol or string, got {value!r}")


def _numeric_fold(op, identity=None, name="?"):
    def fold(*args):
        if not args:
            if identity is None:
                raise TdlArityError(f"{name}: needs at least one argument")
            return identity
        return functools.reduce(op, args)
    return fold


def _sub(*args):
    if not args:
        raise TdlArityError("-: needs at least one argument")
    if len(args) == 1:
        return -args[0]
    return functools.reduce(operator.sub, args)


def _div(*args):
    if not args:
        raise TdlArityError("/: needs at least one argument")
    if len(args) == 1:
        return 1 / args[0]
    try:
        return functools.reduce(operator.truediv, args)
    except ZeroDivisionError:
        raise TdlError("/: division by zero") from None


def _chain_compare(op):
    def compare(*args):
        if len(args) < 2:
            raise TdlArityError("comparison needs at least two arguments")
        return all(op(a, b) for a, b in zip(args, args[1:]))
    return compare


def _equal(*args):
    if len(args) < 2:
        raise TdlArityError("=: needs at least two arguments")
    first = args[0]
    return all(a == first for a in args[1:])


def install_stdlib(interp) -> None:
    """Install the standard library into ``interp``'s global environment."""
    env = interp.globals
    registry = interp.registry

    # ------------------------------------------------------------------
    # arithmetic & comparison
    # ------------------------------------------------------------------
    env.define("+", _numeric_fold(operator.add, 0, "+"))
    env.define("-", _sub)
    env.define("*", _numeric_fold(operator.mul, 1, "*"))
    env.define("/", _div)
    env.define("mod", lambda a, b: a % b)
    env.define("min", lambda *a: min(a))
    env.define("max", lambda *a: max(a))
    env.define("abs", abs)
    env.define("<", _chain_compare(operator.lt))
    env.define(">", _chain_compare(operator.gt))
    env.define("<=", _chain_compare(operator.le))
    env.define(">=", _chain_compare(operator.ge))
    env.define("=", _equal)
    env.define("/=", lambda a, b: a != b)
    env.define("not", lambda x: is_nil(x))

    # ------------------------------------------------------------------
    # lists
    # ------------------------------------------------------------------
    env.define("list", lambda *items: list(items))
    env.define("length", len)
    env.define("nth", lambda n, seq: seq[n] if 0 <= n < len(seq) else None)
    env.define("first", lambda seq: seq[0] if seq else None)
    env.define("rest", lambda seq: list(seq[1:]) if seq else [])
    env.define("last", lambda seq: seq[-1] if seq else None)
    env.define("append", lambda *seqs: [x for s in seqs for x in (s or [])])
    env.define("cons", lambda x, seq: [x] + list(seq or []))
    env.define("reverse", lambda seq: list(reversed(seq)))
    env.define("member", lambda x, seq: x in (seq or []))
    env.define("mapcar", lambda f, seq: [f(x) for x in (seq or [])])
    env.define("filter", lambda f, seq: [x for x in (seq or [])
                                         if not is_nil(f(x))])
    env.define("reduce", lambda f, seq, init=0:
               functools.reduce(f, seq or [], init))
    env.define("sort", lambda seq, key=None:
               sorted(seq, key=key) if key else sorted(seq))
    env.define("range", lambda *a: list(range(*a)))

    # ------------------------------------------------------------------
    # maps
    # ------------------------------------------------------------------
    env.define("make-map", lambda: {})
    env.define("map-get", lambda m, k, default=None: m.get(str(k), default))
    env.define("map-set!", lambda m, k, v: (m.__setitem__(str(k), v), v)[1])
    env.define("map-keys", lambda m: sorted(m))
    env.define("map-has", lambda m, k: str(k) in m)

    # ------------------------------------------------------------------
    # strings
    # ------------------------------------------------------------------
    env.define("concat", lambda *parts: "".join(_to_display(p) for p in parts))
    env.define("string-upcase", lambda s: s.upper())
    env.define("string-downcase", lambda s: s.lower())
    env.define("substring", lambda s, start, end=None:
               s[start:end] if end is not None else s[start:])
    env.define("string-search", lambda needle, hay: hay.find(needle))
    env.define("string-split", lambda s, sep=" ": s.split(sep))
    env.define("string-join", lambda sep, parts: sep.join(parts))
    env.define("string-trim", lambda s: s.strip())
    env.define("format-number", lambda n, digits=2: f"{n:.{digits}f}")
    env.define("symbol-name", lambda s: str(s))

    # ------------------------------------------------------------------
    # the object model / meta-object protocol
    # ------------------------------------------------------------------
    def make_instance(type_name, *rest):
        name = _sym_or_str(type_name, "make-instance")
        if len(rest) % 2 != 0:
            raise TdlError("make-instance: odd keyword/value pairing")
        attrs = {}
        for key, value in zip(rest[0::2], rest[1::2]):
            if not isinstance(key, Keyword):
                raise TdlError(
                    f"make-instance: expected keyword, got {key!r}")
            attrs[str(key)] = value
        return DataObject(registry, name, attrs)

    def slot_value(obj, slot):
        if not isinstance(obj, DataObject):
            raise TdlError(f"slot-value: not an object: {obj!r}")
        return obj.get(_sym_or_str(slot, "slot-value"))

    def set_slot_value(obj, slot, value):
        if not isinstance(obj, DataObject):
            raise TdlError(f"set-slot-value!: not an object: {obj!r}")
        obj.set(_sym_or_str(slot, "set-slot-value!"), value)
        return value

    def type_of(obj):
        if isinstance(obj, DataObject):
            return Symbol(obj.type_name)
        if isinstance(obj, bool):
            return Symbol("boolean")
        if isinstance(obj, int):
            return Symbol("integer")
        if isinstance(obj, float):
            return Symbol("float")
        if isinstance(obj, str):
            return Symbol("string")
        if isinstance(obj, list):
            return Symbol("list")
        if isinstance(obj, dict):
            return Symbol("map")
        return Symbol("t")

    def is_a(obj, type_name):
        return (isinstance(obj, DataObject)
                and obj.is_a(_sym_or_str(type_name, "is-a")))

    def attribute_names(obj):
        if isinstance(obj, DataObject):
            return obj.attribute_names()
        return [a.name for a in
                registry.all_attributes(_sym_or_str(obj, "attribute-names"))]

    def attribute_type(obj, name):
        if isinstance(obj, DataObject):
            return obj.attribute_type(_sym_or_str(name, "attribute-type"))
        spec = registry.attribute(_sym_or_str(obj, "attribute-type"),
                                  _sym_or_str(name, "attribute-type"))
        return spec.type_name if spec else None

    env.define("make-instance", make_instance)
    env.define("slot-value", slot_value)
    env.define("set-slot-value!", set_slot_value)
    env.define("type-of", type_of)
    env.define("is-a", is_a)
    env.define("attribute-names", attribute_names)
    env.define("attribute-type", attribute_type)
    env.define("object-oid", lambda obj: obj.oid)
    env.define("known-types", lambda: registry.names())
    env.define("subtypes-of", lambda name:
               registry.subtypes_of(_sym_or_str(name, "subtypes-of")))
    env.define("describe-type", lambda name:
               registry.get(_sym_or_str(name, "describe-type")).describe())
    env.define("make-property", lambda name, value, ref=None:
               make_property(registry, _sym_or_str(name, "make-property"),
                             value, ref))
    env.define("render-object", render)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    output: List[str] = []
    env.define("print", lambda *parts: _print(output, parts))
    env.define("tdl-output", lambda: list(output))
    env.define("clear-output", lambda: (output.clear(), None)[1])


def _to_display(value: Any) -> str:
    if value is None:
        return "nil"
    if value is True:
        return "t"
    if value is False:
        return "nil"
    if isinstance(value, str):
        return value
    if isinstance(value, DataObject):
        return repr(value)
    if isinstance(value, (list, dict)):
        return to_source(value) if isinstance(value, list) else repr(value)
    return str(value)


def _print(output: List[str], parts) -> None:
    line = " ".join(_to_display(p) for p in parts)
    output.append(line)
    return None
