"""The TDL evaluator: a CLOS-subset interpreter over the bus object model.

The paper (Section 3): "To support dynamic classing, we have implemented
TDL, a small, interpreted language based on CLOS.  We have chosen a subset
of CLOS that supports a full object model, but that could be supported in
a small, efficient run-time environment."

The crucial integration decision mirrors the paper's: TDL classes *are*
Information Bus types.  ``defclass`` registers a
:class:`~repro.objects.types.TypeDescriptor` in the interpreter's
:class:`~repro.objects.registry.TypeRegistry`, and ``make-instance``
produces ordinary :class:`~repro.objects.data_object.DataObject` values —
so a type defined interactively in TDL can immediately be published,
marshalled with inline metadata, stored by the Object Repository, and
rendered by the generic print utility (P3 feeding P2).

Supported special forms: ``quote if progn define setq let let* lambda
defun defclass defmethod defgeneric and or cond when unless while dolist``.
Generic functions dispatch CLOS-style on the classes of all specialized
arguments, most-specific method first, with ``call-next-method``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..objects import (AttributeSpec, DataObject, TypeDescriptor,
                       TypeRegistry, standard_registry)
from .errors import (TdlArityError, TdlDispatchError, TdlError, TdlNameError,
                     TdlSyntaxError)
from .reader import Keyword, Symbol, read_all, to_source

__all__ = ["Environment", "GenericFunction", "Interpreter", "Method",
           "TdlFunction", "is_nil"]


def is_nil(value: Any) -> bool:
    """TDL truthiness: only ``nil`` (None) and false are false.

    Notably ``0`` and ``""`` are *true*, matching CLOS — and identity
    checks avoid Python's ``0 == False`` surprise.
    """
    return value is None or value is False


class Environment:
    """A lexical scope: bindings plus a parent pointer."""

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Environment"] = None):
        self.bindings: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise TdlNameError(f"unbound symbol: {name}")

    def define(self, name: str, value: Any) -> Any:
        self.bindings[name] = value
        return value

    def set(self, name: str, value: Any) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return value
            env = env.parent
        raise TdlNameError(f"setq of unbound symbol: {name}")


class TdlFunction:
    """A lambda / defun: fixed parameters, optional ``&rest``, a closure."""

    def __init__(self, name: str, params: List[str], rest: Optional[str],
                 body: List[Any], env: Environment, interp: "Interpreter"):
        self.name = name or "<lambda>"
        self.params = params
        self.rest = rest
        self.body = body
        self.env = env
        self.interp = interp

    def __call__(self, *args: Any) -> Any:
        if self.rest is None and len(args) != len(self.params):
            raise TdlArityError(
                f"{self.name}: expected {len(self.params)} arguments, "
                f"got {len(args)}")
        if self.rest is not None and len(args) < len(self.params):
            raise TdlArityError(
                f"{self.name}: expected at least {len(self.params)} "
                f"arguments, got {len(args)}")
        local = Environment(self.env)
        for param, value in zip(self.params, args):
            local.define(param, value)
        if self.rest is not None:
            local.define(self.rest, list(args[len(self.params):]))
        result = None
        for form in self.body:
            result = self.interp.eval(form, local)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TdlFunction {self.name}/{len(self.params)}>"


#: Rank assigned to an unspecialized parameter (matches anything, last).
_UNIVERSAL = "t"


class Method:
    """One defmethod: specializers, an optional qualifier, and a body.

    ``qualifier`` is ``"primary"`` (the default), ``"before"``, or
    ``"after"`` — CLOS standard method combination.
    """

    def __init__(self, specializers: List[Optional[str]], func: TdlFunction,
                 qualifier: str = "primary"):
        self.specializers = specializers
        self.func = func
        self.qualifier = qualifier


class GenericFunction:
    """A named set of methods with CLOS-style class dispatch.

    Standard method combination: all applicable ``:before`` methods run
    most-specific-first, then the most specific primary (which may
    ``call-next-method``), then all ``:after`` methods run
    least-specific-first.  The primary's value is the call's value.
    """

    def __init__(self, name: str, interp: "Interpreter"):
        self.name = name
        self.interp = interp
        self.methods: List[Method] = []

    def add_method(self, method: Method) -> None:
        # a method with identical specializers and qualifier replaces
        for index, existing in enumerate(self.methods):
            if existing.specializers == method.specializers \
                    and existing.qualifier == method.qualifier:
                self.methods[index] = method
                return
        self.methods.append(method)

    def _type_chain(self, value: Any) -> List[str]:
        """The class-precedence list of ``value``, ending at the universal t."""
        if isinstance(value, DataObject):
            return (self.interp.registry.supertype_chain(value.type_name)
                    + [_UNIVERSAL])
        if isinstance(value, bool):      # before int: bool is an int subclass
            return ["boolean", _UNIVERSAL]
        if isinstance(value, int):
            return ["integer", _UNIVERSAL]
        if isinstance(value, float):
            return ["float", _UNIVERSAL]
        if isinstance(value, str):
            return ["string", _UNIVERSAL]
        if isinstance(value, list):
            return ["list", _UNIVERSAL]
        if isinstance(value, dict):
            return ["map", _UNIVERSAL]
        return [_UNIVERSAL]

    def _rank(self, method: Method, args: Tuple[Any, ...]) -> Optional[Tuple[int, ...]]:
        """Per-argument specificity, or None if the method is not applicable."""
        if len(method.specializers) != len(args) and method.func.rest is None:
            return None
        ranks: List[int] = []
        for specializer, arg in zip(method.specializers, args):
            chain = self._type_chain(arg)
            target = specializer or _UNIVERSAL
            if target not in chain:
                return None
            ranks.append(chain.index(target))
        return tuple(ranks)

    def _applicable(self, args: Tuple[Any, ...],
                    qualifier: str) -> List[Method]:
        ranked = []
        for method in self.methods:
            if method.qualifier != qualifier:
                continue
            rank = self._rank(method, args)
            if rank is not None:
                ranked.append((rank, len(ranked), method))
        ranked.sort(key=lambda item: (item[0], item[1]))
        return [method for _, _, method in ranked]

    def __call__(self, *args: Any) -> Any:
        primaries = self._applicable(args, "primary")
        if not primaries:
            types = ", ".join(self._type_chain(a)[0] for a in args)
            raise TdlDispatchError(
                f"no applicable method for ({self.name} {types})")
        for method in self._applicable(args, "before"):
            self._call_one(method, args)           # most specific first
        result = self._call_chain(primaries, args)
        for method in reversed(self._applicable(args, "after")):
            self._call_one(method, args)           # least specific first
        return result

    def _call_one(self, method: Method, args: Tuple[Any, ...]) -> Any:
        local = Environment(method.func.env)
        inner = TdlFunction(method.func.name, method.func.params,
                            method.func.rest, method.func.body, local,
                            method.func.interp)
        return inner(*args)

    def _call_chain(self, chain: List[Method], args: Tuple[Any, ...]) -> Any:
        method, rest = chain[0], chain[1:]

        def call_next_method(*next_args: Any) -> Any:
            if not rest:
                raise TdlDispatchError(
                    f"{self.name}: no next method")
            return self._call_chain(rest, next_args or args)

        local = Environment(method.func.env)
        local.define("call-next-method", call_next_method)
        inner = TdlFunction(method.func.name, method.func.params,
                            method.func.rest, method.func.body, local,
                            method.func.interp)
        return inner(*args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<GenericFunction {self.name} methods={len(self.methods)}>"


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------

#: TDL surface type names -> bus attribute type names.
_TYPE_ALIASES = {
    "string": "string", "integer": "int", "int": "int", "float": "float",
    "boolean": "bool", "bool": "bool", "bytes": "bytes", "any": "any",
}


class Interpreter:
    """One TDL runtime bound to a type registry.

    Parameters
    ----------
    registry:
        The bus type registry ``defclass`` registers into.  Defaults to a
        fresh :func:`~repro.objects.builtin_types.standard_registry`.
    """

    def __init__(self, registry: Optional[TypeRegistry] = None):
        self.registry = registry if registry is not None else standard_registry()
        self.globals = Environment()
        self.generics: Dict[str, GenericFunction] = {}
        from .stdlib import install_stdlib
        install_stdlib(self)

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def eval_text(self, source: str) -> Any:
        """Evaluate every form in ``source``; return the last value."""
        result = None
        for form in read_all(source):
            result = self.eval(form, self.globals)
        return result

    def define(self, name: str, value: Any) -> None:
        """Expose a Python value/callable to TDL code."""
        self.globals.define(name, value)

    # ------------------------------------------------------------------
    # core eval
    # ------------------------------------------------------------------
    def eval(self, form: Any, env: Environment) -> Any:
        if isinstance(form, Symbol):
            return env.lookup(str(form))
        if not isinstance(form, list):
            return form   # numbers, strings, True/None, keywords
        if not form:
            return None   # () is nil
        head = form[0]
        if isinstance(head, Symbol):
            handler = _SPECIAL_FORMS.get(str(head))
            if handler is not None:
                return handler(self, form, env)
        func = self.eval(head, env)
        args = [self.eval(arg, env) for arg in form[1:]]
        if not callable(func):
            raise TdlError(f"not callable: {to_source(head)}")
        return func(*args)

    def eval_body(self, body: List[Any], env: Environment) -> Any:
        result = None
        for form in body:
            result = self.eval(form, env)
        return result

    # ------------------------------------------------------------------
    # class machinery (used by special forms below)
    # ------------------------------------------------------------------
    def tdl_type_to_bus(self, spec: Any) -> str:
        """Map a TDL type spec to a bus type name.

        ``string`` -> ``string``; ``integer`` -> ``int``;
        ``(list string)`` -> ``list<string>``; other symbols name object
        types (which must be registered).
        """
        if isinstance(spec, Symbol):
            name = str(spec)
            if name in _TYPE_ALIASES:
                return _TYPE_ALIASES[name]
            return name
        if isinstance(spec, list) and len(spec) == 2 and \
                isinstance(spec[0], Symbol) and str(spec[0]) in ("list", "map"):
            return f"{spec[0]}<{self.tdl_type_to_bus(spec[1])}>"
        raise TdlSyntaxError(f"malformed type spec: {to_source(spec)}")

    def generic(self, name: str) -> GenericFunction:
        gf = self.generics.get(name)
        if gf is None:
            gf = GenericFunction(name, self)
            self.generics[name] = gf
            self.globals.define(name, gf)
        return gf


# ----------------------------------------------------------------------
# special forms
# ----------------------------------------------------------------------

def _need(form: List[Any], minimum: int, name: str) -> None:
    if len(form) < minimum:
        raise TdlSyntaxError(f"malformed {name}: {to_source(form)}")


def _sf_quote(interp, form, env):
    _need(form, 2, "quote")
    return form[1]


def _sf_if(interp, form, env):
    _need(form, 3, "if")
    if not is_nil(interp.eval(form[1], env)):
        return interp.eval(form[2], env)
    if len(form) > 3:
        return interp.eval(form[3], env)
    return None


def _sf_progn(interp, form, env):
    return interp.eval_body(form[1:], env)


def _sf_define(interp, form, env):
    _need(form, 3, "define")
    name = form[1]
    if not isinstance(name, Symbol):
        raise TdlSyntaxError(f"define needs a symbol: {to_source(form)}")
    return env.define(str(name), interp.eval(form[2], env))


def _sf_setq(interp, form, env):
    _need(form, 3, "setq")
    name = form[1]
    if not isinstance(name, Symbol):
        raise TdlSyntaxError(f"setq needs a symbol: {to_source(form)}")
    return env.set(str(name), interp.eval(form[2], env))


def _parse_params(params: Any) -> Tuple[List[str], Optional[str]]:
    if not isinstance(params, list):
        raise TdlSyntaxError("parameter list must be a list")
    names: List[str] = []
    rest: Optional[str] = None
    iterator = iter(params)
    for param in iterator:
        if isinstance(param, Symbol) and str(param) == "&rest":
            try:
                rest_sym = next(iterator)
            except StopIteration:
                raise TdlSyntaxError("&rest needs a name") from None
            rest = str(rest_sym)
            break
        if not isinstance(param, Symbol):
            raise TdlSyntaxError(f"bad parameter: {to_source(param)}")
        names.append(str(param))
    return names, rest


def _sf_lambda(interp, form, env):
    _need(form, 3, "lambda")
    params, rest = _parse_params(form[1])
    return TdlFunction("<lambda>", params, rest, form[2:], env, interp)


def _sf_defun(interp, form, env):
    _need(form, 4, "defun")
    name = str(form[1])
    params, rest = _parse_params(form[2])
    func = TdlFunction(name, params, rest, form[3:], env, interp)
    interp.globals.define(name, func)
    return func


def _sf_let(interp, form, env, sequential=False):
    _need(form, 3, "let")
    local = Environment(env)
    for binding in form[1]:
        if not (isinstance(binding, list) and len(binding) == 2
                and isinstance(binding[0], Symbol)):
            raise TdlSyntaxError(f"bad let binding: {to_source(binding)}")
        value_env = local if sequential else env
        local.define(str(binding[0]), interp.eval(binding[1], value_env))
    return interp.eval_body(form[2:], local)


def _sf_let_star(interp, form, env):
    return _sf_let(interp, form, env, sequential=True)


def _sf_and(interp, form, env):
    result = True
    for sub in form[1:]:
        result = interp.eval(sub, env)
        if is_nil(result):
            return result
    return result


def _sf_or(interp, form, env):
    for sub in form[1:]:
        result = interp.eval(sub, env)
        if not is_nil(result):
            return result
    return None


def _sf_cond(interp, form, env):
    for clause in form[1:]:
        if not isinstance(clause, list) or not clause:
            raise TdlSyntaxError(f"bad cond clause: {to_source(clause)}")
        test = interp.eval(clause[0], env)
        if not is_nil(test):
            if len(clause) == 1:
                return test
            return interp.eval_body(clause[1:], env)
    return None


def _sf_when(interp, form, env):
    _need(form, 2, "when")
    if not is_nil(interp.eval(form[1], env)):
        return interp.eval_body(form[2:], env)
    return None


def _sf_unless(interp, form, env):
    _need(form, 2, "unless")
    if is_nil(interp.eval(form[1], env)):
        return interp.eval_body(form[2:], env)
    return None


_MAX_ITERATIONS = 1_000_000


def _sf_while(interp, form, env):
    _need(form, 2, "while")
    iterations = 0
    result = None
    while not is_nil(interp.eval(form[1], env)):
        result = interp.eval_body(form[2:], env)
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise TdlError("while: iteration limit exceeded")
    return result


def _sf_dolist(interp, form, env):
    _need(form, 3, "dolist")
    spec = form[1]
    if not (isinstance(spec, list) and len(spec) == 2
            and isinstance(spec[0], Symbol)):
        raise TdlSyntaxError(f"bad dolist spec: {to_source(spec)}")
    items = interp.eval(spec[1], env)
    if items is None:
        items = []
    local = Environment(env)
    result = None
    for item in items:
        local.define(str(spec[0]), item)
        result = interp.eval_body(form[2:], local)
    return result


def _sf_defclass(interp, form, env):
    """(defclass name (supertype) ((slot :type T :required nil :doc "d")...)
        :doc "class doc")"""
    _need(form, 4, "defclass")
    name = str(form[1])
    supers = form[2]
    if not isinstance(supers, list) or len(supers) > 1:
        raise TdlSyntaxError(
            f"defclass {name}: exactly one superclass supported "
            f"(got {to_source(supers)})")
    supertype = str(supers[0]) if supers else "object"
    slots: List[AttributeSpec] = []
    if not isinstance(form[3], list):
        raise TdlSyntaxError(f"defclass {name}: bad slot list")
    for slot in form[3]:
        if isinstance(slot, Symbol):
            slots.append(AttributeSpec(str(slot), "any"))
            continue
        if not (isinstance(slot, list) and slot
                and isinstance(slot[0], Symbol)):
            raise TdlSyntaxError(f"bad slot: {to_source(slot)}")
        slot_name = str(slot[0])
        options = _keyword_options(slot[1:], f"slot {slot_name}")
        type_name = "any"
        if "type" in options:
            type_name = interp.tdl_type_to_bus(options["type"])
        required = options.get("required", True)
        doc = options.get("doc", "") or ""
        slots.append(AttributeSpec(slot_name, type_name,
                                   required=bool(required), doc=doc))
    class_options = _keyword_options(form[4:], f"defclass {name}")
    descriptor = TypeDescriptor(name, supertype=supertype, attributes=slots,
                                doc=class_options.get("doc", "") or "")
    interp.registry.register(descriptor)
    return Symbol(name)


def _keyword_options(items: List[Any], context: str) -> Dict[str, Any]:
    if len(items) % 2 != 0:
        raise TdlSyntaxError(f"{context}: odd keyword/value pairing")
    options: Dict[str, Any] = {}
    for key, value in zip(items[0::2], items[1::2]):
        if not isinstance(key, Keyword):
            raise TdlSyntaxError(f"{context}: expected keyword, got "
                                 f"{to_source(key)}")
        options[str(key)] = value
    return options


def _sf_defgeneric(interp, form, env):
    _need(form, 2, "defgeneric")
    return interp.generic(str(form[1]))


def _sf_defmethod(interp, form, env):
    """(defmethod name [:before|:after] ((x class) y ...) body...)"""
    _need(form, 4, "defmethod")
    name = str(form[1])
    qualifier = "primary"
    rest = form[2:]
    if isinstance(rest[0], Keyword):
        qualifier = str(rest[0])
        if qualifier not in ("before", "after"):
            raise TdlSyntaxError(
                f"defmethod {name}: unknown qualifier :{qualifier}")
        rest = rest[1:]
        if len(rest) < 2:
            raise TdlSyntaxError(f"defmethod {name}: missing body")
    param_list, body = rest[0], rest[1:]
    params: List[str] = []
    specializers: List[Optional[str]] = []
    if not isinstance(param_list, list):
        raise TdlSyntaxError(f"defmethod {name}: bad parameter list")
    for param in param_list:
        if isinstance(param, Symbol):
            params.append(str(param))
            specializers.append(None)
        elif (isinstance(param, list) and len(param) == 2
              and isinstance(param[0], Symbol)
              and isinstance(param[1], Symbol)):
            params.append(str(param[0]))
            specializer = str(param[1])
            # normalize fundamentals to dispatch names
            specializers.append({"int": "integer", "bool": "boolean"}
                                .get(specializer, specializer))
        else:
            raise TdlSyntaxError(
                f"defmethod {name}: bad parameter {to_source(param)}")
    func = TdlFunction(name, params, None, body, env, interp)
    gf = interp.generic(name)
    gf.add_method(Method(specializers, func, qualifier))
    return gf


_SPECIAL_FORMS: Dict[str, Callable] = {
    "quote": _sf_quote,
    "if": _sf_if,
    "progn": _sf_progn,
    "define": _sf_define,
    "setq": _sf_setq,
    "lambda": _sf_lambda,
    "defun": _sf_defun,
    "let": _sf_let,
    "let*": _sf_let_star,
    "and": _sf_and,
    "or": _sf_or,
    "cond": _sf_cond,
    "when": _sf_when,
    "unless": _sf_unless,
    "while": _sf_while,
    "dolist": _sf_dolist,
    "defclass": _sf_defclass,
    "defgeneric": _sf_defgeneric,
    "defmethod": _sf_defmethod,
}
