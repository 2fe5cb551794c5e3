"""Every public name in ``src/repro`` has a caller outside the tests.

A knob, an accessor or a hook survives only if something other than its
own tests has a reason to reach it.  The evidence is an AST reference
in ``src/`` outside the name's own body, or anywhere in ``examples/``,
``benchmarks/`` or ``tools/``.  Docstrings, comments and ``__all__``
entries are not references, and importing a name is not using it.

What is checked:

* every public module-level function and class;
* every public method, property, classmethod and staticmethod of a
  public class;
* every ``__init__`` parameter of a public class, and every field of a
  public dataclass.

A reference is bound to its owner, not to a bare name: ``x.stop()``
counts for ``C.stop`` only if ``stop`` is defined on no other class, or
``x`` is ``self`` / ``cls`` / ``super()`` inside ``C`` or a class
related to it by inheritance, or the referencing module names ``C`` or a
subclass of it.  A module names a class when it mentions it, or mentions
a function, property or annotated attribute whose annotation does (so
``scope.gauge(...)`` after ``bus.metrics.scope(...)`` reaches
``MetricsScope.gauge``).  A reached method reaches its overrides.  A
parameter is reached when a call to its class (or ``super().__init__``,
or a name bound to the class, as in ``error = A if c else B``) passes it
by keyword or reaches its position, when ``dataclasses.replace`` passes
it, or when it is assigned as an attribute of anything but ``self``.  A
``*args`` or ``**kwargs`` forward reaches no parameter: what it carries
is only known where the forwarding class is called.

The frozen ledger harness (``benchmarks/ledger/``) binds methods and
reads counters by string, so every identifier it mentions, in code or
in a string, counts for every owner of that name.

A name nothing reaches is dead: delete it, make an option a constant,
or list it in :data:`TEST_ONLY` with a reason from :data:`REASONS`.
The table only shrinks: an entry that gains a caller, or stops
existing, fails here too.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "benchmarks", "tools")
DEFINED = "src/repro/"
LEDGER = "benchmarks/ledger/"

_META = "P2 meta-object surface"
_LIFECYCLE = "lifecycle"
_FAULT = "fault injection a test drives"
_WIRE_HALF = "client half of a wire format whose server half parses outside input"
_SHRINK = "tests shrink it to provoke a behaviour"

#: the only reasons a name may stay with no caller outside the tests
REASONS = {_META, _LIFECYCLE, _FAULT, _WIRE_HALF, _SHRINK}

#: names that stay although only tests reach them: name -> reason.
#: ``C.m`` is a method, ``C(p=)`` a constructor parameter or dataclass
#: field, ``pkg.module.f`` a module-level function.
TEST_ONLY = {
    # DESIGN: "UIs are generated from interface metadata"
    "ApplicationBuilder.form_for_object": _META,
    "DataObject.as_dict": _META,
    "DataObject.attribute_specs": _META,
    "NewsMonitorForm": _META,
    "NewsMonitorForm.render_text": _META,
    "ServiceObject.missing_operations": _META,
    "TypeDescriptor.own_attribute": _META,
    "BackgroundTraffic.stop": _LIFECYCLE,
    "EthernetSegment.partitioned": _FAULT,
    # the other half is predicate_from_wire in QueryServer._find_where
    "repository.query.predicate_to_wire": _WIRE_HALF,
    "BusConfig(ack_quorum=)": _SHRINK,
    "BusConfig(seen_ledger_cap=)": _SHRINK,
    "ReliableConfig(nack_delay=)": _SHRINK,
    "ReliableConfig(nack_max=)": _SHRINK,
    "ReliableConfig(heartbeat_interval=)": _SHRINK,
    "ReliableConfig(receive_buffer=)": _SHRINK,
    "FlowConfig(delivery_queue=)": _SHRINK,
    "BatchConfig(batch_bytes=)": _SHRINK,
    "BatchConfig(batch_delay=)": _SHRINK,
    "WanLink(queue_capacity=)": _SHRINK,
    "CostModel(mtu=)": _SHRINK,
    "NewsMonitorForm(max_rows=)": _SHRINK,
}


# ----------------------------------------------------------------------
# what is defined
# ----------------------------------------------------------------------

def _module_name(rel: str) -> str:
    """``src/repro/core/wire.py`` -> ``repro.core.wire``."""
    parts = rel[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _span(node: ast.AST) -> tuple:
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _ident(target) == "dataclass":
            return True
    return False


def _ident(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _annotated_classes(node, classes) -> set:
    """Class names an annotation mentions (string forward references
    included)."""
    found = set()
    if node is None:
        return found
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                found |= _annotated_classes(
                    ast.parse(sub.value, mode="eval"), classes)
            except SyntaxError:
                pass
        elif _ident(sub) in classes:
            found.add(_ident(sub))
    return found


class Def:
    """One checked name: ``key`` is how :data:`TEST_ONLY` spells it."""

    def __init__(self, key, kind, name, rel, span, owner=None, index=None):
        self.key, self.kind, self.name = key, kind, name
        self.rel, self.span = rel, span
        self.owner, self.index = owner, index

    def encloses(self, rel: str, line: int) -> bool:
        return rel == self.rel and self.span[0] <= line <= self.span[1]


class ClassInfo:
    """What the scan needs of one class: bases, methods, fields."""

    def __init__(self, node: ast.ClassDef, rel: str):
        self.rel, self.span = rel, _span(node)
        self.bases = [_ident(b) for b in node.bases if _ident(b)]
        self.dataclass = _is_dataclass(node)
        self.methods = {}       # name -> FunctionDef
        self.fields = []        # dataclass fields, in order
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[item.name] = item
            elif (self.dataclass and isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)
                  and "ClassVar" not in ast.unparse(item.annotation)
                  and not _init_false(item.value)):
                self.fields.append(item)

    def params(self):
        """``(name, positional index or None, span)`` of what the
        constructor takes."""
        if self.dataclass:
            return [(f.target.id, i, _span(f))
                    for i, f in enumerate(self.fields)]
        init = self.methods.get("__init__")
        if init is None:
            return []
        args = init.args
        positional = (args.posonlyargs + args.args)[1:]
        return ([(a.arg, i, _span(init)) for i, a in enumerate(positional)]
                + [(a.arg, None, _span(init)) for a in args.kwonlyargs])


def _init_false(value) -> bool:
    return (isinstance(value, ast.Call) and _ident(value.func) == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


# ----------------------------------------------------------------------
# what is referenced
# ----------------------------------------------------------------------

class FileRefs(ast.NodeVisitor):
    """Every reference one file makes, with the line it sits on and the
    class it sits in."""

    def __init__(self, rel: str, tree: ast.AST):
        self.rel = rel
        self.module = _module_name(rel) if rel.startswith("src/") else rel
        self.imports = {}       # local name -> (module, name or None)
        self.names = []         # (id, line)
        self.attrs = []         # (attr, receiver_is_self, class, line, receiver)
        self.stores = []        # (attr, line): attribute set on non-self
        self.calls = []         # (callee, nargs, keywords, class, line)
        self.strings = set()
        self.bound = defaultdict(set)   # local name -> names it may hold
        self.toplevel = set()
        self._class = None
        for node in getattr(tree, "body", ()):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.toplevel.add(node.name)
        self.visit(tree)

    def _package(self, level: int) -> str:
        parts = self.module.split(".")
        if not self.rel.endswith("__init__.py"):
            parts = parts[:-1]
        return ".".join(parts[:len(parts) - level + 1])

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                self.imports[alias.asname] = (alias.name, None)
            else:
                top = alias.name.split(".")[0]
                self.imports[top] = (top, None)

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:
            base = self._package(node.level) + ("." + base if base else "")
        for alias in node.names:
            self.imports[alias.asname or alias.name] = (base, alias.name)

    def visit_ClassDef(self, node):
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_Assign(self, node):
        # ``error = A if missing else B``: a call of ``error`` builds A or B
        held = {_ident(n) for n in ast.walk(node.value) if _ident(n)}
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.bound[target.id] |= held
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.append((node.id, node.lineno))

    def visit_Attribute(self, node):
        receiver = node.value
        own = ((isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls"))
               or (isinstance(receiver, ast.Call)
                   and _ident(receiver.func) == "super"))
        if isinstance(node.ctx, ast.Load):
            self.attrs.append((node.attr, own, self._class, node.lineno,
                               _ident(receiver)
                               if isinstance(receiver, ast.Name) else None))
        elif not (isinstance(receiver, ast.Name) and receiver.id == "self"):
            self.stores.append((node.attr, node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _ident(func.value.func) == "super"):
            callee = ("super", None)
        elif isinstance(func, ast.Name) and func.id == "cls":
            callee = ("cls", None)
        else:
            callee = ("name", _ident(func))
        self.calls.append((
            callee,
            sum(not isinstance(a, ast.Starred) for a in node.args),
            {kw.arg for kw in node.keywords if kw.arg},
            self._class, node.lineno))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.strings.add(node.value)


# ----------------------------------------------------------------------
# the scan
# ----------------------------------------------------------------------

def read_sources(root: Path = ROOT) -> dict:
    """``path relative to root -> source`` for every scanned file."""
    return {path.relative_to(root).as_posix(): path.read_text()
            for top in SCANNED for path in sorted((root / top).rglob("*.py"))}


def scan(sources: dict) -> dict:
    """``key -> Def`` for every checked name no caller outside the tests
    reaches.  ``sources`` maps paths relative to the repo root to their
    text; paths outside :data:`SCANNED` (tests) are ignored."""
    trees = {rel: ast.parse(text, filename=rel)
             for rel, text in sources.items()
             if rel.split("/")[0] in SCANNED}
    refs = {rel: FileRefs(rel, tree) for rel, tree in trees.items()}

    classes = {}
    functions = {}              # (module, name) -> FunctionDef
    for rel, tree in trees.items():
        if not rel.startswith(DEFINED):
            continue
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                assert node.name not in classes, f"two classes {node.name}"
                classes[node.name] = ClassInfo(node, rel)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[(_module_name(rel), node.name)] = (node, rel)

    parents = {name: [b for b in info.bases if b in classes]
               for name, info in classes.items()}
    children = defaultdict(set)
    for name, bases in parents.items():
        for base in bases:
            children[base].add(name)

    def down(name):
        out, todo = {name}, [name]
        while todo:
            for child in children[todo.pop()] - out:
                out.add(child)
                todo.append(child)
        return out

    def up(name):
        out, todo = {name}, [name]
        while todo:
            for base in set(parents.get(todo.pop(), ())) - out:
                out.add(base)
                todo.append(base)
        return out

    # what each function, property or annotated attribute hands back
    returns = defaultdict(set)
    for rel, tree in trees.items():
        if not rel.startswith(DEFINED):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                returns[node.name] |= _annotated_classes(node.returns, classes)
            elif isinstance(node, ast.AnnAssign):
                returns[_ident(node.target)] |= _annotated_classes(
                    node.annotation, classes)

    ledger = set()
    for rel, r in refs.items():
        if rel.startswith(LEDGER):
            ledger |= r.strings | {n for n, _ in r.names}
            ledger |= {a for a, *_ in r.attrs} | {a for a, _ in r.stores}
            ledger |= {kw for c in r.calls for kw in c[2]}

    modules = {_module_name(rel): rel for rel in refs
               if rel.startswith(DEFINED)}

    def resolve(rel, local, depth=0):
        """``(module, name)`` a local name of ``rel`` is bound to."""
        r = refs[rel]
        if local in r.imports and depth < 8:
            module, name = r.imports[local]
            if name is None:
                return module, None
            if module + "." + name in modules:
                return module + "." + name, None
            target = modules.get(module)
            if target and name in refs[target].imports:
                return resolve(target, name, depth + 1)
            return module, name
        if local in r.toplevel:
            return r.module, local
        return None, local

    named = {}
    for rel, r in refs.items():
        seen = {resolve(rel, n)[1] or n for n, _ in r.names}
        seen |= {a for a, *_ in r.attrs} | set(r.toplevel)
        mentioned = {n for n in seen if n in classes}
        for ident in seen:
            mentioned |= returns.get(ident, set())
        named[rel] = mentioned

    def names_class(rel, owner):
        return bool(named[rel] & down(owner))

    method_owners = defaultdict(set)
    for name, info in classes.items():
        for method in info.methods:
            method_owners[method].add(name)
    param_owners = defaultdict(set)
    for name, info in classes.items():
        for param, _, _ in info.params():
            param_owners[param].add(name)

    # every checked name
    defs = []
    for (module, name), (node, rel) in functions.items():
        if _public(name):
            defs.append(Def(module[len("repro."):] + "." + name, "function",
                            name, rel, _span(node)))
    for name, info in classes.items():
        if not _public(name):
            continue
        defs.append(Def(name, "class", name, info.rel, info.span))
        for method, node in info.methods.items():
            if _public(method):
                defs.append(Def(f"{name}.{method}", "method", method,
                                info.rel, _span(node), owner=name))
        for param, index, span in info.params():
            if _public(param):
                defs.append(Def(f"{name}({param}=)", "param", param,
                                info.rel, span, owner=name, index=index))

    def bound(rel, owner, owners):
        return owners == {owner} or names_class(rel, owner)

    def function_reached(d):
        module = _module_name(d.rel)
        for rel, r in refs.items():
            for ident, line in r.names:
                if (not d.encloses(rel, line)
                        and resolve(rel, ident) == (module, d.name)):
                    return True
            for attr, _, _, line, receiver in r.attrs:
                if (attr == d.name and receiver and not d.encloses(rel, line)
                        and resolve(rel, receiver) == (module, None)):
                    return True
        return False

    def class_reached(d):
        for rel, r in refs.items():
            for ident, line in r.names:
                if not d.encloses(rel, line) and (
                        resolve(rel, ident)[1] == d.name or ident == d.name):
                    return True
            if any(a == d.name and not d.encloses(rel, line)
                   for a, _, _, line, _ in r.attrs):
                return True
        return False

    def method_reached(d):
        owners = method_owners[d.name]
        for rel, r in refs.items():
            for attr, own, cls, line, _ in r.attrs:
                if attr != d.name or d.encloses(rel, line):
                    continue
                if own and cls in classes and (
                        cls in up(d.owner) or cls in down(d.owner)):
                    return True
                if not own and bound(rel, d.owner, owners):
                    return True
        return False

    def initialiser(name):
        """The class whose constructor ``name(...)`` runs."""
        while not ("__init__" in classes[name].methods
                   or classes[name].dataclass) and parents.get(name):
            name = parents[name][0]
        return name

    def constructed(callee, cls, rel):
        """Classes whose constructor a call runs (empty if none)."""
        kind, ident = callee
        if kind == "cls":
            return {initialiser(cls)} if cls in classes else set()
        if kind == "super":
            return {initialiser(b) for b in parents.get(cls, ())[:1]}
        name = resolve(rel, ident)[1] or ident
        held = {name} if name in classes else refs[rel].bound[name]
        return {initialiser(c) for c in held if c in classes}

    def param_reached(d):
        owners = param_owners[d.name]
        for rel, r in refs.items():
            for callee, nargs, keywords, cls, line in r.calls:
                if d.encloses(rel, line):
                    continue
                if callee[1] == "replace":
                    if d.name in keywords and bound(rel, d.owner, owners):
                        return True
                    continue
                if d.owner not in constructed(callee, cls, rel):
                    continue
                if d.name in keywords or (
                        d.index is not None and nargs > d.index):
                    return True
            for attr, line in r.stores:
                if attr == d.name and bound(rel, d.owner, owners):
                    return True
        return False

    check = {"function": function_reached, "class": class_reached,
             "method": method_reached, "param": param_reached}
    reached = {d.key for d in defs if d.name in ledger or check[d.kind](d)}
    # a reached method reaches the overrides dispatch may pick
    for d in defs:
        if d.kind == "method" and d.key not in reached and any(
                f"{base}.{d.name}" in reached
                for base in up(d.owner) - {d.owner}):
            reached.add(d.key)
    return {d.key: d for d in defs if d.key not in reached}


def test_every_public_name_has_a_caller_or_a_reason():
    missing = scan(read_sources())
    unexplained = sorted(set(missing) - set(TEST_ONLY))
    assert unexplained == [], (
        "names only tests reach: delete each, make an option a constant, "
        "or give it a TEST_ONLY reason")
    # the table only shrinks: an entry that gained a caller, or no
    # longer exists, must leave it
    assert sorted(set(TEST_ONLY) - set(missing)) == []


def test_every_reason_is_from_the_closed_list():
    assert set(TEST_ONLY.values()) <= REASONS


def test_a_method_name_two_classes_define_binds_to_its_owner():
    flagged = scan({
        "src/repro/plant.py": (
            "class Pump:\n    def stop(self):\n        pass\n\n\n"
            "class Valve:\n    def stop(self):\n        pass\n"),
        "src/repro/line.py": (
            "from .plant import Valve\n\nVALVE = Valve()\n"),
        "examples/run.py": (
            "from repro.plant import Pump\n\n\n"
            "def main(pump: Pump):\n    pump.stop()\n"),
        "tests/test_plant.py": (
            "from repro.plant import Valve\nValve().stop()\n"),
    })
    assert "Valve.stop" in flagged
    assert "Pump.stop" not in flagged


def test_a_ledger_string_counts_for_every_owner():
    flagged = scan({
        "src/repro/reliable.py": (
            "class Sender:\n    def forget(self, seq):\n        pass\n"),
        "benchmarks/ledger/trace.py": (
            'TARGETS = (("reliable", "repro.reliable", "Sender",\n'
            '            ("forget",)),)\n'),
    })
    assert "Sender.forget" not in flagged


def test_an_all_entry_or_an_import_is_no_caller():
    flagged = scan({
        "src/repro/util.py": (
            '__all__ = ["helper"]\n\n\ndef helper():\n    return 1\n'),
        "src/repro/__init__.py": (
            'from .util import helper\n\n__all__ = ["helper"]\n'),
    })
    assert set(flagged) == {"util.helper"}


def test_a_keyword_only_option_only_a_test_passes_is_flagged():
    flagged = scan({
        "src/repro/cache.py": (
            "class Cache:\n"
            "    def __init__(self, *, capacity=4):\n"
            "        self.capacity = capacity\n"),
        "examples/run.py": "from repro.cache import Cache\nCache()\n",
        "tests/test_cache.py": (
            "from repro.cache import Cache\nCache(capacity=1)\n"),
    })
    assert set(flagged) == {"Cache(capacity=)"}


def test_a_keyword_forward_reaches_no_option():
    flagged = scan({
        "src/repro/rpc.py": (
            "class Client:\n"
            "    def __init__(self, subject, window=0.25):\n"
            "        self.window = window\n\n\n"
            "class RetryingClient:\n"
            "    def __init__(self, subject, **options):\n"
            "        self.client = Client(subject, **options)\n"),
        "examples/run.py": (
            "from repro.rpc import RetryingClient\n"
            "RetryingClient('svc')\n"),
        "tests/test_rpc.py": (
            "from repro.rpc import RetryingClient\n"
            "RetryingClient('svc', window=0.1)\n"),
    })
    assert set(flagged) == {"Client(window=)"}


def test_scan_sees_keywords_replace_positions_and_foreign_assignments():
    flagged = scan({
        "src/repro/config.py": (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass\nclass Config:\n"
            "    quorum: int = 1\n    cap: int = 2\n    queue: int = 3\n"
            "    retries: int = 4\n    delay: float = 0.5\n"
            "    interval: float = 1.0\n\n\n"
            "class Thing:\n"
            "    def __init__(self):\n"
            "        self.interval = 5\n"),
        "tools/tune.py": (
            "import dataclasses\n\n"
            "from repro.config import Config, Thing\n\n"
            "cfg = Config(7, quorum=2)\n"
            "other = dataclasses.replace(cfg, queue=4)\n"
            "cfg.retries = 3\n"
            "cfg.delay += 1\n"
            "Thing()\n"),
    })
    # ``quorum`` by position and keyword, ``cap`` nowhere, ``interval``
    # only on ``self``
    assert set(flagged) == {"Config(cap=)", "Config(interval=)"}
