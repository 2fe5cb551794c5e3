"""Every code citation in the prose docs names something that exists.

A backticked ``Class.member`` (``BusClient.publish()``,
``SessionStats.overflow_dropped``) whose class is defined in ``src/``
must name a member of that class: a method or property, a class-level
attribute or dataclass field, a ``__slots__`` name, or an attribute
``__init__`` sets on ``self`` — its own or one inherited from a base
class in ``src/``.  A backticked ``path.py::name`` must name a top-level
definition of that file, the path taken from the repository root or
from ``src/repro/``.

ROADMAP.md and CHANGES.md are not checked: they name removed things on
purpose.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
        *sorted(p.relative_to(ROOT).as_posix()
                for p in (ROOT / "docs").glob("*.md"))]

_SPAN = re.compile(r"`([^`\n]+)`")
_MEMBER = re.compile(r"([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")
_PATH = re.compile(r"([\w./-]+\.py)::([A-Za-z_][A-Za-z0-9_.]*)")


def _slots(node: ast.ClassDef) -> set:
    """The names ``__slots__`` declares, following it to a class-level
    tuple it names (``__slots__ = _FIELDS``)."""
    values = {t.id: item.value for item in node.body
              if isinstance(item, ast.Assign) for t in item.targets
              if isinstance(t, ast.Name)}
    slots = values.get("__slots__")
    if isinstance(slots, ast.Name):
        slots = values.get(slots.id)
    return {c.value for c in ast.walk(slots) if isinstance(c, ast.Constant)
            and isinstance(c.value, str)} if slots is not None else set()


def _members(node: ast.ClassDef) -> set:
    names = _slots(node)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(item.name)
        elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            names.update(t.id for t in item.targets
                         if isinstance(t, ast.Name))
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for sub in ast.walk(item):
                targets = (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target] if isinstance(sub, ast.AnnAssign)
                           else [])
                names.update(
                    t.attr for t in targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self")
    return names


def class_index(trees) -> dict:
    """``class name -> (member names, base names)`` over ``trees``."""
    index = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else
                         getattr(b, "attr", "") for b in node.bases]
                index[node.name] = (_members(node), bases)
    return index


def has_member(index: dict, cls: str, member: str) -> bool:
    todo, seen = [cls], set()
    while todo:
        name = todo.pop()
        if name in seen or name not in index:
            continue
        seen.add(name)
        members, bases = index[name]
        if member in members:
            return True
        todo.extend(bases)
    return False


def _toplevel(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def unresolved(text: str, index: dict, root: Path = ROOT) -> list:
    """Every citation in ``text`` that names nothing."""
    bad = []
    for span in _SPAN.findall(text):
        found = _PATH.match(span)
        if found:
            path, name = found.groups()
            candidates = [root / path, root / "src" / "repro" / path]
            files = [p for p in candidates if p.is_file()]
            if not files or name.split(".")[0] not in _toplevel(files[0]):
                bad.append(span)
            continue
        found = _MEMBER.match(span)
        if found and found.group(1) in index and not has_member(
                index, *found.groups()):
            bad.append(span)
    return bad


def test_every_cited_member_and_path_exists():
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src").rglob("*.py"))]
    index = class_index(trees)
    stale = {doc: unresolved((ROOT / doc).read_text(), index)
             for doc in DOCS}
    assert {doc: spans for doc, spans in stale.items() if spans} == {}


def test_a_stale_citation_is_caught():
    index = class_index([ast.parse(
        "class Base:\n    def close(self):\n        pass\n\n\n"
        "class Client(Base):\n    retries = 3\n\n"
        "    def __init__(self):\n        self.metrics: dict = {}\n"
        "        self.planes = []\n\n"
        "    def publish(self):\n        pass\n")])
    text = ("`Client.publish()` `Client.close` `Client.metrics` "
            "`Client.planes` `Client.retries` `Client.on_credit()` "
            "`Other.anything` `tests/tools/test_doc_citations.py::ROOT` "
            "`tests/tools/test_doc_citations.py::gone`")
    assert unresolved(text, index) == [
        "Client.on_credit()", "tests/tools/test_doc_citations.py::gone"]
