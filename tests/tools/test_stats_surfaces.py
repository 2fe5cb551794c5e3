"""No new ad-hoc ``*_stats`` surfaces outside the metrics registry.

The registry (``src/repro/core/metrics.py``) is where observability
lands: an instrument gets a hierarchical name, shows up in
``snapshot()`` and rides the ``_bus.stat.*`` plane for free
(docs/OBSERVABILITY.md, "Where to read it").  Two public ``*_stats``
defs predate it and survive because the frozen ledger harness calls
them.  Anything else is a failure here: register instruments instead
(a receiver's view of one sender session is
``daemon.peers[session].stats``, an attribute of the session's record).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: the registry itself may define whatever it likes
EXEMPT = {"repro/core/metrics.py"}

ALLOWED = {
    ("repro/core/daemon.py", "BusDaemon.flow_stats"),
    ("repro/core/wire.py", "decode_memo_stats"),
}


def stats_surfaces(root: Path) -> set:
    """Every public ``stats`` / ``*_stats`` def under ``root``, as
    ``(path relative to root, qualified name)``."""
    found = set()

    def visit(node: ast.AST, rel: str, stack: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, rel, stack + (child.name,))
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if not name.startswith("_") and (
                        name == "stats" or name.endswith("_stats")):
                    found.add((rel, ".".join(stack + (name,))))
            visit(child, rel, stack)

    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel not in EXEMPT:
            visit(ast.parse(path.read_text(), filename=str(path)), rel, ())
    return found


def test_the_stats_surfaces_are_exactly_the_two_survivors():
    # equality, so a stale allow-list entry fails as a new surface does
    assert stats_surfaces(SRC) == ALLOWED


def test_scan_flags_a_new_stats_surface(tmp_path):
    module = tmp_path / "repro" / "core" / "subjects.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "def sneaky_stats():\n    return {}\n\n\n"
        "class Thing:\n"
        "    def stats(self):\n        return {}\n\n"
        "    def _private_stats(self):\n        return {}\n")
    (tmp_path / "repro" / "core" / "metrics.py").write_text(
        "def registry_stats():\n    return {}\n")
    assert stats_surfaces(tmp_path) == {
        ("repro/core/subjects.py", "sneaky_stats"),
        ("repro/core/subjects.py", "Thing.stats"),
    }
