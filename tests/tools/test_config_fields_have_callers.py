"""Every configuration field has a caller outside the tests.

A knob survives only if a user has a reason to turn it.  The evidence
is code outside ``tests/`` that turns it: an AST scan of ``src/`` (all
but the field's own module), ``examples/``, ``benchmarks/`` and
``tools/`` must find the field passed by keyword to its class or to
``dataclasses.replace``, or assigned as an attribute of anything but
``self``.  A field nothing turns is a constant in disguise: make it
one, or list it in :data:`TEST_ONLY` with the reason it stays a field.
The table only shrinks: an entry that gains a caller, or stops being a
field, fails here too.
"""

import ast
import dataclasses
from pathlib import Path

from repro.core.batching import BatchConfig
from repro.core.daemon import BusConfig
from repro.core.flow import FlowConfig
from repro.core.reliable import ReliableConfig
from repro.core.router import WanLink

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "benchmarks", "tools")

CLASSES = (BusConfig, ReliableConfig, FlowConfig, BatchConfig, WanLink)

#: nested configurations: their own fields are checked instead
NESTED = {"reliable", "batch", "flow"}

_SHRINK = "tests shrink it to provoke a behaviour"

#: fields that stay although only tests turn them: name -> reason
TEST_ONLY = {
    "stat_interval": "the telemetry plane's only switch",
    "ack_quorum": _SHRINK,
    "seen_ledger_cap": _SHRINK,
    "stat_queue": _SHRINK,
    "nack_delay": _SHRINK,
    "nack_max": _SHRINK,
    "heartbeat_interval": _SHRINK,
    "receive_buffer": _SHRINK,
    "delivery_queue": _SHRINK,
    "batch_delay": _SHRINK,
    "max_messages": _SHRINK,
    "queue_capacity": _SHRINK,
}


def _called_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def turned(tree: ast.AST, cls_name: str) -> set:
    """Names ``tree`` turns: keywords of a ``cls_name(...)`` or
    ``replace(...)`` call, and attributes assigned on anything but
    ``self``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if _called_name(node.func) in (cls_name, "replace"):
                found.update(kw.arg for kw in node.keywords if kw.arg)
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute) and not (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                found.add(target.attr)
    return found


def _trees():
    """``(module path relative to the repo root, parsed tree)`` for
    every scanned file, parsed once."""
    out = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            out.append((path.relative_to(ROOT).as_posix(),
                        ast.parse(path.read_text(), filename=str(path))))
    return out


def fields_without_callers(trees) -> dict:
    """``name -> class name`` for every checked field nothing turns."""
    missing = {}
    for cls in CLASSES:
        own = "src/" + cls.__module__.replace(".", "/") + ".py"
        turned_here = set()
        for rel, tree in trees:
            if rel != own:
                turned_here |= turned(tree, cls.__name__)
        for field in dataclasses.fields(cls):
            if field.name not in NESTED and field.name not in turned_here:
                missing[field.name] = cls.__name__
    return missing


def test_every_config_field_has_a_caller_or_a_reason():
    missing = fields_without_callers(_trees())
    unexplained = {name: cls for name, cls in missing.items()
                   if name not in TEST_ONLY}
    assert unexplained == {}, (
        "fields only tests turn: make each a constant, or give it a "
        "TEST_ONLY reason")
    # the table only shrinks: an entry that gained a caller, or is no
    # longer a field, must leave it
    assert set(TEST_ONLY) <= set(missing), sorted(set(TEST_ONLY) - set(missing))


def test_scan_sees_keywords_replace_and_foreign_assignments():
    tree = ast.parse(
        "cfg = BusConfig(ack_quorum=2)\n"
        "other = dataclasses.replace(cfg, stat_queue=4)\n"
        "cfg.reliable.nack_max = 3\n"
        "cfg.batch.batch_delay += 1\n"
        "Router(stat_interval=1.0)\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.seen_ledger_cap = 5\n")
    assert turned(tree, "BusConfig") == {
        "ack_quorum", "stat_queue", "nack_max", "batch_delay"}
