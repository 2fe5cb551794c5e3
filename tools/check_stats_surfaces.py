#!/usr/bin/env python
"""CI guard: no new ad-hoc ``*_stats`` surfaces outside the registry.

The unified metrics registry (``src/repro/core/metrics.py``) is the one
place new observability lands: instruments get a hierarchical name, show
up in ``snapshot()``, and ride the ``_bus.stat.*`` telemetry plane for
free.  Before it existed, every subsystem grew its own dict-returning
``*_stats`` method; those pre-registry surfaces are grandfathered below
(most are now thin views over registry instruments), but adding a NEW
one is a lint failure — register instruments instead.

Run from the repo root::

    python tools/check_stats_surfaces.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The registry itself may define whatever it likes.
EXEMPT = {"repro/core/metrics.py"}

# Every ``stats`` / ``*_stats`` def that predates the registry, frozen.
# Shrinking this list (removing a deprecated shim) is encouraged;
# growing it requires changing this file, which is the point.
ALLOWED = {
    ("repro/adapters/base.py", "Adapter.stats"),
    ("repro/core/bus.py", "InformationBus.flow_stats"),
    ("repro/core/client.py", "BusClient.delivery_stats"),
    ("repro/core/daemon.py", "BusDaemon.flow_stats"),
    ("repro/core/daemon.py", "BusDaemon.publish_stats"),
    ("repro/core/daemon.py", "BusDaemon.reliable_stats"),
    ("repro/core/daemon.py", "BusDaemon.shard_stats"),
    ("repro/core/daemon.py", "BusDaemon.wire_stats"),
    ("repro/core/reliable.py", "ReliableReceiver.stats"),
    ("repro/core/reliable.py", "ReliableSender.retention_stats"),
    ("repro/core/router.py", "Router.flow_stats"),
    ("repro/core/router.py", "Router.leg_stats"),
    ("repro/core/router.py", "WanLink.link_stats"),
    # the ShardedDaemon facade mirrors BusDaemon's grandfathered
    # surfaces, aggregated across shard planes (one entry per mirror)
    ("repro/core/sharding.py", "ShardedDaemon.flow_stats"),
    ("repro/core/sharding.py", "ShardedDaemon.reliable_stats"),
    ("repro/core/sharding.py", "ShardedDaemon.shard_stats"),
    ("repro/core/sharding.py", "ShardedDaemon.wire_stats"),
    ("repro/core/wire.py", "decode_memo_stats"),
}


def _is_stats_name(name: str) -> bool:
    return not name.startswith("_") and (
        name == "stats" or name.endswith("_stats"))


def _surfaces(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node: ast.AST, stack: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, stack + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_stats_name(child.name):
                    found.append((".".join(stack + (child.name,)),
                                  child.lineno))
                visit(child, stack)
            else:
                visit(child, stack)

    visit(tree, ())
    return found


def main() -> int:
    offenders, seen = [], set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in EXEMPT:
            continue
        for qualname, lineno in _surfaces(path):
            seen.add((rel, qualname))
            if (rel, qualname) not in ALLOWED:
                offenders.append((rel, lineno, qualname))

    stale = ALLOWED - seen
    for rel, qualname in sorted(stale):
        print(f"note: allowlisted {rel}:{qualname} no longer exists — "
              f"prune it from {Path(__file__).name}")

    if offenders:
        print("New *_stats surfaces outside core/metrics.py:")
        for rel, lineno, qualname in offenders:
            print(f"  src/{rel}:{lineno}: {qualname}")
        print("Register instruments on the MetricsRegistry instead "
              "(see docs/OBSERVABILITY.md); if this really must be a "
              "grandfathered surface, add it to ALLOWED in this script.")
        return 1
    print(f"ok — {len(seen)} grandfathered stats surfaces, none new")
    return 0


if __name__ == "__main__":
    sys.exit(main())
