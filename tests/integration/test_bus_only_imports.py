"""A bus process loads only the bus.

The package inits of ``repro``, ``repro.core``, ``repro.objects`` and
``repro.sim`` export the bus and nothing above it; discovery, RMI, WAN
routers, service objects, the printer, properties, background traffic
and TDL are imported from their own modules.  A fresh interpreter
checks that none of those is loaded by ``import repro``, by importing
the three bus subpackages, or by a two-host publish→deliver run (plain
and typed payloads), and that every name in each package's ``__all__``
resolves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: the modules no bus process runs
DEFERRED = (
    "repro.tdl", "repro.tdl.errors", "repro.tdl.evaluator",
    "repro.tdl.reader", "repro.core.discovery", "repro.core.rmi",
    "repro.core.router", "repro.objects.printer",
    "repro.objects.properties", "repro.objects.service",
    "repro.sim.background",
)

#: the packages a bus process is made of
BUS_PACKAGES = ("repro.core", "repro.objects", "repro.sim")

PROBE = r"""
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("repro"))

stages = {}
import repro
stages["import repro"] = loaded()
import repro.core, repro.objects, repro.sim
stages["import repro.core, repro.objects, repro.sim"] = loaded()

from repro import (AttributeSpec, DataObject, InformationBus,
                   TypeDescriptor, standard_registry)
bus = InformationBus(seed=7)
bus.add_hosts(2)
registry = standard_registry()
registry.register(TypeDescriptor(
    "quote", attributes=[AttributeSpec("px", "int")]))
publisher = bus.client("node00", "pub", registry=registry)
inbox = []
bus.client("node01", "sub").subscribe(
    "q.>", lambda subject, value, info: inbox.append(value))
publisher.publish("q.plain", {"px": 1})
publisher.publish("q.typed", DataObject(registry, "quote", px=2))
bus.settle()
stages["publish->deliver"] = loaded()

unresolved = [f"{package.__name__}.{name}"
              for package in (repro, repro.core, repro.objects, repro.sim)
              for name in package.__all__ if not hasattr(package, name)]
print(json.dumps({"stages": stages, "unresolved": unresolved,
                  "delivered": [value if isinstance(value, dict)
                                else value.get("px") for value in inbox]}))
"""


def probe():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, check=True, timeout=120)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def test_a_bus_process_loads_only_the_bus():
    result = probe()
    assert result["delivered"] == [{"px": 1}, 2]
    assert list(result["stages"]) == [
        "import repro", "import repro.core, repro.objects, repro.sim",
        "publish->deliver"]
    for stage, modules in result["stages"].items():
        assert not set(DEFERRED) & set(modules), stage
        outside = [name for name in modules if ".".join(
            name.split(".")[:2]) not in ("repro",) + BUS_PACKAGES]
        assert outside == [], stage
    assert result["unresolved"] == []
