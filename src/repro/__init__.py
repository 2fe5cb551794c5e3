"""repro — a from-scratch reproduction of *The Information Bus: An
Architecture for Extensible Distributed Systems* (Oki, Pfluegl, Siegel,
Skeen; SOSP 1993).

Quick tour
----------

>>> from repro import InformationBus, DataObject, standard_registry
>>> from repro.objects import TypeDescriptor, AttributeSpec
>>> bus = InformationBus(seed=1)
>>> bus.add_hosts(3)                                    # doctest: +ELLIPSIS
[...]
>>> reg = standard_registry()
>>> _ = reg.register(TypeDescriptor("story",
...     attributes=[AttributeSpec("headline", "string")]))
>>> feed = bus.client("node00", "feed", registry=reg)
>>> monitor = bus.client("node01", "monitor")
>>> inbox = []
>>> _ = monitor.subscribe("news.>", lambda s, o, i: inbox.append(o))
>>> _ = feed.publish("news.equity.gmc",
...                  DataObject(reg, "story", headline="Chips up"))
>>> bus.settle()
>>> inbox[0].get("headline")
'Chips up'

Subpackages
-----------

- :mod:`repro.sim` — discrete-event substrate (kernel, Ethernet, hosts,
  transports, stable storage).
- :mod:`repro.objects` — self-describing object model (P2) with dynamic
  type registration (P3).
- :mod:`repro.tdl` — the TDL interpreted language (CLOS subset).
- :mod:`repro.core` — the bus: subject-based addressing (P4), reliable and
  guaranteed delivery; discovery, RMI and WAN routers in their modules.
- :mod:`repro.repository` — the Object Repository over a built-in
  relational engine.
- :mod:`repro.adapters` — legacy integration (news feeds, the Cobol WIP
  terminal).
- :mod:`repro.apps` — News Monitor, Keyword Generator, application
  builder, factory configuration system.
- :mod:`repro.bench` — workload generators and measurement harness for
  the Appendix figures.

The package inits export the bus only, so ``import repro`` loads just
what a bus process runs; a layer above it comes from its own module.
"""

from .core import (BusClient, BusConfig, BusDaemon, InformationBus, QoS,
                   SubjectTrie, subject_matches)
from .objects import (AttributeSpec, DataObject, OperationSpec, ParamSpec,
                      TypeDescriptor, TypeRegistry, decode, encode,
                      standard_registry)
from .sim import CostModel, Simulator

__version__ = "1.0.0"

__all__ = [
    "AttributeSpec", "BusClient", "BusConfig", "BusDaemon", "CostModel",
    "DataObject", "InformationBus", "OperationSpec", "ParamSpec", "QoS",
    "Simulator", "SubjectTrie", "TypeDescriptor", "TypeRegistry", "decode",
    "encode", "standard_registry", "subject_matches", "__version__",
]
