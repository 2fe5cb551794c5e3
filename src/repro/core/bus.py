"""The :class:`InformationBus` facade: one simulated bus instance.

Wires together the substrate (simulator, Ethernet segment, hosts) and the
bus layer (daemons, clients) so applications, examples, and benchmarks
can say::

    bus = InformationBus(seed=1)
    bus.add_hosts(15)
    publisher = bus.client("node00", "feed")
    consumer = bus.client("node01", "monitor")
    consumer.subscribe("news.>", on_story)
    publisher.publish("news.equity.gmc", story)
    bus.run_for(1.0)

Multiple instances can share one :class:`~repro.sim.kernel.Simulator`
(pass it in) — that is how WAN topologies with
:class:`~repro.core.router.Router` bridges are built.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..objects import TypeRegistry
from ..sim.ethernet import EthernetSegment
from ..sim.kernel import Simulator
from ..sim.network import CostModel
from ..sim.node import Host
from ..sim.trace import NULL_TRACER, Tracer
from .client import BusClient
from .daemon import BusConfig, BusDaemon

__all__ = ["InformationBus"]


class InformationBus:
    """A LAN-scale Information Bus: one broadcast segment of daemons."""

    def __init__(self, seed: int = 0, cost: Optional[CostModel] = None,
                 config: Optional[BusConfig] = None, name: str = "bus",
                 sim: Optional[Simulator] = None,
                 tracer: Optional[Tracer] = None):
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.name = name
        self.config = config or BusConfig()
        # NULL_TRACER fallback, not `or`: a disabled Tracer is falsy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.lan = EthernetSegment(self.sim, name=name, cost=cost)
        self.daemons: Dict[str, BusDaemon] = {}
        self._client_counter = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def add_host(self, address: str) -> Host:
        """Attach a host and start its bus daemon planes.

        A host is always a plane set: ``config.subject_shards`` (at
        least one) :class:`~repro.core.daemon.BusDaemon` instances, one
        per shard plane, sharing one ``planes`` list.
        ``self.daemons[address]`` is plane 0, the host's canonical
        identity and its single-writer control plane.
        """
        host = self.lan.add_host(address)
        count = max(self.config.subject_shards, 1)
        planes = [BusDaemon(self.sim, host, self.config, self.tracer,
                            shard=shard, shard_count=count)
                  for shard in range(count)]
        for plane in planes:
            plane.planes = planes
        self.daemons[address] = planes[0]
        return host

    def add_hosts(self, count: int, prefix: str = "node") -> List[Host]:
        return [self.add_host(f"{prefix}{i:02d}") for i in range(count)]

    def host(self, address: str) -> Host:
        return self.lan.host(address)

    def daemon(self, address: str) -> BusDaemon:
        return self.daemons[address]

    def hosts(self) -> List[Host]:
        return self.lan.hosts()

    # ------------------------------------------------------------------
    # applications
    # ------------------------------------------------------------------
    def client(self, address: str, name: Optional[str] = None,
               registry: Optional[TypeRegistry] = None,
               service_time: float = 0.0) -> BusClient:
        """Create an application on ``address`` registered with its daemon.

        ``service_time`` models the seconds the application takes to
        consume one message (0 = instant); a slow consumer backlogs its
        own bounded delivery lane without stalling co-hosted siblings.
        """
        if name is None:
            self._client_counter += 1
            name = f"app{self._client_counter}"
        return BusClient(self.daemons[address], name, registry,
                         service_time=service_time)

    # ------------------------------------------------------------------
    # failures
    # ------------------------------------------------------------------
    def crash_host(self, address: str) -> None:
        self.lan.host(address).crash()

    def recover_host(self, address: str) -> None:
        self.lan.host(address).recover()

    def partition(self, *groups) -> None:
        self.lan.partition(*groups)

    def heal(self) -> None:
        self.lan.heal()

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run_for(self, duration: float, max_events: int = 50_000_000) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.sim.run_until(self.sim.now + duration, max_events=max_events)

    def settle(self, duration: float = 2.0) -> None:
        """Give protocols time to quiesce: every held envelope leaves at
        a lane-free instant or its batch delay, so only time has to run."""
        self.run_for(duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InformationBus {self.name} hosts={len(self.daemons)}>"
