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
:class:`~repro.core.router.InformationRouter` bridges are built.
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
from .sharding import ShardedDaemon

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
        """Attach a host and start its bus daemon.

        With ``config.subject_shards > 1`` the host gets a
        :class:`~repro.core.sharding.ShardedDaemon` — one daemon per
        shard plane behind the same interface.  The default (1) is the
        classic single daemon, bit-for-bit.
        """
        host = self.lan.add_host(address)
        if self.config.subject_shards > 1:
            self.daemons[address] = ShardedDaemon(self.sim, host,
                                                  self.config, self.tracer)
        else:
            self.daemons[address] = BusDaemon(self.sim, host, self.config,
                                              self.tracer)
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

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Run until no events remain (periodic timers keep buses alive;
        prefer :meth:`run_for` unless every daemon has been stopped)."""
        self.sim.run(max_events=max_events)

    def settle(self, duration: float = 2.0) -> None:
        """Flush batches everywhere and give protocols time to quiesce."""
        for daemon in self.daemons.values():
            if daemon.up:
                daemon.flush()
        self.run_for(duration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<InformationBus {self.name} hosts={len(self.daemons)}>"
